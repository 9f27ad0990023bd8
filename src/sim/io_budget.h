// Per-node I/O contention budget for background (migration) traffic.
//
// An IoBudget is a deterministic token bucket per node: background copies
// reserve bytes before touching a node's disk and wait out the returned
// delay, so budgeted traffic on any node never exceeds `bytes_per_ms` over
// any interval (each reservation pushes the node's next-free time forward
// by exactly bytes / bytes_per_ms). Enforcement is by construction, not by
// sampling: issue times are spaced so the cap holds for every window, which
// is what lets several migrations run concurrently without starving
// foreground queries of disk bandwidth.
//
// Purely simulated-time state (no wall clock, no randomness): reservations
// happen in calendar order, so budgeted runs stay byte-identical for any
// --jobs count, the same discipline as the rest of src/sim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace declust::sim {

/// \brief Deterministic per-node rate limiter for background I/O.
class IoBudget {
 public:
  /// `bytes_per_ms` is the per-node cap on budgeted traffic (a declared
  /// fraction of the simulated disk's transfer rate); must be > 0.
  IoBudget(int num_nodes, double bytes_per_ms);

  /// Reserves `bytes` of budgeted I/O on `node` at simulated time `now_ms`.
  /// Returns the delay (>= 0, ms) the caller must wait before issuing the
  /// I/O so the node's budgeted rate never exceeds the cap.
  double Reserve(int node, double now_ms, int64_t bytes);

  double bytes_per_ms() const { return bytes_per_ms_; }
  int num_nodes() const { return static_cast<int>(next_free_ms_.size()); }

  /// Earliest time `node` may issue its next budgeted I/O (its bucket's
  /// drain horizon). Exposed so tests can verify the spacing invariant.
  double node_busy_until_ms(int node) const {
    return next_free_ms_[static_cast<size_t>(node)];
  }

  // --- accounting (reported by the control experiment) ---
  /// Total bytes reserved across all nodes.
  int64_t reserved_bytes() const { return reserved_bytes_; }
  /// Reservations that had to delay (the budget actually throttled).
  int64_t throttled_reservations() const { return throttled_; }
  /// Largest single delay handed out.
  double max_delay_ms() const { return max_delay_ms_; }

 private:
  double bytes_per_ms_ = 0.0;
  std::vector<double> next_free_ms_;
  int64_t reserved_bytes_ = 0;
  int64_t throttled_ = 0;
  double max_delay_ms_ = 0.0;
};

}  // namespace declust::sim
