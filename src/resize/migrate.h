// Online elastic membership: the MigrationCoordinator executes a ResizePlan
// against one simulated machine, moving fragment slices between nodes as
// contending simulated I/O with the same epoch-flip discipline as the
// recovery rebuild (src/recover).
//
// For each membership event it:
//
//   1. flips the member set (added nodes become eligible coordinators and
//      migration targets; removed nodes stop taking new coordinator work
//      but keep serving their slices until they are evacuated);
//   2. migrates slices to rebalance ownership over the new member set —
//      each migration allocates fresh extents on the destination disk,
//      copies page for page through recover::PageCopier (so migration I/O
//      contends with foreground queries on every shared resource), runs the
//      (empty, read-only workload) catch-up step, and commits with an
//      atomic epoch flip: queries dispatched before the flip drain on the
//      old copy — old extents are never invalidated — and queries
//      dispatched after it read the new owner. Chained backups re-chain to
//      each owner's new successor the same way;
//   3. for removals, drains the node (waits for in-flight reads to finish)
//      before retiring it.
//
// A rebalance:auto item additionally watches observed per-slice access
// counts (engine::Metrics) and, with hysteresis, migrates hot slices from
// overloaded members to cold ones.
//
// The control plane (src/control) drives the same machinery dynamically: a
// plan-less coordinator accepts RequestMembershipChange at runtime, runs up
// to a configured number of slice migrations concurrently (joined waves,
// deterministic), caps their disk traffic with a sim::IoBudget, and can be
// paused/resumed between copy batches when migration I/O threatens the SLO.
//
// Queries racing a migration take the engine's migration-aware failover
// path: a failed primary read re-resolves the owner (redirecting to the new
// node after the flip) before falling back to the chained backup, bounded
// by the per-query deadline.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/audit/audit.h"
#include "src/engine/catalog.h"
#include "src/hw/node.h"
#include "src/obs/probe.h"
#include "src/resize/plan.h"
#include "src/sim/io_budget.h"
#include "src/sim/task.h"
#include "src/sim/trigger.h"

namespace declust::resize {

/// Migration retry knobs; only consulted when a copy I/O fails.
struct ResizeOptions {
  /// Max retries of one page copy on a transient IoError; exceeding the cap
  /// falls back to the backup replica as copy source, then aborts the
  /// migration (the slice stays where it was).
  int max_io_retries = 16;
  /// Flat pause between copy retries (deterministic).
  double retry_backoff_ms = 1.0;
  /// Poll period while draining a removed node's in-flight reads.
  double drain_poll_ms = 1.0;
};

/// \brief One reporting phase's measured slice of a replication. A plan
/// with K membership events yields 2K+1 phases: before/during/after each.
struct ResizePhaseWindow {
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t completed = 0;
  double response_sum_ms = 0.0;
};

/// \brief Executes a ResizePlan and tracks migration state for one run.
///
/// Confined to one Simulation/System pair (one replication), like the
/// Auditor and the RecoveryCoordinator: parallel sweeps give each worker
/// its own coordinator. All coroutines it spawns live on the System's
/// simulation, so runs stay byte-identical for any `--jobs` count.
class MigrationCoordinator {
 public:
  /// `plan` must outlive the coordinator, be valid for `initial_nodes`
  /// (ResizePlan::Validate) and non-empty.
  MigrationCoordinator(const ResizePlan* plan, int initial_nodes,
                       ResizeOptions opts = ResizeOptions());

  /// Plan-less coordinator for dynamic membership (the control plane):
  /// starts with nodes 0..initial-1 as members on a machine of
  /// `physical_nodes` slots and `num_slices` logical slices. Membership
  /// changes arrive through RequestMembershipChange instead of a scripted
  /// plan; Start() is still required (it is a no-op without a plan).
  MigrationCoordinator(int initial_nodes, int physical_nodes, int num_slices,
                       ResizeOptions opts = ResizeOptions());

  /// Physical machine size the run needs (max membership the plan reaches).
  int num_physical_nodes() const { return physical_nodes_; }
  /// Logical slice count the partitioning must be built with.
  int num_slices() const { return num_slices_; }
  /// Slice -> node tables for SystemCatalog::Build: slices striped
  /// round-robin over the initial members, backups on each owner's
  /// successor member.
  engine::PlacementSpec InitialPlacement() const;

  /// Binds the hardware after engine::System::Init() built it. All
  /// pointers are non-owning and must outlive the coordinator; `audit` and
  /// `probe` may be null. `slice_accesses` is the engine's observed
  /// per-slice access counter array (engine::Metrics), read by
  /// rebalance:auto; may be null when the plan has no rebalance item.
  void Arm(sim::Simulation* sim, hw::Machine* machine,
           engine::SystemCatalog* catalog, audit::Auditor* audit,
           obs::Probe* probe,
           const std::vector<int64_t>* slice_accesses = nullptr);

  /// Spawns the membership driver (and the rebalance loop, if planned).
  /// Call after Arm(), before the simulation runs.
  void Start();

  // --- dynamic membership (control plane) ---
  /// Queues one add/remove of nodes lo..hi decided at runtime; it executes
  /// with the same migration machinery (and epoch-flip discipline) as a
  /// scripted event, throttled by `rate_mb_per_sec`/`batch_pages`. Returns
  /// false — and does nothing — while another membership change is queued
  /// or migrating, or when the targets are invalid for the current member
  /// set (add of a member, remove of a non-member, membership below two).
  bool RequestMembershipChange(ResizeEvent::Kind kind, int lo, int hi,
                               double rate_mb_per_sec, int batch_pages);
  /// True while a membership change (scripted or dynamic) is queued or
  /// migrating slices.
  bool membership_change_active() const { return busy_ || pending_dynamic_; }

  /// Concurrent slice migrations: up to `n` fragment copies run at once
  /// within one membership event (waves joined deterministically). The
  /// default 1 preserves the scripted sequential order byte for byte; > 1
  /// requires an I/O budget so the copies cannot monopolize any disk.
  void set_migration_concurrency(int n);
  /// Caps migration I/O per node (recover::PageCopier reserves each page's
  /// bytes against it). Null (default) leaves copies unbudgeted. Non-owning.
  void set_io_budget(sim::IoBudget* budget) { io_budget_ = budget; }

  /// Parks page copying between batches (SLO pressure from migration I/O);
  /// in-flight migrations suspend deterministically at their next batch
  /// boundary until ResumeMigrations().
  void PauseMigrations();
  void ResumeMigrations();
  bool migrations_paused() const { return paused_; }

  // --- engine hooks ---
  /// Round-robin coordinator placement over the *current* members.
  int CoordinatorNode(int64_t counter) const {
    return members_[static_cast<size_t>(counter) % members_.size()];
  }
  bool IsMember(int node) const;
  /// False once a removed node has been drained and retired; a removed but
  /// not-yet-evacuated node keeps serving (true) so pre-flip reads drain.
  bool NodeServing(int node) const {
    return node < 0 || node >= static_cast<int>(retired_.size()) ||
           retired_[static_cast<size_t>(node)] == 0;
  }
  /// Tracks in-flight site executions per node for drain-then-remove.
  void OnSiteExecBegin(int node) {
    ++active_reads_[static_cast<size_t>(node)];
  }
  void OnSiteExecEnd(int node) { --active_reads_[static_cast<size_t>(node)]; }
  /// A query re-resolved a migrating slice's owner after the epoch flip.
  void OnMigrationRedirect() { ++migration_redirects_; }

  /// Starts bucketing completions (call alongside Metrics::StartMeasurement).
  void StartMeasurement(double now_ms);
  /// One foreground query completed at `now_ms` (bucketed by phase).
  void OnQueryCompleted(double now_ms, double response_ms);

  // --- results (valid after the run) ---
  /// Number of reporting phases (2 * membership events + 1).
  int NumPhases() const;
  /// Phase windows clipped to [measurement start, `end_ms`]; a phase that
  /// never started has end <= start.
  std::vector<ResizePhaseWindow> Phases(double end_ms) const;

  /// Address-epoch counter: bumped by every committed migration flip.
  int64_t epoch() const { return epoch_; }
  int64_t migrations_completed() const { return migrations_completed_; }
  int64_t migrations_aborted() const { return migrations_aborted_; }
  int64_t pages_migrated() const { return pages_migrated_; }
  int64_t migration_redirects() const { return migration_redirects_; }
  int64_t rebalance_moves() const { return rebalance_moves_; }
  int final_members() const { return static_cast<int>(members_.size()); }
  /// Fragment copies currently mid-migration.
  int migrations_in_flight() const { return migrations_in_flight_; }
  /// High-water mark of concurrently in-flight fragment copies.
  int peak_concurrent_migrations() const {
    return peak_concurrent_migrations_;
  }

 private:
  sim::Task<> RunMembershipDriver();
  sim::Task<> RunRebalanceLoop(ResizeEvent ev);
  sim::Task<> RunDynamicEvent(ResizeEvent ev);
  /// Executes the (slice, dst) moves sequentially (concurrency 1, the
  /// scripted default) or in deterministic waves of up to the configured
  /// concurrency, each wave joined before the next starts.
  sim::Task<> RunMoveList(std::vector<std::pair<int, int>> moves,
                          bool backup_copy, double rate_mb_per_sec,
                          int batch_pages);
  sim::Task<> MigrateSliceJoined(int slice, int dst, bool backup_copy,
                                 double rate_mb_per_sec, int batch_pages,
                                 sim::JoinCounter* join);
  /// `event_index` < 0 marks a dynamic (control-plane) event, which has no
  /// pre-sized reporting phase to bucket into.
  sim::Task<> ExecuteMembershipEvent(ResizeEvent ev, int event_index);
  /// Moves `slice`'s primary (or backup copy) to `dst` with an epoch flip;
  /// a failure leaves the slice where it was (counted as aborted).
  sim::Task<Status> MigrateSlice(int slice, int dst, bool backup_copy,
                                 double rate_mb_per_sec, int batch_pages);
  sim::Task<Status> CopyJobPages(const engine::SystemCatalog::MigrationJob& job,
                                 double rate_mb_per_sec, int batch_pages,
                                 int64_t* copied);
  /// Deterministic (slice, dst) moves that rebalance ownership over the
  /// current members: evacuate non-member owners first, then level slice
  /// counts (most-loaded gives its lowest slice id to least-loaded; ties
  /// break on node id).
  std::vector<std::pair<int, int>> PlanBalanceMoves() const;
  /// Desired backup owner per slice: the next member after the owner in
  /// cyclic sorted member order.
  std::vector<int> DesiredBackups() const;

  const ResizePlan* plan_;
  ResizeOptions opts_;
  int initial_nodes_ = 0;
  int physical_nodes_ = 0;
  int num_slices_ = 0;

  sim::Simulation* sim_ = nullptr;
  hw::Machine* machine_ = nullptr;
  engine::SystemCatalog* catalog_ = nullptr;
  audit::Auditor* audit_ = nullptr;
  obs::Probe* probe_ = nullptr;
  const std::vector<int64_t>* slice_accesses_ = nullptr;

  std::vector<int> members_;  // sorted node ids
  std::vector<char> retired_;
  std::vector<int64_t> active_reads_;
  bool busy_ = false;  // a membership event or rebalance burst is running
  bool pending_dynamic_ = false;  // a dynamic event is spawned, not yet busy

  int migration_concurrency_ = 1;
  sim::IoBudget* io_budget_ = nullptr;
  bool paused_ = false;
  std::unique_ptr<sim::Trigger> resume_trigger_;  // created in Arm()
  int migrations_in_flight_ = 0;
  int peak_concurrent_migrations_ = 0;

  int64_t epoch_ = 0;
  int64_t migrations_completed_ = 0;
  int64_t migrations_aborted_ = 0;
  int64_t pages_migrated_ = 0;
  int64_t migration_redirects_ = 0;
  int64_t rebalance_moves_ = 0;

  // Phase accounting: membership event j owns boundaries 2j (start) and
  // 2j+1 (done); completions bucket into cur_phase_.
  int cur_phase_ = 0;
  std::vector<double> boundary_ms_;  // size 2K, +inf until crossed
  bool measuring_ = false;
  double measure_start_ms_ = 0.0;
  std::vector<int64_t> phase_completed_;
  std::vector<double> phase_response_sum_ms_;
};

}  // namespace declust::resize
