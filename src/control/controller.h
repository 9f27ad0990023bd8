// The closed-loop control plane: a deterministic feedback controller that
// samples observed response quantiles per window, compares them against the
// declared SLO (src/control/plan.h) and corrects with the cheapest action
// that can help — in order, on a sustained violation: scale out through the
// elastic-membership machinery (src/resize), pause in-flight migrations
// whose I/O is contending with foreground traffic, tighten the open
// system's admission cap (overload-safe degradation: shed a bounded
// fraction rather than miss the SLO for everyone). Sustained recovery
// unwinds in reverse: resume migrations, relax admission back toward the
// plan cap, scale in.
//
// Anti-oscillation is structural, not tuned:
//   - settle counts: an action needs `settle` consecutive windows over the
//     bound (or below `low * bound` for recovery) — single-window noise
//     never actuates;
//   - cooldown: after any action no further action fires for `cooldown`
//     (default 4 windows), so the system's response to the last action is
//     observed before the next;
//   - hysteresis band: between `low * bound` and `bound` neither streak
//     grows, so the controller is quiescent at a healthy operating point;
//   - two ratchets: the controller never scales in below a membership size
//     it has observed to violate the SLO, and never re-adds a node it
//     previously removed (fresh nodes come from an ever-increasing id
//     watermark). Membership therefore follows a bounded trajectory — no
//     add -> remove -> add of the same node is possible by construction,
//     which is what the no-oscillation property test pins.
//
// Everything the controller reads and writes is simulated-time state
// mutated from calendar events, so control-armed runs stay byte-identical
// for any --jobs count, like the rest of the system.
#pragma once

#include <cstdint>
#include <vector>

#include "src/control/plan.h"
#include "src/resize/migrate.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace declust::control {

/// One controller actuation, kept for per-decision reporting.
struct Decision {
  enum class Kind {
    kScaleOut,  ///< added nodes via the migration coordinator
    kScaleIn,   ///< removed the highest member
    kPause,     ///< parked in-flight migration copies
    kResume,    ///< released parked migration copies
    kTighten,   ///< lowered the effective admission cap
    kRelax,     ///< raised the effective admission cap toward the plan cap
  };
  Kind kind;
  double at_ms = 0.0;       ///< simulated time of the actuation
  double observed_ms = 0.0;  ///< window quantile that triggered it
  int members = 0;          ///< membership after the action
  int cap = -1;             ///< effective admission cap after (-1 = closed)
};

const char* DecisionKindName(Decision::Kind kind);

/// \brief Drives membership, migration pacing and admission from the SLO.
class ControlCoordinator {
 public:
  /// The plan must be non-empty, validated, and outlive the coordinator.
  ControlCoordinator(const ControlPlan* plan, int initial_nodes);

  /// Binds the run's simulation, the (plan-less) migration coordinator the
  /// controller actuates through, and the open plan's admission cap
  /// (`base_admission_cap` < 0 for a closed run: admission actions are
  /// disabled, membership actions still fire). Call between System::Init()
  /// and Start().
  void Arm(sim::Simulation* sim, resize::MigrationCoordinator* migrator,
           int base_admission_cap);

  /// Spawns the observation/actuation tick loop. Call after Arm().
  void Start();

  // --- engine hooks ---
  /// Admission bound the open driver sheds at; always <= the plan cap.
  /// Sheds that this cap causes (arrivals the plan cap would have admitted)
  /// are controller sheds — classify them audit::ShedClass::kController.
  int effective_admission_cap() const { return cap_; }
  /// Every completed query feeds the current observation window.
  void OnQueryCompleted(double response_ms);

  // --- reporting ---
  const std::vector<Decision>& decisions() const { return decisions_; }
  int64_t windows() const { return windows_; }
  /// Observation windows whose quantile exceeded the bound.
  int64_t slo_violation_windows() const { return slo_violation_windows_; }
  int64_t scale_outs() const { return scale_outs_; }
  int64_t scale_ins() const { return scale_ins_; }
  int64_t pauses() const { return pauses_; }
  int64_t resumes() const { return resumes_; }
  int64_t cap_tightens() const { return cap_tightens_; }
  int64_t cap_relaxes() const { return cap_relaxes_; }
  /// Last completed window's observed quantile (-1 before the first window
  /// with samples).
  double last_observed_ms() const { return last_observed_ms_; }

 private:
  sim::Task<> RunTickLoop();
  void Tick();
  /// Picks and fires at most one corrective action for a settled over-SLO
  /// streak; returns true if one fired.
  bool ActOnViolation(double observed);
  /// Unwinds one step for a settled recovery streak.
  bool ActOnRecovery(double observed);
  void Record(Decision::Kind kind, double observed);
  /// Exact quantile of the current window's samples (destroys their order);
  /// -1 with no samples.
  double WindowQuantile();

  const ControlPlan* plan_;
  int initial_nodes_;
  sim::Simulation* sim_ = nullptr;
  resize::MigrationCoordinator* migrator_ = nullptr;

  int base_cap_ = -1;  ///< the open plan's admission cap; -1 = closed run
  int cap_ = -1;       ///< current effective cap (degradation state)

  std::vector<double> window_;  ///< responses completed this window
  int over_streak_ = 0;
  int under_streak_ = 0;
  double cooldown_until_ms_ = 0.0;
  /// Largest membership size observed violating the SLO; scale-in never
  /// goes back to (or below) it.
  int violated_members_hwm_ = 0;
  /// Next never-before-used node id; scale-out only draws from here, so a
  /// removed node is never re-added.
  int fresh_node_ = 0;

  std::vector<Decision> decisions_;
  int64_t windows_ = 0;
  int64_t slo_violation_windows_ = 0;
  int64_t scale_outs_ = 0;
  int64_t scale_ins_ = 0;
  int64_t pauses_ = 0;
  int64_t resumes_ = 0;
  int64_t cap_tightens_ = 0;
  int64_t cap_relaxes_ = 0;
  double last_observed_ms_ = -1.0;
};

}  // namespace declust::control
