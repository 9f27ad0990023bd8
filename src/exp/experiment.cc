#include "src/exp/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "src/decluster/berd.h"
#include "src/decluster/cmd.h"
#include "src/decluster/hash.h"
#include "src/decluster/magic.h"
#include "src/control/plan.h"
#include "src/decluster/range.h"
#include "src/exp/runner.h"
#include "src/recover/plan.h"
#include "src/resize/plan.h"
#include "src/sim/fault.h"
#include "src/workload/open.h"

namespace declust::exp {

using workload::WisconsinAttrs;

Result<std::unique_ptr<decluster::Partitioning>> MakePartitioning(
    const std::string& strategy, const storage::Relation& relation,
    const workload::Workload& workload, int num_processors) {
  const std::vector<storage::AttrId> attrs = {WisconsinAttrs::kUnique1,
                                              WisconsinAttrs::kUnique2};
  if (strategy == "range") {
    DECLUST_ASSIGN_OR_RETURN(auto p, decluster::RangePartitioning::Create(
                                         relation, attrs, num_processors));
    return std::unique_ptr<decluster::Partitioning>(std::move(p));
  }
  if (strategy == "hash") {
    DECLUST_ASSIGN_OR_RETURN(auto p, decluster::HashPartitioning::Create(
                                         relation, attrs, num_processors));
    return std::unique_ptr<decluster::Partitioning>(std::move(p));
  }
  if (strategy == "CMD") {
    DECLUST_ASSIGN_OR_RETURN(auto p, decluster::CmdPartitioning::Create(
                                         relation, attrs, num_processors));
    return std::unique_ptr<decluster::Partitioning>(std::move(p));
  }
  if (strategy == "BERD") {
    DECLUST_ASSIGN_OR_RETURN(auto p, decluster::BerdPartitioning::Create(
                                         relation, attrs, num_processors));
    return std::unique_ptr<decluster::Partitioning>(std::move(p));
  }
  if (strategy == "MAGIC") {
    DECLUST_ASSIGN_OR_RETURN(
        auto p, decluster::MagicPartitioning::Create(
                    relation, attrs, workload, num_processors));
    return std::unique_ptr<decluster::Partitioning>(std::move(p));
  }
  return Status::NotFound("unknown strategy: " + strategy);
}

Status ValidateExperimentConfig(const ExperimentConfig& config) {
  const auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("invalid experiment config: " + what);
  };
  if (config.num_processors < 1) {
    return invalid("num_processors must be >= 1, got " +
                   std::to_string(config.num_processors));
  }
  if (config.cardinality < 1) {
    return invalid("cardinality must be >= 1, got " +
                   std::to_string(config.cardinality));
  }
  if (config.repeats < 1) {
    return invalid("repeats must be >= 1, got " +
                   std::to_string(config.repeats));
  }
  if (!(config.warmup_ms >= 0)) {  // also rejects NaN
    return invalid("warmup_ms must be >= 0, got " +
                   std::to_string(config.warmup_ms));
  }
  if (!(config.measure_ms > 0)) {
    return invalid("measure_ms must be > 0, got " +
                   std::to_string(config.measure_ms));
  }
  if (!(config.correlation >= 0.0 && config.correlation <= 1.0)) {
    return invalid("correlation must be in [0, 1], got " +
                   std::to_string(config.correlation));
  }
  if (config.mpls.empty()) return invalid("MPL list is empty");
  for (int mpl : config.mpls) {
    if (mpl < 1) {
      return invalid("every MPL must be >= 1, got " + std::to_string(mpl));
    }
  }
  if (config.strategies.empty()) return invalid("strategy list is empty");
  if (config.mix.qb_low_tuples < 1) {
    return invalid("qb_low_tuples must be >= 1, got " +
                   std::to_string(config.mix.qb_low_tuples));
  }
  // An elastic plan enlarges the physical machine: fault/recovery events may
  // then target any node the plan ever adds, not just the initial members.
  int physical_nodes = config.num_processors;
  int resize_slices = config.num_processors;
  if (!config.resize.empty()) {
    auto zplan = resize::ResizePlan::Parse(config.resize);
    if (!zplan.ok()) {
      return invalid("resize spec: " + zplan.status().message());
    }
    // The horizon cross-check rejects hysteresis that can never trigger
    // inside this run (settle * every past warmup + measure).
    Status vs = zplan->Validate(config.num_processors,
                                config.warmup_ms + config.measure_ms);
    if (!vs.ok()) {
      return invalid("resize spec: " + vs.message());
    }
    physical_nodes = zplan->NumPhysicalNodes(config.num_processors);
    resize_slices = zplan->NumSlices(config.num_processors);
  }
  if (!config.control.empty()) {
    auto cplan = control::ControlPlan::Parse(config.control);
    if (!cplan.ok()) {
      return invalid("control spec: " + cplan.status().message());
    }
    if (cplan->empty()) {
      return invalid("control spec: a control plan needs an slo: item");
    }
    Status cs = cplan->Validate(config.num_processors,
                                config.warmup_ms + config.measure_ms);
    if (!cs.ok()) {
      return invalid("control spec: " + cs.message());
    }
    // The controller owns membership end to end; a scripted resize plan
    // would fight it for the same coordinator. Recovery assumes the closed
    // loop's pacing around rebuilds.
    if (!config.resize.empty()) {
      return invalid("a control spec cannot combine with a resize spec "
                     "(the controller owns membership)");
    }
    if (!config.recovery.empty()) {
      return invalid("a control spec cannot combine with a recovery spec");
    }
    physical_nodes =
        std::max(physical_nodes,
                 cplan->NumPhysicalNodes(config.num_processors));
  }
  if (!config.faults.empty()) {
    auto plan = sim::FaultPlan::Parse(config.faults);
    if (!plan.ok()) {
      return invalid("fault spec: " + plan.status().message());
    }
    // Events may target operator nodes only; catching this here (instead of
    // at System::Init inside a worker) fails the sweep before it starts.
    if (plan->max_node() >= physical_nodes) {
      return invalid("fault spec targets node " +
                     std::to_string(plan->max_node()) + " but only " +
                     std::to_string(physical_nodes) +
                     " operator nodes exist");
    }
    if (!config.recovery.empty()) {
      auto rplan = recover::RecoveryPlan::Parse(config.recovery);
      if (!rplan.ok()) {
        return invalid("recovery spec: " + rplan.status().message());
      }
      if (rplan->max_node() >= physical_nodes) {
        return invalid("recovery spec targets node " +
                       std::to_string(rplan->max_node()) + " but only " +
                       std::to_string(physical_nodes) +
                       " operator nodes exist");
      }
      // Rebuild reads the failed node's fragments from its chained backup,
      // which only exists with >= 2 operator nodes.
      if (config.num_processors < 2) {
        return invalid("recovery requires >= 2 operator nodes (chained "
                       "backups), got " +
                       std::to_string(config.num_processors));
      }
      Status against = rplan->ValidateAgainst(*plan);
      if (!against.ok()) {
        return invalid("recovery spec: " + against.message());
      }
    }
  } else if (!config.recovery.empty()) {
    return invalid(
        "recovery spec requires a fault spec (nothing to repair without a "
        "disk failure)");
  }
  if (!config.open.empty()) {
    auto oplan = workload::OpenPlan::Parse(config.open);
    if (!oplan.ok()) {
      return invalid("open spec: " + oplan.status().message());
    }
    const Status os = oplan->Validate();
    if (!os.ok()) {
      return invalid("open spec: " + os.message());
    }
    // The recovery coordinator assumes the closed loop's pacing (terminals
    // back off around failures); the open driver replaces that loop
    // entirely. Resize and control combine fine: arrivals keep coming
    // while slices migrate.
    if (!config.recovery.empty()) {
      return invalid("an open-system spec cannot combine with a recovery "
                     "spec");
    }
    // Extra relations keep one fragment per disk of the base relation's
    // physical nodes, so their partitionings cannot follow a resize plan's
    // larger logical slice count.
    if (!oplan->extra_relations().empty() && resize_slices > physical_nodes) {
      return invalid("an open-system spec with relation: items cannot "
                     "combine with a resize spec whose slice count (" +
                     std::to_string(resize_slices) + ") exceeds its " +
                     std::to_string(physical_nodes) + " physical nodes");
    }
    for (size_t i = 0; i < config.offered_loads.size(); ++i) {
      const double load = config.offered_loads[i];
      if (!(load > 0)) {  // also rejects NaN
        return invalid("every offered load must be > 0, got " +
                       std::to_string(load));
      }
      // A duplicate (or re-visited) load point would silently double-run
      // the level and skew aggregate reports; reject it like the fault
      // grammar rejects duplicate keys.
      for (size_t j = 0; j < i; ++j) {
        if (config.offered_loads[j] == load) {
          return invalid("duplicate offered load " + std::to_string(load) +
                         " (each --offered point runs once)");
        }
      }
    }
  } else if (!config.offered_loads.empty()) {
    return invalid("offered loads require an open spec (--open)");
  }
  return Status::OK();
}

Result<int> PartitioningSlices(const ExperimentConfig& config) {
  if (!config.control.empty()) {
    DECLUST_ASSIGN_OR_RETURN(const control::ControlPlan plan,
                             control::ControlPlan::Parse(config.control));
    return plan.NumSlices(config.num_processors);
  }
  if (config.resize.empty()) return config.num_processors;
  DECLUST_ASSIGN_OR_RETURN(const resize::ResizePlan plan,
                           resize::ResizePlan::Parse(config.resize));
  return plan.NumSlices(config.num_processors);
}

ExperimentConfig ApplyQuickMode(ExperimentConfig config) {
  if (std::getenv("DECLUST_QUICK") != nullptr) {
    config.cardinality = std::min<int64_t>(config.cardinality, 20'000);
    config.mpls = {1, 16, 64};
    config.warmup_ms = 1'000;
    config.measure_ms = 4'000;
  }
  return config;
}

Result<SweepResult> RunThroughputSweep(const ExperimentConfig& config) {
  // jobs = 0 resolves DECLUST_JOBS (default: serial); the runner's serial
  // and parallel paths produce byte-identical results.
  return RunThroughputSweep(config, RunnerOptions{});
}

}  // namespace declust::exp
