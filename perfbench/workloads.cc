#include "perfbench/workloads.h"

#include <utility>

#include "src/control/plan.h"
#include "src/engine/system.h"
#include "src/resize/migrate.h"
#include "src/sim/simulation.h"
#include "src/workload/wisconsin.h"

namespace perfbench {

using declust::Result;
using declust::Status;
namespace exp = declust::exp;

namespace {

/// Figure 8's configuration (low-low mix, 100k tuples, 32 processors, all
/// three strategies, both correlations, the paper's simulated window) over
/// four of its nine MPLs, so the simulation takes most of the host time.
WorkloadSpec PaperSweep(uint64_t seed) {
  WorkloadSpec spec{"paper_sweep", {}};
  for (double corr : {0.0, 1.0}) {
    exp::ExperimentConfig cfg;
    cfg.name = corr == 0.0 ? "paper_sweep/corr=0" : "paper_sweep/corr=1";
    cfg.correlation = corr;
    cfg.mpls = {1, 16, 32, 64};
    cfg.seed = seed;
    spec.sweeps.push_back(cfg);
  }
  return spec;
}

/// A 1M-tuple relation over 32 processors, low correlation, a few MPL
/// points with short windows: setup (relation generation, MAGIC planning,
/// catalog builds) dominates the host time.
WorkloadSpec SetupHeavy(uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.name = "setup_heavy";
  cfg.cardinality = 1'000'000;
  cfg.mpls = {1, 16, 64};
  cfg.warmup_ms = 100;
  cfg.measure_ms = 500;
  cfg.seed = seed;
  return WorkloadSpec{"setup_heavy", {cfg}};
}

/// EXPERIMENTS.md "autoscaling under skew": Poisson arrivals with Zipf
/// skew offered just past the 8-member layout's knee, with the SLO
/// controller armed so it scales out through budgeted slice migrations
/// that copy pages while queries run.
WorkloadSpec ElasticSkew(uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.name = "elastic_skew";
  cfg.cardinality = 20'000;
  cfg.num_processors = 8;
  cfg.warmup_ms = 1'000;
  cfg.measure_ms = 120'000;
  cfg.open = "rate:150;zipf:0.3;cap:256";
  cfg.offered_loads = {26};
  cfg.control =
      "slo:p95<500ms,every=1s,settle=2,cooldown=3s,low=0.9;"
      "scale:min=8,max=12,step=2;budget:frac=0.4,concurrent=2;"
      "degrade:floor=8,factor=0.5";
  cfg.seed = seed;
  return WorkloadSpec{"elastic_skew", {cfg}};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_sweep", "setup_heavy",
                                                 "elastic_skew"};
  return names;
}

Result<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "paper_sweep") return PaperSweep(seed);
  if (name == "setup_heavy") return SetupHeavy(seed);
  if (name == "elastic_skew") return ElasticSkew(seed);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

Result<SweepInputs> BuildInputs(const exp::ExperimentConfig& config,
                                SpanLog* log, int parent) {
  declust::workload::WisconsinOptions wopts;
  wopts.cardinality = config.cardinality;
  wopts.correlation = config.correlation;
  wopts.seed = config.seed;
  auto relation = [&] {
    ScopedSpan span(log, "workload.relation", parent);
    return declust::workload::MakeWisconsin(wopts);
  }();
  auto mix = [&] {
    ScopedSpan span(log, "workload.mix", parent);
    return declust::workload::MakeMix(config.qa, config.qb, config.mix);
  }();
  SweepInputs inputs{std::move(relation), std::move(mix), {}};
  DECLUST_ASSIGN_OR_RETURN(const int slices, exp::PartitioningSlices(config));
  for (const std::string& strategy : config.strategies) {
    ScopedSpan span(log, "decluster." + strategy, parent);
    DECLUST_ASSIGN_OR_RETURN(
        auto part, exp::MakePartitioning(strategy, inputs.relation,
                                         inputs.mix, slices));
    inputs.parts.push_back(std::move(part));
  }
  return inputs;
}

Result<int64_t> BuildCatalog(const exp::ExperimentConfig& config,
                             const SweepInputs& inputs, size_t s) {
  declust::engine::SystemConfig sys_config;
  sys_config.hw.num_processors = config.num_processors;
  sys_config.seed = config.seed;
  std::unique_ptr<declust::resize::MigrationCoordinator> migrator;
  if (!config.control.empty()) {
    DECLUST_ASSIGN_OR_RETURN(
        const declust::control::ControlPlan plan,
        declust::control::ControlPlan::Parse(config.control));
    migrator = std::make_unique<declust::resize::MigrationCoordinator>(
        config.num_processors, plan.NumPhysicalNodes(config.num_processors),
        plan.NumSlices(config.num_processors));
    sys_config.hw.num_processors = migrator->num_physical_nodes();
    sys_config.resize = migrator.get();
  }
  declust::sim::Simulation sim;
  declust::engine::System system(&sim, sys_config, &inputs.relation,
                                 inputs.parts[s].get(), &inputs.mix);
  DECLUST_RETURN_NOT_OK(system.Init());
  return system.catalog().memory_bytes();
}

Result<PointCounts> RunClosedPoint(const exp::ExperimentConfig& config,
                                   const SweepInputs& inputs, size_t s,
                                   int mpl, int rep, SpanLog* log,
                                   int parent) {
  declust::engine::SystemConfig sys_config;
  sys_config.hw.num_processors = config.num_processors;
  sys_config.multiprogramming_level = mpl;
  // exp::RunSweepPointRep's per-replication seed.
  sys_config.seed = config.seed + static_cast<uint64_t>(mpl) * 1000 +
                    static_cast<uint64_t>(rep) * 7'919;
  const std::string& strategy = config.strategies[s];
  declust::sim::Simulation sim;
  const int catalog_span =
      log != nullptr ? log->Begin("engine.catalog." + strategy, parent) : -1;
  declust::engine::System system(&sim, sys_config, &inputs.relation,
                                 inputs.parts[s].get(), &inputs.mix);
  const Status init = system.Init();
  if (log != nullptr) log->End(catalog_span);
  DECLUST_RETURN_NOT_OK(init);

  PointCounts counts;
  declust::hw::Machine& machine = system.machine();
  const int nodes = config.num_processors;
  std::vector<double> disk_busy0(static_cast<size_t>(nodes));
  double cpu_busy0 = 0;
  {
    ScopedSpan run_span(log, "sim.run", parent);
    system.Start();
    sim.RunUntil(config.warmup_ms);
    system.metrics().StartMeasurement(sim.now());
    for (int n = 0; n < nodes; ++n) {
      disk_busy0[static_cast<size_t>(n)] = machine.node(n).disk().busy_ms();
      cpu_busy0 += machine.node(n).cpu().busy_ms();
    }
    sim.RunUntil(config.warmup_ms + config.measure_ms);
  }

  // The same window arithmetic as exp::RunSweepPointRep.
  double disk_busy_sum = 0, disk_busy_max = 0, cpu_busy1 = 0;
  for (int n = 0; n < nodes; ++n) {
    declust::hw::Node& node = machine.node(n);
    const double delta =
        node.disk().busy_ms() - disk_busy0[static_cast<size_t>(n)];
    disk_busy_sum += delta;
    disk_busy_max = std::max(disk_busy_max, delta);
    cpu_busy1 += node.cpu().busy_ms();
  }
  for (int n = 0; n < machine.num_nodes(); ++n) {
    declust::hw::Node& node = machine.node(n);
    counts.disk_ios += static_cast<int64_t>(node.disk().completed());
    counts.disk_sequential +=
        static_cast<int64_t>(node.disk().sequential_hits());
    counts.cpu_ops += static_cast<int64_t>(node.cpu().completed());
  }
  counts.net_packets = static_cast<int64_t>(machine.network().packets_sent());
  const double node_window = config.measure_ms * nodes;
  const double disk_busy_mean = disk_busy_sum / nodes;

  declust::engine::Metrics& metrics = system.metrics();
  exp::RepMetrics& m = counts.rep;
  m.throughput_qps = metrics.ThroughputQps(sim.now());
  m.mean_response_ms = metrics.response_ms().mean();
  m.p95_response_ms = metrics.ResponseQuantileMs(0.95);
  m.avg_processors_used = metrics.processors_used().mean();
  m.disk_utilization = disk_busy_sum / node_window;
  m.cpu_utilization = (cpu_busy1 - cpu_busy0) / node_window;
  m.completed = metrics.completed_in_window();
  m.disk_imbalance = disk_busy_mean > 0 ? disk_busy_max / disk_busy_mean : 0;
  m.failed_queries = metrics.faults().failed_queries;
  counts.events = static_cast<int64_t>(sim.events_dispatched());
  counts.peak_pending = static_cast<int64_t>(sim.peak_pending_events());
  return counts;
}

}  // namespace perfbench
