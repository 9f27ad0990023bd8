// The benchmark's workloads and the layer calls it times: the setup phase
// (relation, mix, partitionings, one catalog build per strategy), the
// untraced sweep, and the traced per-point driver built from public calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/traced.h"
#include "src/common/result.h"
#include "src/decluster/strategy.h"
#include "src/exp/experiment.h"
#include "src/exp/runner.h"
#include "src/storage/relation.h"
#include "src/workload/mixes.h"

namespace perfbench {

/// The seed whose sweep digests are stored in reference_digests.json.
inline constexpr uint64_t kReferenceSeed = 7;

/// \brief One workload: the sweeps it runs, in order, all serial.
struct WorkloadSpec {
  std::string name;
  std::vector<declust::exp::ExperimentConfig> sweeps;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` with `seed` passed into every sweep's
/// ExperimentConfig::seed; InvalidArgument for an unknown name.
declust::Result<WorkloadSpec> MakeWorkload(const std::string& name,
                                           uint64_t seed);

/// \brief Shared read-only inputs of one sweep, built the way
/// exp::RunThroughputSweep builds its own.
struct SweepInputs {
  declust::storage::Relation relation;
  declust::workload::Workload mix;
  /// One partitioning per ExperimentConfig::strategies entry.
  std::vector<std::unique_ptr<declust::decluster::Partitioning>> parts;
};

/// Builds a sweep's inputs. `log` (nullable) receives one span per layer
/// call under `parent`: workload.relation, workload.mix, decluster.<name>.
declust::Result<SweepInputs> BuildInputs(
    const declust::exp::ExperimentConfig& config, SpanLog* log = nullptr,
    int parent = -1);

/// Constructs one engine::System over strategy `s` of `inputs` and runs
/// Init(), which builds the engine catalog; returns the catalog's index
/// bytes. A control config gets the plan-less migration coordinator the
/// runner arms, so the catalog covers the same slices and nodes.
declust::Result<int64_t> BuildCatalog(
    const declust::exp::ExperimentConfig& config, const SweepInputs& inputs,
    size_t s);

/// \brief What one traced closed-loop point measured.
struct PointCounts {
  /// The fields exp::RunSweepPointRep reports for the same point
  /// (throughput, responses, utilisations, completions, faults).
  declust::exp::RepMetrics rep;
  int64_t events = 0;        ///< calendar events dispatched
  int64_t peak_pending = 0;  ///< calendar high-water mark
  int64_t disk_ios = 0;
  int64_t disk_sequential = 0;
  int64_t cpu_ops = 0;
  int64_t net_packets = 0;
};

/// Runs one closed-loop replication from public calls — sim::Simulation,
/// engine::System constructor, Init, Start, RunUntil — with the seed and
/// measurement window exp::RunSweepPointRep uses, so the two agree. Spans
/// (nullable `log`): engine.catalog.<strategy> around construction plus
/// Init, sim.run around Start and both RunUntil calls.
declust::Result<PointCounts> RunClosedPoint(
    const declust::exp::ExperimentConfig& config, const SweepInputs& inputs,
    size_t s, int mpl, int rep, SpanLog* log = nullptr, int parent = -1);

}  // namespace perfbench
