// Sweep-level open-system coverage: --open config validation, the offered-
// load level grid, the open CSV columns, format compatibility of closed
// runs, admission-cap shedding, and the determinism gate — byte-identical
// CSV across job counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/exp/experiment.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"

namespace declust::exp {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.name = "low-low";
  cfg.strategies = {"range"};
  cfg.mpls = {4};
  cfg.cardinality = 4'000;
  cfg.num_processors = 8;
  cfg.warmup_ms = 300;
  cfg.measure_ms = 4'000;
  cfg.repeats = 2;
  return cfg;
}

ExperimentConfig OpenConfig() {
  ExperimentConfig cfg = SmallConfig();
  // Two relations (4,000 + 2,000 tuples), Zipf-skewed access, a heavy
  // tail, and two offered-load levels.
  cfg.open = "rate:50;zipf:0.8;tail:p=0.05,x=5;relation:card=2000,weight=1";
  cfg.offered_loads = {30, 60};
  return cfg;
}

std::string CsvOf(const SweepResult& result) {
  std::ostringstream os;
  PrintCsv(os, result);
  return os.str();
}

TEST(OpenSweepTest, ValidationRejectsBadOpenConfigs) {
  ExperimentConfig cfg = SmallConfig();
  // Garbage spec.
  cfg.open = "rate:nope";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Syntactically fine but no arrival source.
  cfg.open = "zipf:1";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // The open driver replaces the closed loop the recovery coordinator
  // assumes; that combination is rejected up front. Resize (and the
  // control plane built on it) combine fine: arrivals keep coming while
  // slices migrate.
  cfg.open = "rate:50";
  cfg.resize = "add:node8@t=1s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
  cfg.resize.clear();
  cfg.faults = "disk:node2@t=800ms";
  cfg.recovery = "repair:node2@t=1400ms";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  cfg.faults.clear();
  cfg.recovery.clear();
  // Offered loads must be positive ...
  cfg.offered_loads = {30, 0};
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // ... and require an open spec to mean anything.
  cfg.open.clear();
  cfg.offered_loads = {30};
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  cfg.offered_loads.clear();
  cfg.open = "rate:50";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
}

TEST(OpenSweepTest, ValidationRejectsExtraRelationsUnderASlicedResize) {
  // Extra relations keep one fragment per physical disk, so a resize plan
  // whose slices:N exceeds its node count would fail every replication's
  // catalog build; validation refuses it before any input is built.
  ExperimentConfig cfg = SmallConfig();
  cfg.open = "rate:150;relation:card=5000,weight=1";
  cfg.resize = "slices:32;add:node8@t=1s;remove:node8@t=2s";
  const Status st = ValidateExperimentConfig(cfg);
  ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("open-system spec"), std::string::npos);
  EXPECT_NE(st.message().find("resize spec"), std::string::npos);
  EXPECT_TRUE(RunThroughputSweep(cfg, RunnerOptions{})
                  .status()
                  .IsInvalidArgument());
  // Either alone, or the pair without the slice override, is fine.
  cfg.resize = "add:node8@t=1s;remove:node8@t=2s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
  cfg.open = "rate:150";
  cfg.resize = "slices:32;add:node8@t=1s;remove:node8@t=2s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
}

TEST(OpenSweepTest, ClosedRunKeepsThePreOpenFormat) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(SmallConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  // No open columns leak into runs that never armed the subsystem.
  EXPECT_EQ(csv.find("offered_qps"), std::string::npos);
  EXPECT_EQ(csv.find("arrivals"), std::string::npos);
  EXPECT_EQ(csv.find("p99_response_ms"), std::string::npos);
}

TEST(OpenSweepTest, OpenRunSweepsTheOfferedLoadGrid) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(OpenConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  EXPECT_NE(csv.find("offered_qps"), std::string::npos);
  EXPECT_NE(csv.find("p99_response_ms"), std::string::npos);
  ASSERT_EQ(result->curves.size(), 1u);
  ASSERT_EQ(result->curves[0].points.size(), 2u);
  const SweepPoint& lo = result->curves[0].points[0];
  const SweepPoint& hi = result->curves[0].points[1];
  EXPECT_EQ(lo.offered_qps, 30.0);
  EXPECT_EQ(hi.offered_qps, 60.0);
  // Poisson arrivals at the offered rate over the measurement window.
  EXPECT_GT(lo.arrivals, 0);
  EXPECT_GT(hi.arrivals, lo.arrivals);
  EXPECT_GT(lo.completed, 0);
  // An 8-node machine absorbs 30 q/s of the low mix: the p99 is measured,
  // not blank.
  EXPECT_GE(lo.p99_response_ms, 0.0);
  EXPECT_GE(lo.p99_response_ms, lo.mean_response_ms);
}

TEST(OpenSweepTest, TinyAdmissionCapShedsArrivals) {
  ExperimentConfig cfg = SmallConfig();
  cfg.open = "rate:200;cap:2";
  cfg.repeats = 1;
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(cfg, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->curves[0].points.size(), 1u);
  const SweepPoint& p = result->curves[0].points[0];
  // 200 q/s against 2 admission slots: most arrivals are shed, counted,
  // and conservation still holds (arrivals = admitted + shed).
  EXPECT_GT(p.arrivals, 0);
  EXPECT_GT(p.shed, 0);
  EXPECT_LT(p.shed, p.arrivals);
  // Without --offered the plan's own schedule drives the run and the
  // effective offered rate is reported from the arrival count.
  EXPECT_GT(p.offered_qps, 0.0);
}

TEST(OpenSweepTest, OpenColumnsAreIdenticalAcrossJobCounts) {
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  auto a = RunThroughputSweep(OpenConfig(), serial);
  auto b = RunThroughputSweep(OpenConfig(), parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

TEST(OpenSweepTest, AuditedOpenRunIsCleanAndUnchanged) {
  ExperimentConfig cfg = OpenConfig();
  cfg.offered_loads = {30};
  RunnerOptions plain;
  plain.jobs = 1;
  RunnerOptions audited = plain;
  audited.audit = true;
  auto a = RunThroughputSweep(cfg, plain);
  auto b = RunThroughputSweep(cfg, audited);
  // Audit failures surface as a non-OK sweep; a clean audited run must
  // also leave every measurement untouched (audit only observes).
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

}  // namespace
}  // namespace declust::exp
