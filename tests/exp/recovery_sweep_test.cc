// Sweep-level recovery coverage: the --recovery experiment's per-phase
// columns, format compatibility of failure-free runs, job-count
// determinism of the recovery columns, and the crash-safe interrupt path
// (complete points only + `interrupted` manifest marker).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/exp/experiment.h"
#include "src/exp/interrupt.h"
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

ExperimentConfig RecoveryConfig() {
  ExperimentConfig cfg = SmallConfig();
  cfg.faults = "disk:node2@t=800ms";
  cfg.recovery = "repair:node2@t=1400ms";
  return cfg;
}

std::string CsvOf(const SweepResult& result) {
  std::ostringstream os;
  PrintCsv(os, result);
  return os.str();
}

TEST(RecoverySweepTest, ValidationRequiresAMatchingFaultPlan) {
  ExperimentConfig cfg = SmallConfig();
  cfg.recovery = "repair:node2@t=1400ms";
  // Recovery without any fault plan is meaningless.
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Repair of a node whose disk never fails.
  cfg.faults = "disk:node3@t=800ms";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Repair of a node outside the machine.
  cfg.faults = "disk:node2@t=800ms";
  cfg.recovery = "repair:node99@t=1400ms";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // The matching pair is accepted.
  cfg.recovery = "repair:node2@t=1400ms";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
}

TEST(RecoverySweepTest, FailureFreeCsvKeepsThePreRecoveryFormat) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(SmallConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  // No recovery columns leak into runs that never armed the subsystem.
  EXPECT_EQ(csv.find("fail_ms"), std::string::npos);
  EXPECT_EQ(csv.find("degraded_qps"), std::string::npos);
}

TEST(RecoverySweepTest, RecoveryRunCarriesPhaseColumnsAndBoundaries) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(RecoveryConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  EXPECT_NE(csv.find("fail_ms"), std::string::npos);
  EXPECT_NE(csv.find("rebuilding_qps"), std::string::npos);
  EXPECT_NE(csv.find("restored_resp_ms"), std::string::npos);
  ASSERT_EQ(result->curves.size(), 1u);
  ASSERT_EQ(result->curves[0].points.size(), 1u);
  const SweepPoint& p = result->curves[0].points[0];
  EXPECT_DOUBLE_EQ(p.fail_ms, 800.0);
  EXPECT_DOUBLE_EQ(p.rebuild_start_ms, 1'400.0);
  EXPECT_GT(p.restored_ms, p.rebuild_start_ms);
  EXPECT_GT(p.rebuild_pages, 0);
  EXPECT_EQ(p.rebuilds_completed, 1);
  EXPECT_EQ(p.rebuilds_aborted, 0);
  EXPECT_GT(p.phase_qps[0], 0);
  EXPECT_GT(p.phase_qps[3], 0);
}

TEST(RecoverySweepTest, RecoveryColumnsAreIdenticalAcrossJobCounts) {
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  auto a = RunThroughputSweep(RecoveryConfig(), serial);
  auto b = RunThroughputSweep(RecoveryConfig(), parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

TEST(RecoverySweepTest, InterruptFlushesOnlyCompletePointsAndMarksManifest) {
  const std::string manifest_path =
      testing::TempDir() + "/declust_interrupted_manifest.json";
  std::remove(manifest_path.c_str());
  RunnerOptions opts;
  opts.jobs = 1;
  opts.manifest_path = manifest_path;
  // The interrupt is already pending when the sweep starts, so every
  // replication is skipped: the result must still assemble (rectangular,
  // zero complete points), carry the interrupted flag, and the manifest
  // must land complete with the marker — never a truncated file.
  RequestInterrupt();
  auto result = RunThroughputSweep(SmallConfig(), opts);
  ClearInterrupt();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->interrupted);
  for (const auto& curve : result->curves) {
    EXPECT_TRUE(curve.points.empty());
  }
  std::ifstream in(manifest_path);
  ASSERT_TRUE(in.good()) << manifest_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string manifest = buffer.str();
  EXPECT_NE(manifest.find("\"interrupted\": true"), std::string::npos)
      << manifest;
  std::remove(manifest_path.c_str());
}

TEST(RecoverySweepTest, UninterruptedRunsCarryNoMarker) {
  const std::string manifest_path =
      testing::TempDir() + "/declust_clean_manifest.json";
  std::remove(manifest_path.c_str());
  RunnerOptions opts;
  opts.jobs = 1;
  opts.manifest_path = manifest_path;
  auto result = RunThroughputSweep(SmallConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->interrupted);
  std::ifstream in(manifest_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str().find("interrupted"), std::string::npos);
  std::remove(manifest_path.c_str());
}

}  // namespace
}  // namespace declust::exp
