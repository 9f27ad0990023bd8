// Sweep-level elastic-membership coverage: --resize config validation, the
// per-phase CSV columns, format compatibility of static-membership runs,
// and the differential determinism gates — byte-identical CSV across job
// counts and across repeated runs of the same seed.
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

ExperimentConfig ResizeConfig() {
  ExperimentConfig cfg = SmallConfig();
  cfg.resize = "add:node8@t=800ms;remove:node8@t=2400ms";
  return cfg;
}

std::string CsvOf(const SweepResult& result) {
  std::ostringstream os;
  PrintCsv(os, result);
  return os.str();
}

TEST(ResizeSweepTest, ValidationRejectsBadResizeConfigs) {
  ExperimentConfig cfg = SmallConfig();
  // Garbage spec.
  cfg.resize = "add:node8@t=1s garbage";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Timeline bugs: re-adding a current member.
  cfg.resize = "add:node3@t=1s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Faults may target nodes the plan adds — but not beyond the enlarged
  // machine.
  cfg.resize = "add:node8@t=1s";
  cfg.faults = "disk:node8@t=2s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
  cfg.faults = "disk:node9@t=2s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  cfg.faults.clear();
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
}

TEST(ResizeSweepTest, PartitioningSlicesFollowsThePlan) {
  ExperimentConfig cfg = SmallConfig();
  auto slices = PartitioningSlices(cfg);
  ASSERT_TRUE(slices.ok());
  EXPECT_EQ(*slices, 8);
  cfg.resize = "add:node8-11@t=1s";
  slices = PartitioningSlices(cfg);
  ASSERT_TRUE(slices.ok());
  EXPECT_EQ(*slices, 12);
  cfg.resize = "slices:32;add:node8@t=1s";
  slices = PartitioningSlices(cfg);
  ASSERT_TRUE(slices.ok());
  EXPECT_EQ(*slices, 32);
}

TEST(ResizeSweepTest, StaticMembershipCsvKeepsThePreResizeFormat) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(SmallConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  // No resize columns leak into runs that never armed the subsystem.
  EXPECT_EQ(csv.find("rz_phase"), std::string::npos);
  EXPECT_EQ(csv.find("migrations"), std::string::npos);
  EXPECT_EQ(csv.find("final_members"), std::string::npos);
}

TEST(ResizeSweepTest, ResizeRunCarriesPhaseColumnsAndCounters) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(ResizeConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  EXPECT_NE(csv.find("migrations"), std::string::npos);
  EXPECT_NE(csv.find("final_members"), std::string::npos);
  EXPECT_NE(csv.find("rz_phase0_qps"), std::string::npos);
  EXPECT_NE(csv.find("rz_phase4_resp_ms"), std::string::npos);
  ASSERT_EQ(result->curves.size(), 1u);
  ASSERT_EQ(result->curves[0].points.size(), 1u);
  const SweepPoint& p = result->curves[0].points[0];
  // K = 2 membership events -> 5 phases; the node bounced out and back, so
  // its slice migrated out and home again.
  ASSERT_EQ(p.resize_phase_qps.size(), 5u);
  ASSERT_EQ(p.resize_phase_resp_ms.size(), 5u);
  EXPECT_GT(p.resize_phase_qps[0], 0);
  EXPECT_GT(p.resize_phase_qps[4], 0);
  EXPECT_GE(p.migrations, 1);
  EXPECT_GT(p.pages_migrated, 0);
  EXPECT_EQ(p.migrations_aborted, 0);
  EXPECT_EQ(p.final_members, 8);
}

TEST(ResizeSweepTest, ResizeColumnsAreIdenticalAcrossJobCounts) {
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  auto a = RunThroughputSweep(ResizeConfig(), serial);
  auto b = RunThroughputSweep(ResizeConfig(), parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

TEST(ResizeSweepTest, RepeatedRunsAreByteIdentical) {
  RunnerOptions opts;
  opts.jobs = 2;
  auto a = RunThroughputSweep(ResizeConfig(), opts);
  auto b = RunThroughputSweep(ResizeConfig(), opts);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

}  // namespace
}  // namespace declust::exp
