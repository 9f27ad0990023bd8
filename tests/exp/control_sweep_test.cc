// Sweep-level control-plane coverage: --control config validation (and the
// duplicate --offered regression), machine sizing for the scale ceiling,
// the ctl_* CSV columns and per-decision timeline, controller-shed
// conservation under audit, format compatibility of unarmed runs, and the
// determinism gates — byte-identical CSV across job counts, with and
// without faults.
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
  cfg.num_processors = 4;
  cfg.warmup_ms = 300;
  cfg.measure_ms = 4'000;
  cfg.repeats = 1;
  return cfg;
}

ExperimentConfig ControlConfig() {
  ExperimentConfig cfg = SmallConfig();
  // An unmeetable 1 ms p95 bound: every window violates, so the controller
  // demonstrably acts (scale-out first) within the short horizon.
  cfg.control =
      "slo:p95<1ms,every=500ms,settle=2,cooldown=1s;"
      "scale:min=2,max=6;budget:frac=0.5";
  return cfg;
}

std::string CsvOf(const SweepResult& result) {
  std::ostringstream os;
  PrintCsv(os, result);
  return os.str();
}

TEST(ControlSweepTest, ValidationRejectsBadControlConfigs) {
  ExperimentConfig cfg = SmallConfig();
  // Garbage spec, and a plan with no slo: item.
  cfg.control = "slo:nope";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  cfg.control = "scale:min=2,max=6";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Default cadence (settle=3 x every=5s) cannot act inside the 4.3 s run.
  cfg.control = "slo:p95<40ms";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // Scale bounds must bracket the initial membership.
  cfg.control = "slo:p95<40ms,every=500ms,settle=2;scale:min=2,max=3";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  // The controller owns membership and assumes the open/closed drivers as
  // they are: scripted resize and recovery cannot combine with it.
  cfg = ControlConfig();
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
  cfg.resize = "add:node4@t=1s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  cfg.resize.clear();
  cfg.faults = "disk:node1@t=1s";
  cfg.recovery = "repair:node1@t=2s";
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
  cfg.recovery.clear();
  // Faults alone combine fine (the controller rides out the degradation).
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
}

TEST(ControlSweepTest, DuplicateOfferedLoadPointsAreRejected) {
  ExperimentConfig cfg = SmallConfig();
  cfg.open = "rate:50";
  cfg.offered_loads = {30, 60};
  EXPECT_TRUE(ValidateExperimentConfig(cfg).ok());
  // A duplicate point would double-run the level and skew aggregates.
  cfg.offered_loads = {30, 30};
  EXPECT_TRUE(ValidateExperimentConfig(cfg).IsInvalidArgument());
}

TEST(ControlSweepTest, PartitioningSlicesCoverTheScaleCeiling) {
  ExperimentConfig cfg = SmallConfig();
  auto slices = PartitioningSlices(cfg);
  ASSERT_TRUE(slices.ok());
  EXPECT_EQ(*slices, 4);
  cfg.control = "slo:p95<40ms,every=500ms,settle=2;scale:min=2,max=12";
  slices = PartitioningSlices(cfg);
  ASSERT_TRUE(slices.ok());
  EXPECT_EQ(*slices, 12);
}

TEST(ControlSweepTest, UnarmedRunKeepsThePreControlFormat) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(SmallConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  // No control columns leak into runs that never armed the subsystem.
  EXPECT_EQ(csv.find("ctl_"), std::string::npos);
}

TEST(ControlSweepTest, ControlRunCarriesColumnsCountersAndDecisions) {
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(ControlConfig(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string csv = CsvOf(*result);
  EXPECT_NE(csv.find("ctl_windows"), std::string::npos);
  EXPECT_NE(csv.find("ctl_budget_max_delay_ms"), std::string::npos);
  ASSERT_EQ(result->curves.size(), 1u);
  ASSERT_EQ(result->curves[0].points.size(), 1u);
  const SweepPoint& p = result->curves[0].points[0];
  EXPECT_GT(p.ctl_windows, 0);
  EXPECT_GT(p.ctl_slo_violations, 0);
  EXPECT_GE(p.ctl_scale_outs, 1);
  EXPECT_EQ(p.ctl_scale_ins, 0);  // constant overload: the hwm ratchet
  EXPECT_GT(p.ctl_final_members, 4);
  // Under unrelenting overload the ladder's next rung parks the scale-out
  // copy (its I/O contends with the very traffic under the SLO), so the
  // migration stays in flight instead of completing.
  EXPECT_GE(p.ctl_pauses, 1);
  // The representative (rep 0) decision timeline leads with scale-out, the
  // cheapest corrective action.
  ASSERT_FALSE(p.ctl_decisions.empty());
  EXPECT_EQ(p.ctl_decisions[0].kind, "scale_out");
  EXPECT_GT(p.ctl_decisions[0].at_ms, 0.0);
  EXPECT_GT(p.ctl_decisions[0].observed_ms, 1.0);
}

TEST(ControlSweepTest, ScaleInRunRecordsCompletedMigrations) {
  ExperimentConfig cfg = SmallConfig();
  // A bound the run can't miss: sustained recovery releases capacity, and
  // those evacuation migrations run to completion (nothing pauses them),
  // so the migration columns carry real counts.
  cfg.control =
      "slo:p95<3600s,every=500ms,settle=2,cooldown=500ms;scale:min=2,max=6";
  RunnerOptions opts;
  opts.jobs = 1;
  auto result = RunThroughputSweep(cfg, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SweepPoint& p = result->curves[0].points[0];
  EXPECT_GE(p.ctl_scale_ins, 1);
  EXPECT_EQ(p.ctl_slo_violations, 0);
  EXPECT_GE(p.ctl_migrations, 1);
  EXPECT_GT(p.ctl_pages_migrated, 0);
  EXPECT_LT(p.ctl_final_members, 4);
}

TEST(ControlSweepTest, ControllerShedsAreCountedAndConserved) {
  ExperimentConfig cfg = SmallConfig();
  // Overload an open system whose only relief valve is degradation: the
  // controller tightens admission below the plan cap and its sheds land in
  // their own class (ShedClass::kController) and column.
  cfg.open = "rate:200;cap:32";
  cfg.control =
      "slo:p95<1ms,every=500ms,settle=2,cooldown=500ms;"
      "degrade:floor=2,factor=0.25";
  RunnerOptions plain;
  plain.jobs = 1;
  RunnerOptions audited = plain;
  audited.audit = true;
  auto a = RunThroughputSweep(cfg, plain);
  auto b = RunThroughputSweep(cfg, audited);
  // A broken arrivals = submitted + shed identity (e.g. controller sheds
  // not reported per class) would fail the audited run.
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
  const SweepPoint& p = a->curves[0].points[0];
  EXPECT_GE(p.ctl_tightens, 1);
  EXPECT_GT(p.ctl_shed, 0);
  // Controller sheds are part of the total shed column, never extra.
  EXPECT_LE(p.ctl_shed, p.shed);
  EXPECT_GT(p.arrivals, 0);
}

TEST(ControlSweepTest, ControlColumnsAreIdenticalAcrossJobCounts) {
  ExperimentConfig cfg = ControlConfig();
  cfg.repeats = 2;
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  auto a = RunThroughputSweep(cfg, serial);
  auto b = RunThroughputSweep(cfg, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

TEST(ControlSweepTest, FaultArmedControlRunsAreIdenticalAcrossJobCounts) {
  // The controller riding out a mid-run disk fault is the hardest
  // interleaving: membership actions, failover retries and the observation
  // windows all race — and must still replay identically on any worker.
  ExperimentConfig cfg = ControlConfig();
  cfg.faults = "disk:node1@t=1s";
  cfg.repeats = 2;
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  auto a = RunThroughputSweep(cfg, serial);
  auto b = RunThroughputSweep(cfg, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // The fault fires inside the horizon: queries fail over to the backup.
  EXPECT_GT(a->curves[0].points[0].failovers, 0);
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

TEST(ControlSweepTest, AuditedControlRunIsCleanAndUnchanged) {
  RunnerOptions plain;
  plain.jobs = 1;
  RunnerOptions audited = plain;
  audited.audit = true;
  auto a = RunThroughputSweep(ControlConfig(), plain);
  auto b = RunThroughputSweep(ControlConfig(), audited);
  // Audit failures surface as a non-OK sweep; a clean audited run must
  // also leave every measurement untouched (audit only observes).
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(CsvOf(*a), CsvOf(*b));
}

}  // namespace
}  // namespace declust::exp
