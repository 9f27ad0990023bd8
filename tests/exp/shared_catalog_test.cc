// One catalog set per (sweep, strategy): every replication of a strategy
// reads the same immutable catalogs, concurrently under --jobs, and a
// replication that migrates fragments builds its own. These tests pin that
// sharing changes no result: shared and standalone replications agree field
// for field, one replication's migrations never reach the next, and
// concurrent readers of one set match the serial sweep byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "src/exp/columns.h"
#include "src/exp/experiment.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/resize/migrate.h"
#include "src/sim/simulation.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

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
  cfg.repeats = 3;
  return cfg;
}

/// A replication as the run manifest digests it, plus the controller's
/// decision timeline, which no digest covers.
std::string Render(const ExperimentConfig& cfg, const SweepPoint& m) {
  SweepResult result;
  result.config = cfg;
  std::string out = PointDigestKey(result, cfg.strategies[0], m);
  for (const auto& d : m.ctl_decisions) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%s@%.17g", d.kind.c_str(), d.at_ms);
    out += buf;
  }
  return out;
}

/// Runs the config's reps of its one point in order against one shared set
/// (as the sweep does serially), each followed by a standalone replication
/// of the same rep; returns the shared reps' total migrations.
int64_t ExpectSharedRepsMatchStandalone(const ExperimentConfig& cfg) {
  workload::WisconsinOptions wopts;
  wopts.cardinality = cfg.cardinality;
  wopts.seed = cfg.seed;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl = workload::MakeMix(cfg.qa, cfg.qb, cfg.mix);
  const int slices = PartitioningSlices(cfg).ValueOrDie();
  const auto part =
      MakePartitioning(cfg.strategies[0], relation, wl, slices).ValueOrDie();

  SharedCatalogSet shared(cfg.repeats);
  int64_t migrations = 0;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    auto with_shared =
        RunSweepPointRep(cfg, relation, *part, wl, cfg.mpls[0], rep, nullptr,
                         nullptr, nullptr, nullptr, &shared);
    shared.Done();
    auto standalone =
        RunSweepPointRep(cfg, relation, *part, wl, cfg.mpls[0], rep);
    EXPECT_TRUE(with_shared.ok()) << with_shared.status().ToString();
    EXPECT_TRUE(standalone.ok()) << standalone.status().ToString();
    if (!with_shared.ok() || !standalone.ok()) return migrations;
    EXPECT_EQ(Render(cfg, *with_shared), Render(cfg, *standalone))
        << "rep " << rep;
    migrations += with_shared->migrations + with_shared->ctl_migrations;
  }
  return migrations;
}

TEST(SharedCatalogTest, ResizeRepsDoNotLeakMigrationsIntoEachOther) {
  ExperimentConfig cfg = SmallConfig();
  cfg.resize = "add:node8@t=800ms;remove:node8@t=2400ms";
  // Every rep migrates; were the shared set mutated, rep 1 would start
  // from rep 0's final placement.
  EXPECT_GE(ExpectSharedRepsMatchStandalone(cfg), 3);
}

TEST(SharedCatalogTest, ClosedControlRepsDoNotLeakMigrationsIntoEachOther) {
  ExperimentConfig cfg = SmallConfig();
  cfg.num_processors = 4;
  // A bound the run cannot miss: sustained recovery scales in, and those
  // evacuation migrations complete.
  cfg.control =
      "slo:p95<3600s,every=500ms,settle=2,cooldown=500ms;scale:min=2,max=6";
  EXPECT_GE(ExpectSharedRepsMatchStandalone(cfg), 3);
}

TEST(SharedCatalogTest, BuildsOnceAndSharesOneSet) {
  const ExperimentConfig cfg = SmallConfig();
  workload::WisconsinOptions wopts;
  wopts.cardinality = cfg.cardinality;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl = workload::MakeMix(cfg.qa, cfg.qb, cfg.mix);
  const auto part = MakePartitioning("range", relation, wl, 8).ValueOrDie();
  engine::SystemConfig sys;
  sys.hw.num_processors = 8;

  SharedCatalogSet shared(2);
  auto a = shared.Get(sys, relation, *part);
  sys.multiprogramming_level = 16;  // the level does not reach the catalog
  sys.seed = 99;
  auto b = shared.Get(sys, relation, *part);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->get(), b->get());
  shared.Done();
  shared.Done();
  // The last user dropped the sweep's reference; the holders keep theirs.
  EXPECT_EQ(a->use_count(), 2);
}

TEST(SharedCatalogTest, BuildFailureIsEveryAskersStatus) {
  const ExperimentConfig cfg = SmallConfig();
  workload::WisconsinOptions wopts;
  wopts.cardinality = cfg.cardinality;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl = workload::MakeMix(cfg.qa, cfg.qb, cfg.mix);
  const auto part = MakePartitioning("range", relation, wl, 8).ValueOrDie();
  engine::SystemConfig sys;
  sys.hw.num_processors = 8;
  sys.extra_relations.push_back({nullptr, nullptr});

  SharedCatalogSet shared(2);
  EXPECT_TRUE(shared.Get(sys, relation, *part).status().IsInvalidArgument());
  // The failure sticks even for an asker whose own config would build.
  sys.extra_relations.clear();
  EXPECT_TRUE(shared.Get(sys, relation, *part).status().IsInvalidArgument());
}

TEST(SharedCatalogTest, MigratingSystemRejectsASharedSet) {
  const ExperimentConfig cfg = SmallConfig();
  workload::WisconsinOptions wopts;
  wopts.cardinality = cfg.cardinality;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl = workload::MakeMix(cfg.qa, cfg.qb, cfg.mix);
  const auto part = MakePartitioning("range", relation, wl, 8).ValueOrDie();
  engine::SystemConfig sys;
  sys.hw.num_processors = 8;
  SharedCatalogSet shared(1);
  sys.catalogs = shared.Get(sys, relation, *part).ValueOrDie();

  // Migration writes the catalog, so a System that migrates must own it.
  resize::MigrationCoordinator migrator(8, 8, 8);
  sys.resize = &migrator;
  sim::Simulation sim;
  engine::System system(&sim, sys, &relation, part.get(), &wl);
  EXPECT_TRUE(system.Init().IsInvalidArgument());
}

TEST(SharedCatalogTest, ConcurrentReadersMatchTheSerialSweep) {
  // One strategy, so all eight replications read one catalog set at once.
  ExperimentConfig cfg = SmallConfig();
  cfg.strategies = {"BERD"};
  cfg.mpls = {1, 4, 8, 16};
  cfg.repeats = 2;
  cfg.correlation = 1.0;
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  auto a = RunThroughputSweep(cfg, serial);
  auto b = RunThroughputSweep(cfg, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  std::ostringstream csv_a, csv_b;
  PrintCsv(csv_a, *a);
  PrintCsv(csv_b, *b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_GT(a->curves[0].points.back().completed, 0);
}

}  // namespace
}  // namespace declust::exp
