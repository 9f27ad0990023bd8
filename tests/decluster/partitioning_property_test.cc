// Property tests over ALL declustering strategies: invariants that any
// correct partitioning must satisfy regardless of strategy, processor
// count, or attribute correlation.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "src/common/random.h"
#include "src/exp/experiment.h"
#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

// gtest has no printer for Param, so the test list names each case by a
// byte dump of Param, which starts with the low byte of `strategy`. The
// strategy names live in one 256-aligned block so that byte does not move
// when the binary's layout changes; the offsets keep the listed names as
// they were when the names were plain string literals.
struct alignas(256) StrategyNames {
  char unused[0x86] = {};
  char range[6] = "range";  // 0x86
  char hash[5] = "hash";    // 0x8C
  char cmd[4] = "CMD";      // 0x91
  char berd[5] = "BERD";    // 0x95
  char magic[6] = "MAGIC";  // 0x9A
};
constexpr StrategyNames kNames{};

struct Param {
  const char* strategy;
  int num_nodes;
  double correlation;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string s = info.param.strategy;
  s += "_p" + std::to_string(info.param.num_nodes);
  s += info.param.correlation >= 0.5 ? "_hi" : "_lo";
  return s;
}

class PartitioningProperty : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    workload::WisconsinOptions o;
    o.cardinality = 5000;
    o.correlation = GetParam().correlation;
    o.seed = 97;
    rel_ = std::make_unique<storage::Relation>(workload::MakeWisconsin(o));
    auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                workload::ResourceClass::kModerate);
    auto part = exp::MakePartitioning(GetParam().strategy, *rel_, wl,
                                      GetParam().num_nodes);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    part_ = std::move(part).ValueOrDie();
  }

  std::unique_ptr<storage::Relation> rel_;
  std::unique_ptr<Partitioning> part_;
};

TEST_P(PartitioningProperty, EveryTupleAssignedToExactlyOneNode) {
  std::vector<bool> seen(static_cast<size_t>(rel_->cardinality()), false);
  int64_t total = 0;
  for (int node = 0; node < part_->num_nodes(); ++node) {
    for (RecordId rid : part_->node_records()[static_cast<size_t>(node)]) {
      ASSERT_LT(rid, rel_->cardinality());
      EXPECT_FALSE(seen[rid]) << "tuple on two nodes";
      seen[rid] = true;
      EXPECT_EQ(part_->NodeOf(rid), node);
      ++total;
    }
  }
  EXPECT_EQ(total, rel_->cardinality());
}

TEST_P(PartitioningProperty, SitesCoverAllQualifyingTuples) {
  // THE correctness invariant: for any predicate, the home node of every
  // qualifying tuple appears in the plan's data sites.
  RandomStream rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const int attr = trial % 2;
    Value lo = rng.UniformInt(0, 4900);
    Value hi = lo + rng.UniformInt(0, 200);
    const auto sites = part_->SitesFor({attr, lo, hi});
    std::set<int> site_set(sites.data_nodes.begin(),
                           sites.data_nodes.end());
    for (int64_t i = 0; i < rel_->cardinality(); ++i) {
      const auto rid = static_cast<RecordId>(i);
      const Value v = rel_->value(rid, attr);
      if (v >= lo && v <= hi) {
        ASSERT_TRUE(site_set.count(part_->NodeOf(rid)))
            << GetParam().strategy << " misses tuple " << i << " for attr "
            << attr << " range [" << lo << "," << hi << "]";
      }
    }
  }
}

TEST_P(PartitioningProperty, SitesAreValidNodeIds) {
  RandomStream rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const int attr = trial % 2;
    const Value lo = rng.UniformInt(0, 4999);
    const auto sites = part_->SitesFor({attr, lo, lo + 10});
    for (int n : sites.data_nodes) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, part_->num_nodes());
    }
    for (int n : sites.aux_nodes) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, part_->num_nodes());
    }
    // Sites are sorted and unique.
    EXPECT_TRUE(std::is_sorted(sites.data_nodes.begin(),
                               sites.data_nodes.end()));
    EXPECT_EQ(std::adjacent_find(sites.data_nodes.begin(),
                                 sites.data_nodes.end()),
              sites.data_nodes.end());
  }
}

TEST_P(PartitioningProperty, EmptyPredicateRangeYieldsNoFalsePositiveError) {
  // An inverted range must not crash and returns no or few sites.
  const auto sites = part_->SitesFor({0, 100, 50});
  for (int n : sites.data_nodes) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, part_->num_nodes());
  }
}

TEST_P(PartitioningProperty, PlanningCostIsNonNegative) {
  EXPECT_GE(part_->PlanningCpuMs({0, 10, 20}), 0.0);
  EXPECT_GE(part_->PlanningCpuMs({1, 0, 4999}), 0.0);
}

TEST_P(PartitioningProperty, InsertSitesAreValidAndIncludeDataHome) {
  RandomStream rng(8);
  const bool is_berd = std::string(GetParam().strategy) == "BERD";
  for (int trial = 0; trial < 20; ++trial) {
    // Values drawn from an existing tuple: the new tuple lands in a
    // populated fragment, so a subsequent exact-match query must reach it
    // (a tuple with novel values could land in a currently-empty MAGIC
    // cell, which the optimizer rightly skips until the catalog updates).
    const auto rid = static_cast<RecordId>(
        rng.UniformInt(0, rel_->cardinality() - 1));
    const std::vector<Value> values = {rel_->value(rid, 0),
                                       rel_->value(rid, 1)};
    const auto sites = part_->InsertSites(values);
    ASSERT_GE(sites.size(), 1u);
    // Only BERD's auxiliary relation adds a second site.
    EXPECT_LE(sites.size(), is_berd ? 2u : 1u);
    for (int n : sites) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, part_->num_nodes());
    }
    // Exact-match coverage: after a hypothetical insert, a point query on
    // attribute 0 for this value must route to a superset containing the
    // insert's data home.
    const auto q = part_->SitesFor({0, values[0], values[0]});
    std::set<int> q_set(q.data_nodes.begin(), q.data_nodes.end());
    bool home_covered = false;
    for (int n : sites) home_covered |= q_set.count(n) > 0;
    EXPECT_TRUE(home_covered) << GetParam().strategy;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PartitioningProperty,
    ::testing::Values(
        Param{kNames.range, 4, 0.0}, Param{kNames.range, 32, 1.0},
        Param{kNames.hash, 8, 0.0}, Param{kNames.hash, 32, 1.0},
        Param{kNames.cmd, 8, 0.0}, Param{kNames.cmd, 32, 1.0},
        Param{kNames.berd, 4, 0.0}, Param{kNames.berd, 32, 0.0},
        Param{kNames.berd, 32, 1.0}, Param{kNames.magic, 4, 0.0},
        Param{kNames.magic, 32, 0.0}, Param{kNames.magic, 32, 1.0},
        Param{kNames.magic, 7, 0.5}),
    ParamName);

}  // namespace
}  // namespace declust::decluster
