// Golden placements: every rid's home under range, BERD and MAGIC, MAGIC's
// directory assignment, cell weights and rebalance outcome, and seeded
// hill-climb runs on large directories, pinned as FNV-1a digests. The setup
// path (sorts, grid-file buckets, rebalancer candidate evaluation) may be
// rewritten for speed, but each of these must stay bit for bit the same.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/decluster/assignment.h"
#include "src/decluster/berd.h"
#include "src/decluster/magic.h"
#include "src/decluster/range.h"
#include "src/decluster/rebalance.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

// FNV-1a over each value's eight little-endian bytes.
template <typename T>
uint64_t Digest(const std::vector<T>& values) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (T v : values) {
    auto u = static_cast<uint64_t>(static_cast<int64_t>(v));
    for (int i = 0; i < 8; ++i) {
      h ^= u & 0xFF;
      h *= 0x100000001b3ULL;
      u >>= 8;
    }
  }
  return h;
}

std::vector<int> Homes(const Partitioning& part, int64_t n) {
  std::vector<int> homes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    homes[static_cast<size_t>(i)] = part.NodeOf(static_cast<RecordId>(i));
  }
  return homes;
}

struct PlacementCase {
  double correlation;
  int num_nodes;
  uint64_t range_homes;
  uint64_t berd_homes;
  uint64_t magic_homes;
  uint64_t magic_cell_nodes;
  uint64_t magic_cell_weights;
  int swaps;
  int64_t spread_before;
  int64_t spread_after;
};

// 100k-tuple Wisconsin relation (seed 7), low-low mix, attributes {A, B}.
const PlacementCase kPlacements[] = {
    {0.0, 16,
     0x9abb96811aa082a5ULL, 0x9abb96811aa082a5ULL,
     0x1f1260e9f1a6c9e6ULL, 0x847c4af458a8696aULL,
     0xa5c79ea1f6c10119ULL, 11, 875, 12},
    {0.0, 32,
     0x3a050cd89154c585ULL, 0x3a050cd89154c585ULL,
     0xf2b58622d87a440aULL, 0xccc55f33f80d077aULL,
     0xa5c79ea1f6c10119ULL, 16, 593, 402},
    {0.5, 16,
     0x9abb96811aa082a5ULL, 0x9abb96811aa082a5ULL,
     0xa1f22a3796c783e7ULL, 0x808bead6b8913d27ULL,
     0xd1924ffd2b899213ULL, 126, 13605, 192},
    {0.5, 32,
     0x3a050cd89154c585ULL, 0x3a050cd89154c585ULL,
     0xe53370dc73965ecbULL, 0x00a6d54de05abce1ULL,
     0xd1924ffd2b899213ULL, 97, 7186, 449},
    {1.0, 16,
     0x9abb96811aa082a5ULL, 0x9abb96811aa082a5ULL,
     0x196a8277f78bce49ULL, 0x71f8dd599a625247ULL,
     0x9ab1f999b59f7a46ULL, 49, 23047, 3315},
    {1.0, 32,
     0x3a050cd89154c585ULL, 0x3a050cd89154c585ULL,
     0x1e752f59d4e6ce81ULL, 0x78a10ca06c24b7c1ULL,
     0x9ab1f999b59f7a46ULL, 60, 15625, 779},
};

TEST(PlacementGoldenTest, RangeBerdAndMagicPlacementsAreUnchanged) {
  const auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                    workload::ResourceClass::kLow);
  for (const PlacementCase& c : kPlacements) {
    SCOPED_TRACE(::testing::Message() << "correlation " << c.correlation
                                      << ", " << c.num_nodes << " nodes");
    workload::WisconsinOptions o;
    o.cardinality = 100'000;
    o.correlation = c.correlation;
    o.seed = 7;
    const storage::Relation rel = workload::MakeWisconsin(o);
    const int64_t n = rel.cardinality();

    auto range = RangePartitioning::Create(rel, {0, 1}, c.num_nodes);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(Digest(Homes(**range, n)), c.range_homes);

    auto berd = BerdPartitioning::Create(rel, {0, 1}, c.num_nodes);
    ASSERT_TRUE(berd.ok()) << berd.status().ToString();
    EXPECT_EQ(Digest(Homes(**berd, n)), c.berd_homes);

    auto magic = MagicPartitioning::Create(rel, {0, 1}, wl, c.num_nodes);
    ASSERT_TRUE(magic.ok()) << magic.status().ToString();
    const MagicPartitioning& m = **magic;
    EXPECT_EQ(Digest(Homes(m, n)), c.magic_homes);
    EXPECT_EQ(Digest(m.cell_nodes()), c.magic_cell_nodes);
    EXPECT_EQ(Digest(m.cell_weights()), c.magic_cell_weights);
    EXPECT_EQ(m.rebalance_result().swaps, c.swaps);
    EXPECT_EQ(m.rebalance_result().spread_before, c.spread_before);
    EXPECT_EQ(m.rebalance_result().spread_after, c.spread_after);
  }
}

struct ClimbCase {
  int side;  // square directory of side x side cells
  int restrict_to_dim;
  uint64_t assignment;
  int swaps;
  int64_t spread_before;
  int64_t spread_after;
};

// 32 nodes, tiled assignment, seeded random weights with most cells empty
// (as in a MAGIC directory). Sides above 48 slices take the rebalancer's
// targeted-candidate path.
const ClimbCase kClimbs[] = {
    {64, -1, 0xf12aca486d82e325ULL, 15, 467, 68},
    {64, 0, 0x2ef3e305997ea325ULL, 9, 467, 283},
    {249, -1, 0xd70a78086d704865ULL, 38, 2248, 87},
    {249, 0, 0x819ee598f4707fc5ULL, 36, 2248, 784},
};

TEST(PlacementGoldenTest, RandomWeightHillClimbsAreUnchanged) {
  constexpr int kNodes = 32;
  for (const ClimbCase& c : kClimbs) {
    SCOPED_TRACE(::testing::Message() << c.side << "x" << c.side
                                      << ", restrict " << c.restrict_to_dim);
    const std::vector<int> dims = {c.side, c.side};
    RandomStream rng(static_cast<uint64_t>(c.side) * 1000 + 17);
    std::vector<int64_t> w(static_cast<size_t>(c.side) * c.side);
    for (auto& x : w) x = rng.UniformInt(0, 3) == 0 ? rng.UniformInt(1, 40) : 0;
    auto tiled = TiledAssignment(dims, kNodes, {1.0, 1.0});
    ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();
    std::vector<int> assignment = *tiled;
    const RebalanceResult r = HillClimbRebalance(
        dims, w, kNodes, &assignment, /*max_swaps=*/500, c.restrict_to_dim);
    EXPECT_EQ(Digest(assignment), c.assignment);
    EXPECT_EQ(r.swaps, c.swaps);
    EXPECT_EQ(r.spread_before, c.spread_before);
    EXPECT_EQ(r.spread_after, c.spread_after);
  }
}

}  // namespace
}  // namespace declust::decluster
