// Ablation of the processor-assignment heuristics: tiled latin-square
// assignment vs naive round robin (distinct processors per slice — the
// quantity that decides how many processors a MAGIC query touches), and the
// cost of the section-4 hill-climbing rebalancer, on correlated data and on
// the directory MAGIC builds for a 1M-tuple relation.
#include <benchmark/benchmark.h>

#include <iostream>

#include "src/decluster/assignment.h"
#include "src/decluster/magic.h"
#include "src/decluster/rebalance.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace {

using namespace declust;  // NOLINT(build/namespaces)

void BM_TiledAssignment(benchmark::State& state) {
  const std::vector<int> dims = {101, 91};
  for (auto _ : state) {
    auto a = decluster::TiledAssignment(dims, 32, {9.0, 9.0});
    benchmark::DoNotOptimize(a.ok());
  }
}
BENCHMARK(BM_TiledAssignment);

void BM_AnalyzeAssignment(benchmark::State& state) {
  const std::vector<int> dims = {101, 91};
  auto a = decluster::TiledAssignment(dims, 32, {9.0, 9.0});
  for (auto _ : state) {
    auto stats = decluster::AnalyzeAssignment(dims, *a, 32);
    benchmark::DoNotOptimize(stats.avg_distinct_nodes_per_slice[0]);
  }
}
BENCHMARK(BM_AnalyzeAssignment);

void BM_RebalanceDiagonal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> weights(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) weights[static_cast<size_t>(i) * n + i] = 100;
  auto base = decluster::TiledAssignment(dims, 32, {1.0, 1.0});
  for (auto _ : state) {
    auto assignment = *base;
    auto result =
        decluster::HillClimbRebalance(dims, weights, 32, &assignment, 200);
    benchmark::DoNotOptimize(result.spread_after);
  }
}
BENCHMARK(BM_RebalanceDiagonal)->Arg(32)->Arg(64);

// The climb MAGIC runs at 1M tuples: the low-low directory of an
// uncorrelated Wisconsin relation (249x249 cells), its tuple counts as cell
// weights, and the tiled assignment from the plan's M_i over 32 nodes. The
// argument is the restricted dimension (-1 = unrestricted), the two climbs
// MAGIC tries.
void BM_RebalanceMagicShape(benchmark::State& state) {
  struct Shape {
    std::vector<int> dims;
    std::vector<int64_t> weights;
    std::vector<int> tiled;
  };
  static const Shape shape = [] {
    workload::WisconsinOptions o;
    o.cardinality = 1'000'000;
    o.seed = 7;
    const storage::Relation rel = workload::MakeWisconsin(o);
    decluster::MagicOptions opts;
    opts.rebalance = false;
    auto part = decluster::MagicPartitioning::Create(
        rel, {0, 1},
        workload::MakeMix(workload::ResourceClass::kLow,
                          workload::ResourceClass::kLow),
        32, opts);
    const auto& magic = **part;
    return Shape{magic.grid().directory().dims(), magic.cell_weights(),
                 magic.cell_nodes()};
  }();
  const int restrict_to_dim = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto assignment = shape.tiled;
    auto result = decluster::HillClimbRebalance(
        shape.dims, shape.weights, 32, &assignment, 500, restrict_to_dim);
    benchmark::DoNotOptimize(result.spread_after);
  }
}
BENCHMARK(BM_RebalanceMagicShape)
    ->Arg(0)
    ->Arg(-1)
    ->Unit(benchmark::kMillisecond);

// Not a timing benchmark: prints the ablation table comparing tiled vs
// round-robin assignment quality on the paper's directory shapes.
void BM_QualityReport(benchmark::State& state) {
  for (auto _ : state) {
  }
  const struct {
    const char* mix;
    std::vector<int> dims;
    std::vector<double> mi;
  } cases[] = {
      {"low-low (62x61)", {62, 61}, {1, 1}},
      {"low-moderate (193x23)", {193, 23}, {1, 9}},
      {"moderate-moderate (101x91)", {101, 91}, {9, 9}},
  };
  std::cout << "\nAssignment quality (avg distinct processors per slice, "
               "dimension A / B):\n";
  for (const auto& c : cases) {
    auto tiled = decluster::TiledAssignment(c.dims, 32, c.mi);
    auto rr = decluster::RoundRobinAssignment(c.dims, 32);
    auto ts = decluster::AnalyzeAssignment(c.dims, *tiled, 32);
    auto rs = decluster::AnalyzeAssignment(c.dims, rr, 32);
    std::cout << "  " << c.mix << ": tiled "
              << ts.avg_distinct_nodes_per_slice[0] << " / "
              << ts.avg_distinct_nodes_per_slice[1] << ", round-robin "
              << rs.avg_distinct_nodes_per_slice[0] << " / "
              << rs.avg_distinct_nodes_per_slice[1] << "\n";
  }
  state.SetItemsProcessed(1);
}
BENCHMARK(BM_QualityReport)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
