// Self-tests of the benchmark: names follow the contract, the generated
// inputs are a pure function of the seed, and the traced driver reproduces
// the runner point for point.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "perfbench/workloads.h"
#include "src/obs/manifest.h"

namespace perfbench {
namespace {

namespace exp = declust::exp;

/// FNV-1a digest of every attribute value of every tuple, in record order.
uint64_t RelationDigest(const declust::storage::Relation& relation) {
  const int arity = relation.schema().num_attributes();
  std::string bytes;
  bytes.reserve(static_cast<size_t>(relation.cardinality()) *
                static_cast<size_t>(arity) * sizeof(declust::storage::Value));
  for (int64_t r = 0; r < relation.cardinality(); ++r) {
    for (int a = 0; a < arity; ++a) {
      const declust::storage::Value v = relation.value(
          static_cast<declust::storage::RecordId>(r),
          static_cast<declust::storage::AttrId>(a));
      char buf[sizeof(v)];
      std::memcpy(buf, &v, sizeof(v));
      bytes.append(buf, sizeof(v));
    }
  }
  return declust::obs::Fnv1a64(bytes);
}

std::string ReadBenchmarkJson() {
  std::ifstream in(PERFBENCH_ROOT "/BENCHMARK.json");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// True when `name` matches [A-Za-z0-9_.-]+.
bool WellFormed(const std::string& name) {
  return !name.empty() &&
         std::all_of(name.begin(), name.end(), [](unsigned char c) {
           return std::isalnum(c) || c == '_' || c == '.' || c == '-';
         });
}

TEST(PerfbenchNames, EveryWorkloadAndMetricNameIsWellFormed) {
  const std::string json = ReadBenchmarkJson();
  ASSERT_FALSE(json.empty());
  const std::string field = "\"name\": \"";
  std::set<std::string> names;
  for (size_t at = json.find(field); at != std::string::npos;
       at = json.find(field, at + 1)) {
    const size_t begin = at + field.size();
    const std::string name = json.substr(begin, json.find('"', begin) - begin);
    EXPECT_TRUE(WellFormed(name)) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_GT(names.size(), WorkloadNames().size());
  for (const std::string& workload : WorkloadNames()) {
    EXPECT_TRUE(WellFormed(workload)) << workload;
    EXPECT_EQ(names.count(workload), 1u) << workload << " not in the JSON";
    EXPECT_TRUE(MakeWorkload(workload, kReferenceSeed).ok()) << workload;
  }
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1).ok());
}

/// A small closed-loop config shaped like paper_sweep's.
exp::ExperimentConfig SmallClosed(uint64_t seed) {
  auto spec = MakeWorkload("paper_sweep", seed);
  EXPECT_TRUE(spec.ok());
  exp::ExperimentConfig config = spec->sweeps.front();
  config.cardinality = 20'000;
  config.warmup_ms = 500;
  config.measure_ms = 1'500;
  return config;
}

TEST(PerfbenchInputs, SeedChangesTheRelationDigest) {
  auto a = BuildInputs(SmallClosed(7));
  auto b = BuildInputs(SmallClosed(8));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(RelationDigest(a->relation), RelationDigest(b->relation));
}

TEST(PerfbenchInputs, SameSeedRepeatsTheRelationByteForByte) {
  auto a = BuildInputs(SmallClosed(11));
  auto b = BuildInputs(SmallClosed(11));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->relation.cardinality(), b->relation.cardinality());
  const int arity = a->relation.schema().num_attributes();
  ASSERT_EQ(arity, b->relation.schema().num_attributes());
  for (int64_t r = 0; r < a->relation.cardinality(); ++r) {
    const auto rid = static_cast<declust::storage::RecordId>(r);
    for (int attr = 0; attr < arity; ++attr) {
      ASSERT_EQ(a->relation.value(rid, attr), b->relation.value(rid, attr))
          << "record " << r << " attribute " << attr;
    }
  }
  EXPECT_EQ(RelationDigest(a->relation), RelationDigest(b->relation));
}

TEST(PerfbenchTraced, ClosedPointMatchesRunSweepPointRep) {
  const exp::ExperimentConfig config = SmallClosed(7);
  auto inputs = BuildInputs(config);
  ASSERT_TRUE(inputs.ok());
  for (size_t s = 0; s < config.strategies.size(); ++s) {
    for (int rep : {0, 1}) {
      SpanLog log;
      auto traced = RunClosedPoint(config, *inputs, s, 16, rep, &log);
      auto runner = exp::RunSweepPointRep(config, inputs->relation,
                                          *inputs->parts[s], inputs->mix, 16,
                                          rep);
      ASSERT_TRUE(traced.ok() && runner.ok()) << config.strategies[s];
      const exp::RepMetrics& t = traced->rep;
      EXPECT_GT(t.completed, 0);
      EXPECT_EQ(t.completed, runner->completed);
      EXPECT_EQ(t.throughput_qps, runner->throughput_qps);
      EXPECT_EQ(t.p95_response_ms, runner->p95_response_ms);
      EXPECT_EQ(t.mean_response_ms, runner->mean_response_ms);
      EXPECT_EQ(t.disk_utilization, runner->disk_utilization);
      EXPECT_EQ(t.cpu_utilization, runner->cpu_utilization);
      EXPECT_EQ(t.disk_imbalance, runner->disk_imbalance);
      // The catalog build and the run are separate spans.
      ASSERT_EQ(log.spans().size(), 2u);
      EXPECT_EQ(log.spans()[0].name, "engine.catalog." + config.strategies[s]);
      EXPECT_EQ(log.spans()[1].name, "sim.run");
    }
  }
}

}  // namespace
}  // namespace perfbench
