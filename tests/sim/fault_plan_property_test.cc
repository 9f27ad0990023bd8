// Property tests of the FaultPlan spec grammar: ToString/Parse is a
// fixed-point on canonical specs, and malformed specs (truncated,
// duplicated keys, garbage tokens, out-of-range rates) are rejected with
// InvalidArgument instead of being silently misread.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/sim/fault.h"

namespace declust::sim {
namespace {

/// Draws one syntactically valid event with integral-ms fields so the
/// canonical printer round-trips exactly.
std::string RandomEventSpec(RandomStream* rng) {
  const int kind = static_cast<int>(rng->UniformInt(0, 3));
  const int node = static_cast<int>(rng->UniformInt(0, 63));
  const int64_t at_ms = rng->UniformInt(0, 100'000);
  const int64_t dur_ms = rng->UniformInt(1, 50'000);
  const bool windowed = rng->Bernoulli(0.5);
  std::string s;
  switch (kind) {
    case 0:
      s = "disk:node" + std::to_string(node) + "@t=" + std::to_string(at_ms) +
          "ms";
      break;
    case 1: {
      // Rates from a small set that %g prints back verbatim.
      const char* rates[] = {"0.05", "0.5", "1", "0"};
      s = "io:node" + std::to_string(node) + "@t=" + std::to_string(at_ms) +
          "ms,rate=" + rates[rng->UniformInt(0, 3)];
      if (windowed) s += ",for=" + std::to_string(dur_ms) + "ms";
      break;
    }
    case 2: {
      const char* factors[] = {"2", "1.5", "10", "4"};
      s = "slow:node" + std::to_string(node) + "@t=" + std::to_string(at_ms) +
          "ms,x=" + factors[rng->UniformInt(0, 3)];
      if (windowed) s += ",for=" + std::to_string(dur_ms) + "ms";
      break;
    }
    default:
      s = "crash:node" + std::to_string(node) + "@t=" +
          std::to_string(at_ms) + "ms";
      if (windowed) s += ",down=" + std::to_string(dur_ms) + "ms";
      break;
  }
  return s;
}

TEST(FaultPlanPropertyTest, ParseToStringIsAFixedPoint) {
  RandomStream rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 6));
    std::string spec;
    for (int i = 0; i < n; ++i) {
      if (!spec.empty()) spec += ";";
      spec += RandomEventSpec(&rng);
    }
    auto p1 = FaultPlan::Parse(spec);
    ASSERT_TRUE(p1.ok()) << spec << ": " << p1.status().ToString();
    ASSERT_EQ(p1->events().size(), static_cast<size_t>(n)) << spec;
    const std::string canon = p1->ToString();
    auto p2 = FaultPlan::Parse(canon);
    ASSERT_TRUE(p2.ok()) << canon << ": " << p2.status().ToString();
    // Canonical form is a fixed point: parse(print(parse(s))) prints the
    // same string, and field-for-field the events agree.
    EXPECT_EQ(p2->ToString(), canon) << "original spec: " << spec;
    ASSERT_EQ(p2->events().size(), p1->events().size());
    for (size_t i = 0; i < p1->events().size(); ++i) {
      const FaultEvent& a = p1->events()[i];
      const FaultEvent& b = p2->events()[i];
      EXPECT_EQ(a.kind, b.kind) << spec;
      EXPECT_EQ(a.node, b.node) << spec;
      EXPECT_DOUBLE_EQ(a.at_ms, b.at_ms) << spec;
      EXPECT_DOUBLE_EQ(a.duration_ms, b.duration_ms) << spec;
      EXPECT_DOUBLE_EQ(a.rate, b.rate) << spec;
      EXPECT_DOUBLE_EQ(a.factor, b.factor) << spec;
    }
  }
}

TEST(FaultPlanPropertyTest, TruncationsOfAValidSpecAreRejectedOrDiffer) {
  // Every strict prefix of a spec either fails to parse or parses to a
  // different plan (fewer events, or a shortened final event) — a prefix
  // must never be misread as the full plan.
  const std::string spec =
      "disk:node3@t=5s;io:node7@t=100ms,rate=0.05,for=2s;"
      "slow:node1@t=0ms,x=4,for=1s;crash:node2@t=3s,down=500ms";
  auto full = FaultPlan::Parse(spec);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->events().size(), 4u);
  const std::string full_canon = full->ToString();
  for (size_t cut = 1; cut < spec.size(); ++cut) {
    auto p = FaultPlan::Parse(spec.substr(0, cut));
    if (p.ok()) {
      EXPECT_LE(p->events().size(), full->events().size())
          << "cut at " << cut;
      EXPECT_NE(p->ToString(), full_canon) << "cut at " << cut;
    } else {
      EXPECT_TRUE(p.status().IsInvalidArgument()) << "cut at " << cut;
    }
  }
}

TEST(FaultPlanPropertyTest, DuplicatedKeysAreRejected) {
  for (const char* bad : {
           "io:node1@t=1s,rate=0.1,rate=0.2",
           "slow:node0@t=0,x=2,x=3",
           "io:node0@t=0,rate=0.5,for=1s,for=2s",
           "crash:node0@t=1s,down=1s,down=2s",
           "disk:node0@t=1,t=2",
       }) {
    auto p = FaultPlan::Parse(bad);
    ASSERT_FALSE(p.ok()) << bad;
    EXPECT_TRUE(p.status().IsInvalidArgument()) << bad;
    EXPECT_NE(p.status().message().find("duplicate key"), std::string::npos)
        << p.status().ToString();
  }
}

TEST(FaultPlanPropertyTest, GarbageSpecsAreRejected) {
  for (const char* bad : {
           "florp:node0@t=0",          // unknown kind
           "disk:node@t=0",            // missing node index
           "disk:nodex@t=0",           // non-numeric node
           "disk:node0",               // missing @t
           "disk:node0@t=",            // empty time
           "disk:node0@t=5q",          // bad unit suffix
           "io:node0@t=0,rate=",       // empty value
           "io:node0@t=0,rate=2",      // rate outside [0, 1]
           "io:node0@t=0,rate=-0.1",   // rate outside [0, 1]
           "disk:node0@t=-5s",         // negative time
           "disk:node1@t=nan",         // non-finite time: would never fire
           "disk:node1@t=inf",         // non-finite time
           "disk:node1@t=1e400",       // overflows to inf
           "slow:node0@t=0,x=0.5",     // slow factor < 1
           "disk:node0@t=0,down=5",    // option of the wrong kind
       }) {
    auto p = FaultPlan::Parse(bad);
    ASSERT_FALSE(p.ok()) << bad;
    EXPECT_TRUE(p.status().IsInvalidArgument()) << bad;
  }
}

}  // namespace
}  // namespace declust::sim
