// SmallFn small-buffer-optimisation coverage: the calendar stays
// allocation-free only while every hot-path callable fits the inline
// buffer. These static_asserts turn an accidental capture-set growth (which
// would silently re-introduce a heap round-trip per event) into a compile
// error pointing here.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/sim/simulation.h"

namespace declust::sim {
namespace {

using detail::SmallFn;

// The shapes the hardware models actually schedule (src/hw/disk.cc,
// cpu.cc, network.cc): a single `this` capture.
struct FakeDevice {
  void OnComplete() {}
};
inline auto DeviceCallback(FakeDevice* d) {
  return [d] { d->OnComplete(); };
}
static_assert(SmallFn::FitsInline<decltype(DeviceCallback(nullptr))>(),
              "hw model completion callbacks must take the SBO path");

// Coroutine resumption — what ScheduleResume enqueues.
static_assert(SmallFn::FitsInline<
                  decltype([h = std::coroutine_handle<>{}] { h.resume(); })>(),
              "coroutine resume thunks must take the SBO path");

// Four pointers plus a double — the largest capture set in the tree today
// (engine completion paths). 4*8 + 8 = 40 bytes <= 64.
static_assert(SmallFn::FitsInline<decltype([a = (void*)nullptr,
                                            b = (void*)nullptr,
                                            c = (void*)nullptr,
                                            d = (void*)nullptr,
                                            t = 0.0] {
                (void)a;
                (void)b;
                (void)c;
                (void)d;
                (void)t;
              })>(),
              "four-pointer + time captures must take the SBO path");

// Exactly at the boundary: a 64-byte trivially-movable payload fits...
struct Exactly64 {
  char bytes[64];
  void operator()() const {}
};
static_assert(sizeof(Exactly64) == SmallFn::kInlineBytes);
static_assert(SmallFn::FitsInline<Exactly64>());

// ...one byte over does not (falls back to the heap, still correct).
struct Over64 {
  char bytes[65];
  void operator()() const {}
};
static_assert(!SmallFn::FitsInline<Over64>());

// A throwing move constructor forces the heap path regardless of size —
// relocation inside the calendar's slab must be noexcept.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};
static_assert(!SmallFn::FitsInline<ThrowingMove>());

// std::function itself is within budget on this ABI; documenting the fact
// keeps anyone from "simplifying" SmallFn away without noticing the double
// indirection it would add.
static_assert(sizeof(std::function<void()>) <= SmallFn::kInlineBytes);

TEST(SboFitTest, InlineCallableInvokes) {
  SmallFn fn;
  int hits = 0;
  fn.Emplace([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn.Invoke();
  EXPECT_EQ(hits, 1);
}

TEST(SboFitTest, MoveTransfersOwnershipOfInlineState) {
  SmallFn a;
  int sum = 0;
  a.Emplace([&sum, add = 41] { sum += add; });
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b.Invoke();
  EXPECT_EQ(sum, 41);
}

TEST(SboFitTest, HeapFallbackStillWorks) {
  SmallFn fn;
  Over64 big;
  big.bytes[64] = 1;
  int sink = 0;
  fn.Emplace([big, &sink] { sink = big.bytes[64]; });
  fn.Invoke();
  EXPECT_EQ(sink, 1);
}

TEST(SboFitTest, DestructorRunsForInlineCaptures) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    SmallFn fn;
    fn.Emplace([t = std::move(token)] { (void)t; });
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace declust::sim
