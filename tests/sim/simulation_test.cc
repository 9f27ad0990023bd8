#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/trigger.h"

namespace declust::sim {
namespace {

TEST(SimulationTest, StartsAtTimeZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0.0);
}

TEST(SimulationTest, CallbacksFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.ScheduleAt(5.0, [&] { order.push_back(2); });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(9.0, [&] { order.push_back(3); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 9.0);
}

TEST(SimulationTest, TiesFireInSchedulingOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(3.0, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  EventId id = s.ScheduleAt(2.0, [&] { fired = true; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // second cancel is a no-op
  s.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelAfterFireReturnsFalse) {
  Simulation s;
  EventId id = s.ScheduleAt(1.0, [] {});
  s.Run();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(SimulationTest, RunUntilStopsAtHorizon) {
  Simulation s;
  int count = 0;
  s.ScheduleAt(1.0, [&] { ++count; });
  s.ScheduleAt(2.0, [&] { ++count; });
  s.ScheduleAt(3.0, [&] { ++count; });
  s.RunUntil(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 2.0);
  // A second horizon past the last event fires it, then crosses the empty
  // stretch behind it and lands the clock on the horizon itself.
  s.RunUntil(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now(), 10.0);
  s.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulationTest, StopInterruptsRun) {
  Simulation s;
  int count = 0;
  s.ScheduleAt(1.0, [&] {
    ++count;
    s.Stop();
  });
  s.ScheduleAt(2.0, [&] { ++count; });
  s.Run();
  EXPECT_EQ(count, 1);
  s.ClearStop();
  s.Run();
  EXPECT_EQ(count, 2);
}

Task<> WaitTwice(Simulation* s, std::vector<double>* times) {
  co_await s->WaitFor(1.5);
  times->push_back(s->now());
  co_await s->WaitFor(2.5);
  times->push_back(s->now());
}

TEST(SimulationTest, ProcessDelays) {
  Simulation s;
  std::vector<double> times;
  s.Spawn(WaitTwice(&s, &times));
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.5);
  EXPECT_DOUBLE_EQ(times[1], 4.0);
}

TEST(SimulationTest, SpawnWithDelay) {
  Simulation s;
  std::vector<double> times;
  s.Spawn(WaitTwice(&s, &times), 10.0);
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 11.5);
}

Task<int> Compute(Simulation* s, int x) {
  co_await s->WaitFor(1.0);
  co_return x * 2;
}

Task<> Parent(Simulation* s, int* out) {
  int a = co_await Compute(s, 21);
  int b = co_await Compute(s, a);
  *out = b;
}

TEST(SimulationTest, NestedTasksReturnValues) {
  Simulation s;
  int out = 0;
  s.Spawn(Parent(&s, &out));
  s.Run();
  EXPECT_EQ(out, 84);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

Task<> WaitOn(Trigger* t, std::vector<int>* order, int id) {
  co_await t->Wait();
  order->push_back(id);
}

Task<> FireAt(Simulation* s, Trigger* t, double at) {
  co_await s->WaitFor(at);
  t->Fire();
}

TEST(TriggerTest, ReleasesAllWaiters) {
  Simulation s;
  Trigger t(&s);
  std::vector<int> order;
  s.Spawn(WaitOn(&t, &order, 1));
  s.Spawn(WaitOn(&t, &order, 2));
  s.Spawn(FireAt(&s, &t, 5.0));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_TRUE(t.fired());
}

TEST(TriggerTest, AwaitAfterFireIsImmediate) {
  Simulation s;
  Trigger t(&s);
  t.Fire();
  std::vector<int> order;
  s.Spawn(WaitOn(&t, &order, 7));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_EQ(s.now(), 0.0);
}

Task<> CountDownLater(Simulation* s, JoinCounter* j, double at) {
  co_await s->WaitFor(at);
  j->CountDown();
}

Task<> AwaitJoin(JoinCounter* j, Simulation* s, double* done_at) {
  co_await j->Wait();
  *done_at = s->now();
}

TEST(JoinCounterTest, FiresWhenAllArrive) {
  Simulation s;
  JoinCounter j(&s, 3);
  double done_at = -1;
  s.Spawn(AwaitJoin(&j, &s, &done_at));
  s.Spawn(CountDownLater(&s, &j, 1.0));
  s.Spawn(CountDownLater(&s, &j, 5.0));
  s.Spawn(CountDownLater(&s, &j, 3.0));
  s.Run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(JoinCounterTest, ZeroCountIsImmediatelyDone) {
  Simulation s;
  JoinCounter j(&s, 0);
  double done_at = -1;
  s.Spawn(AwaitJoin(&j, &s, &done_at));
  s.Run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

Task<> Forever(Simulation* s, int* iterations) {
  for (;;) {
    co_await s->WaitFor(1.0);
    ++(*iterations);
  }
}

TEST(SimulationTest, TeardownReclaimsLiveProcesses) {
  // A process that never finishes must not leak when the simulation is
  // destroyed (checked under ASAN builds; here we just exercise the path).
  int iterations = 0;
  {
    Simulation s;
    s.Spawn(Forever(&s, &iterations));
    s.RunUntil(10.0);
    EXPECT_EQ(iterations, 10);
  }
  EXPECT_EQ(iterations, 10);
}

TEST(SimulationTest, TracerSeesEveryDispatchedEvent) {
  Simulation s;
  std::vector<std::pair<double, bool>> trace;
  s.SetTracer([&](SimTime t, EventId, bool is_resume) {
    trace.emplace_back(t, is_resume);
  });
  s.ScheduleAt(1.0, [] {});
  std::vector<double> times;
  s.Spawn(WaitTwice(&s, &times));  // two coroutine resumptions + spawn
  s.Run();
  // 1 callback + 3 resumes (initial spawn + two delays).
  ASSERT_EQ(trace.size(), 4u);
  int resumes = 0;
  for (auto& [t, is_resume] : trace) {
    if (is_resume) ++resumes;
  }
  EXPECT_EQ(resumes, 3);
  // Trace times are non-decreasing.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].first, trace[i - 1].first);
  }
  // Disabling stops tracing.
  s.SetTracer(nullptr);
  s.ScheduleAt(10.0, [] {});
  s.Run();
  EXPECT_EQ(trace.size(), 4u);
}

TEST(SimulationTest, EventCounterAdvances) {
  Simulation s;
  s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  s.Run();
  EXPECT_EQ(s.events_dispatched(), 2u);
}

TEST(SimulationTest, PendingEventsTracksScheduleFireAndCancel) {
  Simulation s;
  EventId a = s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_TRUE(s.Cancel(a));
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulationTest, CancelFromInsideAnEventPreventsLaterEvent) {
  Simulation s;
  bool late_fired = false;
  EventId late = s.ScheduleAt(5.0, [&] { late_fired = true; });
  s.ScheduleAt(1.0, [&] { EXPECT_TRUE(s.Cancel(late)); });
  s.Run();
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(s.events_dispatched(), 1u);
}

TEST(SimulationTest, CancelledIdStaysDeadAfterSlotReuse) {
  // Freeing a cancelled event's slab slot and re-arming it for a new event
  // must not let the old id cancel (or otherwise affect) the new occupant.
  Simulation s;
  bool a_fired = false, b_fired = false;
  EventId a = s.ScheduleAt(1.0, [&] { a_fired = true; });
  EXPECT_TRUE(s.Cancel(a));
  EventId b = s.ScheduleAt(2.0, [&] { b_fired = true; });  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.Cancel(a));  // stale id
  s.Run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(SimulationTest, FiredIdDoesNotCancelSlotSuccessor) {
  Simulation s;
  EventId a = s.ScheduleAt(1.0, [] {});
  s.Run();
  bool b_fired = false;
  s.ScheduleAt(2.0, [&] { b_fired = true; });  // reuses a's slot
  EXPECT_FALSE(s.Cancel(a));
  s.Run();
  EXPECT_TRUE(b_fired);
}

TEST(SimulationTest, TeardownDestroysPendingSlabCallbacks) {
  // A simulation destroyed with events still pending must run the
  // destructors of their captured state (inline slab storage).
  auto token = std::make_shared<int>(42);
  {
    Simulation s;
    s.ScheduleAt(1.0, [token] { (void)*token; });
    s.ScheduleAt(2.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulationTest, TeardownDestroysPendingHeapCallbacks) {
  // Callables larger than the slab's inline buffer take the heap fallback;
  // those must be reclaimed at teardown too (checked under ASAN builds).
  auto token = std::make_shared<int>(7);
  struct Big {
    std::shared_ptr<int> p;
    double pad[16];
    void operator()() const { (void)*p; }
  };
  {
    Simulation s;
    s.ScheduleAt(1.0, Big{token, {}});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulationTest, OversizedCallbacksFireViaHeapFallback) {
  Simulation s;
  int sum = 0;
  struct Big {
    int* out;
    int vals[32];
    void operator()() const {
      for (int v : vals) *out += v;
    }
  };
  Big big{&sum, {}};
  for (int i = 0; i < 32; ++i) big.vals[i] = i;
  EventId id = s.ScheduleAt(1.0, big);
  EXPECT_GT(id, 0u);
  s.Run();
  EXPECT_EQ(sum, 31 * 32 / 2);
}

TEST(SimulationTest, CancelledEventsReleaseCapturedStateImmediately) {
  Simulation s;
  auto token = std::make_shared<int>(1);
  EventId id = s.ScheduleAt(1.0, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_EQ(token.use_count(), 1);  // destroyed at cancel, not at fire time
  s.Run();
}

TEST(SimulationTest, ManyInterleavedCancelsKeepTimeOrder) {
  // Lazy heap deletion must not disturb ordering of surviving events.
  Simulation s;
  std::vector<double> fired_at;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.ScheduleAt(static_cast<double>(100 - i),
                               [&fired_at, &s] { fired_at.push_back(s.now()); }));
  }
  for (size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(s.Cancel(ids[i]));
  s.Run();
  EXPECT_EQ(fired_at.size(), 50u);
  for (size_t i = 1; i < fired_at.size(); ++i) {
    EXPECT_LT(fired_at[i - 1], fired_at[i]);
  }
}

}  // namespace
}  // namespace declust::sim
