#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace kmsg::sim {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule_after(Duration::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().as_nanos(), Duration::millis(30).as_nanos());
}

TEST(SimulatorTest, SameTimeFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock) {
  Simulator sim;
  TimePoint inner_time;
  sim.schedule_after(Duration::millis(1), [&] {
    sim.schedule_after(Duration::millis(2), [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time.as_nanos(), Duration::millis(3).as_nanos());
}

TEST(SimulatorTest, SchedulingInPastClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(Duration::millis(5), [&] {
    sim.schedule_at(TimePoint::zero(), [&] {
      ran = true;
      EXPECT_EQ(sim.now().as_nanos(), Duration::millis(5).as_nanos());
    });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto h = sim.schedule_after(Duration::millis(1), [&] { ran = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(h.cancelled());
}

TEST(SimulatorTest, CancelAfterRunIsNoop) {
  Simulator sim;
  int count = 0;
  auto h = sim.schedule_after(Duration::millis(1), [&] { ++count; });
  sim.run();
  h.cancel();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, RunUntilStopsAndAdvances) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule_after(Duration::millis(30), [&] { order.push_back(2); });
  sim.run_until(TimePoint::zero() + Duration::millis(20));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now().as_nanos(), Duration::millis(20).as_nanos());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(Duration::millis(10), [&] { ran = true; });
  sim.run_until(TimePoint::zero() + Duration::millis(10));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StepSingleEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(Duration::millis(1), [&] { ++count; });
  sim.schedule_after(Duration::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, IdleAndPending) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  sim.schedule_after(Duration::millis(1), [] {});
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, NextEventTime) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), TimePoint::max());
  sim.schedule_after(Duration::millis(7), [] {});
  EXPECT_EQ(sim.next_event_time().as_nanos(), Duration::millis(7).as_nanos());
}

TEST(SimulatorTest, NextEventTimeSkipsLazilyCancelledHeads) {
  // Regression: next_event_time() used to report the time of a cancelled
  // head event, which would freeze a sharded run's horizon exchange on a
  // dead event. It must skip (and reclaim) cancelled heads and report the
  // first *live* event.
  Simulator sim;
  auto early = sim.schedule_after(Duration::millis(1), [] {});
  auto mid = sim.schedule_after(Duration::millis(3), [] {});
  sim.schedule_after(Duration::millis(5), [] {});
  early.cancel();
  mid.cancel();
  EXPECT_EQ(sim.next_event_time().as_nanos(), Duration::millis(5).as_nanos());
  // The cancelled heads were reclaimed, not just skipped.
  EXPECT_EQ(sim.pending(), 1u);

  // All-cancelled queue reports idle time.
  auto last = sim.schedule_after(Duration::millis(2), [] {});
  (void)last;
  sim.run();
  auto only = sim.schedule_after(Duration::millis(9), [] {});
  only.cancel();
  EXPECT_EQ(sim.next_event_time(), TimePoint::max());
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, RunBeforeExcludesBoundAndKeepsClock) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_nanos(10), [&] { order.push_back(10); });
  sim.schedule_at(TimePoint::from_nanos(20), [&] { order.push_back(20); });
  sim.schedule_at(TimePoint::from_nanos(30), [&] { order.push_back(30); });
  EXPECT_EQ(sim.run_before(TimePoint::from_nanos(20)), 1u);
  EXPECT_EQ(order, (std::vector<int>{10}));
  // The clock sits at the last executed event — never force-advanced to the
  // bound, so a later cross-shard arrival at t=15 would still be in the
  // future from this simulator's point of view.
  EXPECT_EQ(sim.now().as_nanos(), 10);
  EXPECT_EQ(sim.run_before(TimePoint::from_nanos(31)), 2u);
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(SimulatorTest, KeyedSchedulingOrdersSameInstantEvents) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_nanos(50);
  sim.post_at_keyed(t, delivery_key(9, 1, 2), [&] { order.push_back(92); });
  sim.post_at_keyed(t, delivery_key(4, 1, 0), [&] { order.push_back(40); });
  sim.schedule_at(t, [&] { order.push_back(0); });  // band 0 wins the instant
  sim.post_at_keyed(t, delivery_key(4, 1, 1), [&] { order.push_back(41); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 40, 41, 92}));
}

TEST(SimulatorTest, ManyEventsStressDeterminism) {
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(Duration::micros(i % 97), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, CancelUnlinksAnEventStillInItsSlot) {
  Simulator sim;
  bool ran = false;
  auto far = sim.schedule_after(Duration::seconds(1.0), [&] { ran = true; });
  sim.schedule_after(Duration::millis(1), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  far.cancel();
  // Gone at once, not when its deadline comes round.
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(far.cancelled());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.now().as_nanos(), Duration::millis(1).as_nanos());
  far.cancel();  // idempotent
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, CancelAnEventAlreadyInTheReadyList) {
  // next_event_time() drains the due tick into the ready list; an event
  // cancelled there stays until it pops, but no longer counts as pending.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::millis(5), [&] { order.push_back(1); });
  auto second = sim.schedule_after(Duration::millis(5), [&] { order.push_back(2); });
  EXPECT_EQ(sim.next_event_time().as_nanos(), Duration::millis(5).as_nanos());
  second.cancel();
  EXPECT_TRUE(second.cancelled());
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, CancelFromACallbackAtTheSameInstant) {
  Simulator sim;
  std::vector<int> order;
  EventHandle self;
  EventHandle later;
  self = sim.schedule_after(Duration::millis(2), [&] {
    order.push_back(1);
    self.cancel();   // already running: a no-op
    later.cancel();  // same instant, drained with us: discarded when popped
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_TRUE(sim.idle());
  });
  later = sim.schedule_after(Duration::millis(2), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(self.cancelled());
  EXPECT_TRUE(later.cancelled());
}

TEST(SimulatorTest, CancelAfterTheSimulatorIsGoneIsANoop) {
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule_after(Duration::millis(1), [] {});
  }
  h.cancel();
  EXPECT_FALSE(h.cancelled());
  EXPECT_TRUE(h.valid());
}

TEST(SimulatorTest, PostsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_nanos(100);
  sim.schedule_at(t, [&] { order.push_back(2); });
  sim.post_after(Duration::nanos(100), [&] { order.push_back(3); });
  sim.post_at_keyed(t, delivery_key(1, 2, 0), [&] { order.push_back(5); });
  sim.post_after(Duration::nanos(50), [&] { order.push_back(0); });
  sim.schedule_after(Duration::nanos(100), [&] { order.push_back(4); });
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace kmsg::sim
