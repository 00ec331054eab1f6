#include "net/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace itdos::net {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now().ns, 0);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsFireInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns, 300);
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterAdvancesClock) {
  Simulator sim;
  SimTime seen{-1};
  sim.schedule_after(millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.ns, millis(5));
}

TEST(SimulatorTest, PastTimestampsClampToNow) {
  Simulator sim;
  sim.schedule_after(100, [&] {
    sim.schedule_at(SimTime{0}, [&] { EXPECT_EQ(sim.now().ns, 100); });
  });
  sim.run();
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, NestedSchedulingRuns) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_after(10, chain);
  };
  sim.schedule_after(10, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().ns, 50);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_after(10, [&] { fired = true; });
  sim.cancel(h);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  const EventHandle h = sim.schedule_after(10, [&] { ++fired; });
  sim.run();
  sim.cancel(h);  // must not corrupt accounting
  bool second = false;
  sim.schedule_after(10, [&] { second = true; });
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, CancelUnknownHandleIsNoop) {
  Simulator sim;
  sim.cancel(EventHandle{});
  sim.cancel(EventHandle{12345});
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime{100}, [&] { fired.push_back(1); });
  sim.schedule_at(SimTime{200}, [&] { fired.push_back(2); });
  sim.schedule_at(SimTime{300}, [&] { fired.push_back(3); });
  sim.run_until(SimTime{200});
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().ns, 200);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime{5000});
  EXPECT_EQ(sim.now().ns, 5000);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.run_until(SimTime{100});
  int fired = 0;
  sim.schedule_after(50, [&] { ++fired; });
  sim.schedule_after(500, [&] { ++fired; });
  sim.run_for(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns, 200);
}

TEST(SimulatorTest, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_at(SimTime{50}, [&] { fired = true; });
  sim.schedule_at(SimTime{100}, [&] {});
  sim.cancel(h);
  sim.run_until(SimTime{150});
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, CancelledTimerAtExactDeadlineBoundary) {
  // A timer sitting at exactly the run_until deadline is cancelled: the run
  // must consume events up to the deadline, skip the cancelled one, advance
  // the clock to the deadline, and leave later events untouched.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime{100}, [&] { fired.push_back(1); });
  const EventHandle at_deadline = sim.schedule_at(SimTime{200}, [&] { fired.push_back(2); });
  sim.schedule_at(SimTime{200}, [&] { fired.push_back(3); });  // same timestamp, kept
  sim.schedule_at(SimTime{300}, [&] { fired.push_back(4); });
  sim.cancel(at_deadline);

  sim.run_until(SimTime{200});
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.now().ns, 200);
  EXPECT_EQ(sim.pending_events(), 1u);  // only the 300ns event remains

  // Cancelling again past the deadline stays a no-op and the tail still runs.
  sim.cancel(at_deadline);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4}));
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, CancelDuringRunUntilOfLaterDeadlineEvent) {
  // An event firing before the deadline cancels a timer scheduled exactly AT
  // the deadline — the in-flight run_until must honour the cancellation.
  Simulator sim;
  bool fired = false;
  const EventHandle victim = sim.schedule_at(SimTime{200}, [&] { fired = true; });
  sim.schedule_at(SimTime{100}, [&] { sim.cancel(victim); });
  sim.run_until(SimTime{200});
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now().ns, 200);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, MaxEventsBound) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_after(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, StaleHandleCannotCancelSlotReuser) {
  // The first event fires and frees its slot; the next schedule takes that
  // slot. Cancelling through the first, stale handle must leave it alone.
  Simulator sim;
  const EventHandle first = sim.schedule_after(10, [] {});
  sim.run();
  bool fired = false;
  const EventHandle second = sim.schedule_after(10, [&] { fired = true; });
  ASSERT_EQ(second.slot, first.slot);
  ASSERT_NE(second.id, first.id);
  sim.cancel(first);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EqualTimestampsFifoAcrossRecycledSlots) {
  // Free slots are taken last-freed first, so the slot order of a batch
  // scheduled after a drain runs against its scheduling order; firing order
  // must follow scheduling order regardless.
  Simulator sim;
  std::vector<EventHandle> warm;
  for (int i = 0; i < 8; ++i) warm.push_back(sim.schedule_after(1, [] {}));
  sim.cancel(warm[2]);
  sim.cancel(warm[5]);
  sim.run();
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    sim.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.slot_count(), 12u);  // eight recycled slots, four new
  sim.run();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, HandlerSchedulesAndCancelsWhileRunning) {
  // A handler schedules a child (which takes the handler's freed slot),
  // cancels an event queued behind it, and cancels its own handle, now
  // stale: the child holds that slot under a new id and must still fire.
  Simulator sim;
  std::vector<std::string> log;
  EventHandle self{};
  EventHandle victim{};
  self = sim.schedule_at(SimTime{10}, [&] {
    log.push_back("self");
    const EventHandle child = sim.schedule_after(5, [&] { log.push_back("child"); });
    EXPECT_EQ(child.slot, self.slot);
    sim.cancel(victim);
    sim.cancel(self);  // stale: the event is running
    sim.schedule_after(1, [&] { log.push_back("grandchild"); });
  });
  victim = sim.schedule_at(SimTime{12}, [&] { log.push_back("victim"); });
  sim.schedule_at(SimTime{20}, [&] { log.push_back("tail"); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"self", "grandchild", "child", "tail"}));
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, RearmedTimerKeepsSlotTableBounded) {
  // One long timer holds the oldest slot for the whole run while a short
  // timer is cancelled and re-armed 100k times. The slot table must stay
  // within the queue's high-water mark, not grow with the re-arm count.
  Simulator sim;
  int long_fired = 0;
  sim.schedule_after(seconds(10), [&] { ++long_fired; });
  int short_fired = 0;
  EventHandle timer = sim.schedule_after(100, [&] { ++short_fired; });
  std::size_t high_water = sim.queued_entries();
  for (int i = 0; i < 100000; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_after(100, [&] { ++short_fired; });
    high_water = std::max(high_water, sim.queued_entries());
    sim.run_for(10);
  }
  EXPECT_LE(sim.slot_count(), high_water);
  EXPECT_LE(high_water, 16u);
  EXPECT_EQ(short_fired, 0);
  sim.run();
  EXPECT_EQ(short_fired, 1);
  EXPECT_EQ(long_fired, 1);
}

}  // namespace
}  // namespace itdos::net
