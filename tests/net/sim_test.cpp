#include "net/sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
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
  // timer is cancelled and re-armed 100k times. Cancelling frees the slot
  // at once, so the slot table stays within the live events' high-water
  // mark.
  Simulator sim;
  int long_fired = 0;
  sim.schedule_after(seconds(10), [&] { ++long_fired; });
  int short_fired = 0;
  EventHandle timer = sim.schedule_after(100, [&] { ++short_fired; });
  std::size_t high_water = sim.pending_events();
  for (int i = 0; i < 100000; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_after(100, [&] { ++short_fired; });
    high_water = std::max(high_water, sim.pending_events());
    sim.run_for(10);
  }
  EXPECT_LE(sim.slot_count(), high_water);
  EXPECT_EQ(high_water, 2u);
  EXPECT_EQ(short_fired, 0);
  sim.run();
  EXPECT_EQ(short_fired, 1);
  EXPECT_EQ(long_fired, 1);
}

TEST(SimulatorTest, CancelRemovesTheHeapEntryAtOnce) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(sim.schedule_at(SimTime{100 + (i * 7) % 13}, [] {}));
  }
  for (int i = 0; i < 20; i += 3) {
    sim.cancel(handles[static_cast<std::size_t>(i)]);
    EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(19 - i / 3));
  }
  EXPECT_EQ(sim.pending_events(), 13u);
  sim.cancel(handles[0]);  // already cancelled: no-op
  EXPECT_EQ(sim.pending_events(), 13u);
  EXPECT_EQ(sim.run(), 13u);
}

TEST(SimulatorTest, CancelReleasesTheClosureAtOnce) {
  Simulator sim;
  auto held = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = held;
  const EventHandle h = sim.schedule_after(seconds(1), [held] { (void)*held; });
  held.reset();
  ASSERT_FALSE(watch.expired());  // the queued closure keeps it alive
  sim.cancel(h);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.now().ns, 0);
}

TEST(SimulatorTest, CancelOwnedCancelsOnlyThatOwnersEvents) {
  Simulator sim;
  const int a = 0;
  const int b = 0;
  std::vector<int> fired;
  for (int i = 0; i < 6; ++i) {
    sim.schedule_after(10 * (i + 1), [&fired, i] { fired.push_back(i); },
                       i % 2 == 0 ? static_cast<const void*>(&a) : &b);
  }
  sim.schedule_after(5, [&fired] { fired.push_back(-1); });  // nobody's
  sim.cancel_owned(&a);
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{-1, 1, 3, 5}));
  // A freed slot forgets its owner: an unowned event reusing it survives.
  sim.schedule_after(10, [&fired] { fired.push_back(9); });
  sim.cancel_owned(&b);
  sim.run();
  EXPECT_EQ(fired.back(), 9);
}

TEST(SimulatorTest, CancelHeadTailAndOnlyEntry) {
  {
    Simulator sim;
    bool fired = false;
    const EventHandle only = sim.schedule_at(SimTime{10}, [&] { fired = true; });
    sim.cancel(only);
    EXPECT_TRUE(sim.idle());
    EXPECT_FALSE(sim.step());
    EXPECT_FALSE(fired);
  }
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(sim.schedule_at(SimTime{10 * (i + 1)}, [&order, i] { order.push_back(i); }));
  }
  sim.cancel(handles[0]);  // the head
  sim.cancel(handles[5]);  // the tail, last in time and in the heap array
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorTest, RandomScheduleCancelAndFireMatchReferenceOrder) {
  // 10^5 seeded operations against a reference that keeps the live events
  // in a set ordered by (when, seq): every event fires in the reference's
  // order, and the heap always holds exactly the live events.
  Simulator sim;
  Rng rng(0x5eed);
  struct Live {
    std::int64_t when;
    std::uint64_t seq;
    bool operator<(const Live& other) const {
      return when != other.when ? when < other.when : seq < other.seq;
    }
  };
  std::set<Live> reference;
  std::map<std::uint64_t, std::pair<EventHandle, std::int64_t>> live;  // seq -> (handle, when)
  std::vector<std::uint64_t> fired;
  std::uint64_t next_seq = 0;
  std::size_t high_water = 0;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 5 || reference.empty()) {
      const std::int64_t when = sim.now().ns + static_cast<std::int64_t>(rng.next_below(50));
      const std::uint64_t seq = next_seq++;
      live[seq] = {sim.schedule_at(SimTime{when}, [&fired, seq] { fired.push_back(seq); }), when};
      reference.insert(Live{when, seq});
    } else if (roll < 8) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
      sim.cancel(it->second.first);
      reference.erase(Live{it->second.second, it->first});
      live.erase(it);
    } else {
      const Live next = *reference.begin();
      reference.erase(reference.begin());
      live.erase(next.seq);
      ASSERT_TRUE(sim.step());
      ASSERT_EQ(fired.back(), next.seq) << "op " << op;
      ASSERT_EQ(sim.now().ns, next.when);
    }
    ASSERT_EQ(sim.pending_events(), reference.size());
    high_water = std::max(high_water, reference.size());
  }
  EXPECT_LE(sim.slot_count(), high_water);
}

}  // namespace
}  // namespace itdos::net
