#include "itdos/queue.hpp"

#include <gtest/gtest.h>

#include "bft/harness.hpp"

namespace itdos::core {
namespace {

QueueOptions options_4_1() {
  QueueOptions o;
  o.n = 4;
  o.f = 1;
  o.lag_window = 4;
  return o;
}

BufView data_entry(std::uint64_t conn, std::uint64_t rid) {
  OrderedMsg msg;
  msg.conn = ConnectionId(conn);
  msg.rid = RequestId(rid);
  msg.origin = NodeId(100);
  msg.epoch = KeyEpoch(1);
  msg.sealed_giop = to_bytes("sealed");
  return msg.encode();
}

BufView ack_entry(std::uint64_t element, std::uint64_t index) {
  return QueueAckMsg{NodeId(element), index}.encode();
}

TEST(QueueTest, AppendsAndConsumesInOrder) {
  QueueStateMachine queue(options_4_1());
  EXPECT_FALSE(queue.has_next());
  bft::execute_with_digest(queue, data_entry(1, 1), NodeId(9), SeqNum(1));
  bft::execute_with_digest(queue, data_entry(1, 2), NodeId(9), SeqNum(2));
  ASSERT_TRUE(queue.has_next());
  EXPECT_EQ(queue.next().value(), data_entry(1, 1));
  EXPECT_EQ(queue.next().value(), data_entry(1, 2));
  EXPECT_FALSE(queue.has_next());
  EXPECT_EQ(queue.consumed_index(), 2u);
}

TEST(QueueTest, ExecuteReturnsStaticAck) {
  // §3.1: "The reply expected at the Castro-Liskov layer is a static reply
  // that acts as an acknowledgement" — identical across elements so the BFT
  // client's f+1 rule trivially passes.
  QueueStateMachine a(options_4_1());
  QueueStateMachine b(options_4_1());
  EXPECT_EQ(bft::execute_with_digest(a, data_entry(1, 1), NodeId(1), SeqNum(1)),
            bft::execute_with_digest(b, data_entry(1, 1), NodeId(2), SeqNum(1)));
}

TEST(QueueTest, MalformedEntryRejectedDeterministically) {
  QueueStateMachine queue(options_4_1());
  const Bytes reply = bft::execute_with_digest(queue, to_bytes("\x7fgarbage"), NodeId(1),
                                               SeqNum(1));
  EXPECT_EQ(to_string(reply), "ITDOS-REJECT");
  EXPECT_FALSE(queue.has_next());
}

TEST(QueueTest, PeekDoesNotAdvance) {
  QueueStateMachine queue(options_4_1());
  bft::execute_with_digest(queue, data_entry(1, 1), NodeId(9), SeqNum(1));
  EXPECT_EQ(queue.peek().value(), data_entry(1, 1));
  EXPECT_EQ(queue.peek().value(), data_entry(1, 1));
  EXPECT_EQ(queue.consumed_index(), 0u);
  queue.pop();
  EXPECT_EQ(queue.consumed_index(), 1u);
}

TEST(QueueTest, DeliveryHookFires) {
  QueueStateMachine queue(options_4_1());
  int fired = 0;
  queue.set_delivery_hook([&] { ++fired; });
  bft::execute_with_digest(queue, data_entry(1, 1), NodeId(9), SeqNum(1));
  bft::execute_with_digest(queue, ack_entry(1, 0), NodeId(9), SeqNum(2));  // acks don't deliver
  EXPECT_EQ(fired, 1);
}

TEST(QueueTest, GcAdvancesAtNMinusFAcks) {
  QueueStateMachine queue(options_4_1());
  for (int i = 1; i <= 6; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  while (queue.has_next()) queue.next();
  EXPECT_EQ(queue.base_index(), 0u);
  // Acks from elements 1 and 2: not enough (need n-f = 3).
  bft::execute_with_digest(queue, ack_entry(1, 6), NodeId(1), SeqNum(7));
  bft::execute_with_digest(queue, ack_entry(2, 6), NodeId(2), SeqNum(8));
  EXPECT_EQ(queue.base_index(), 0u);
  bft::execute_with_digest(queue, ack_entry(3, 6), NodeId(3), SeqNum(9));
  EXPECT_EQ(queue.base_index(), 6u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(QueueTest, GcFloorIsNMinusFthHighest) {
  QueueStateMachine queue(options_4_1());
  for (int i = 1; i <= 10; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                         SeqNum(i));
  while (queue.has_next()) queue.next();
  bft::execute_with_digest(queue, ack_entry(1, 10), NodeId(1), SeqNum(11));
  bft::execute_with_digest(queue, ack_entry(2, 8), NodeId(2), SeqNum(12));
  bft::execute_with_digest(queue, ack_entry(3, 5), NodeId(3), SeqNum(13));
  bft::execute_with_digest(queue, ack_entry(4, 2), NodeId(4), SeqNum(14));
  // Sorted desc: 10, 8, 5, 2; (n-f)=3rd highest = 5.
  EXPECT_EQ(queue.base_index(), 5u);
}

TEST(QueueTest, LaggardFlagged) {
  QueueOptions opts = options_4_1();
  opts.lag_window = 2;
  QueueStateMachine queue(opts);
  std::vector<NodeId> laggards;
  queue.set_laggard_hook([&](NodeId n) { laggards.push_back(n); });
  for (int i = 1; i <= 10; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                         SeqNum(i));
  while (queue.has_next()) queue.next();
  bft::execute_with_digest(queue, ack_entry(1, 10), NodeId(1), SeqNum(11));
  bft::execute_with_digest(queue, ack_entry(2, 10), NodeId(2), SeqNum(12));
  bft::execute_with_digest(queue, ack_entry(4, 0), NodeId(4), SeqNum(13));
  bft::execute_with_digest(queue, ack_entry(3, 10), NodeId(3), SeqNum(14));  // base -> 10
  // Element 4 acked 0, base 10, window 2: flagged.
  ASSERT_FALSE(laggards.empty());
  EXPECT_EQ(laggards.back(), NodeId(4));
}

TEST(QueueTest, BrokenWhenGcPassesLocalCursor) {
  // This element stopped consuming; when GC passes its cursor it is broken
  // (virtual synchrony: it must be expelled).
  QueueStateMachine queue(options_4_1());
  for (int i = 1; i <= 4; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  // Local consumption: nothing. Other elements ack 4.
  bft::execute_with_digest(queue, ack_entry(1, 4), NodeId(1), SeqNum(5));
  bft::execute_with_digest(queue, ack_entry(2, 4), NodeId(2), SeqNum(6));
  bft::execute_with_digest(queue, ack_entry(3, 4), NodeId(3), SeqNum(7));
  EXPECT_TRUE(queue.broken());
  EXPECT_FALSE(queue.has_next());
}

TEST(QueueTest, SnapshotRestoreRoundTrip) {
  QueueStateMachine source(options_4_1());
  for (int i = 1; i <= 5; ++i) bft::execute_with_digest(source, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  bft::execute_with_digest(source, ack_entry(1, 3), NodeId(1), SeqNum(6));
  const bft::AppSnapshot snap = source.snapshot();

  QueueStateMachine target(options_4_1());
  ASSERT_TRUE(target.restore(snap).is_ok());
  EXPECT_EQ(target.next_index(), 5u);
  EXPECT_EQ(target.base_index(), 0u);
  EXPECT_EQ(target.snapshot(), snap);  // digest-equivalent state
  // The restored element replays the queue from its own cursor (0).
  int consumed = 0;
  while (target.has_next()) {
    target.next();
    ++consumed;
  }
  EXPECT_EQ(consumed, 5);
}

TEST(QueueTest, RestoreRefusedWhenBehindGcFloor) {
  // A recovering element whose cursor is below the snapshot's base cannot
  // converge — the entries it needs are gone (paper: it must be expelled).
  QueueStateMachine source(options_4_1());
  for (int i = 1; i <= 6; ++i) bft::execute_with_digest(source, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  bft::execute_with_digest(source, ack_entry(1, 6), NodeId(1), SeqNum(7));
  bft::execute_with_digest(source, ack_entry(2, 6), NodeId(2), SeqNum(8));
  bft::execute_with_digest(source, ack_entry(3, 6), NodeId(3), SeqNum(9));
  ASSERT_EQ(source.base_index(), 6u);
  const bft::AppSnapshot snap = source.snapshot();

  QueueStateMachine behind(options_4_1());
  const Status s = behind.restore(snap);
  EXPECT_EQ(s.code(), Errc::kFailedPrecondition);
  EXPECT_TRUE(behind.broken());
}

TEST(QueueTest, RestoreAcceptedWhenCursorInsideWindow) {
  QueueStateMachine source(options_4_1());
  for (int i = 1; i <= 6; ++i) bft::execute_with_digest(source, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  const bft::AppSnapshot snap = source.snapshot();  // base still 0

  QueueStateMachine lagging(options_4_1());
  // It consumed 2 entries previously (simulate by feeding and consuming).
  bft::execute_with_digest(lagging, data_entry(1, 1), NodeId(9), SeqNum(1));
  bft::execute_with_digest(lagging, data_entry(1, 2), NodeId(9), SeqNum(2));
  lagging.next();
  lagging.next();
  ASSERT_TRUE(lagging.restore(snap).is_ok());
  EXPECT_EQ(lagging.consumed_index(), 2u);
  EXPECT_EQ(lagging.next().value(), data_entry(1, 3));  // resumes at entry 3
}

TEST(QueueTest, SnapshotIsDeterministicAcrossElements) {
  // Two elements, different consumption progress, same ordered input: the
  // snapshots (and thus BFT checkpoint digests) must be identical.
  QueueStateMachine a(options_4_1());
  QueueStateMachine b(options_4_1());
  for (int i = 1; i <= 5; ++i) {
    bft::execute_with_digest(a, data_entry(1, i), NodeId(9), SeqNum(i));
    bft::execute_with_digest(b, data_entry(1, i), NodeId(9), SeqNum(i));
  }
  a.next();
  a.next();  // a consumed 2, b consumed 0
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(QueueTest, NonMemberAcksIgnored) {
  // A rogue must not be able to drive GC with fabricated acks.
  QueueOptions opts = options_4_1();
  opts.lag_window = 2;  // member 4 (silent) counts as dead beyond 2x this
  opts.members = {NodeId(1), NodeId(2), NodeId(3), NodeId(4)};
  QueueStateMachine queue(opts);
  for (int i = 1; i <= 6; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  // Three rogue acks claiming full consumption from non-member ids.
  for (int rogue = 100; rogue < 103; ++rogue) {
    const Bytes reply = bft::execute_with_digest(queue,
                                                 ack_entry(static_cast<std::uint64_t>(rogue), 6),
                                                 NodeId(9),
                                                 SeqNum(static_cast<std::uint64_t>(rogue)));
    EXPECT_EQ(to_string(reply), "ITDOS-REJECT");
  }
  EXPECT_EQ(queue.base_index(), 0u);
  EXPECT_FALSE(queue.broken());
  // Genuine member acks still work (member 4 stays silent long enough to be
  // declared dead, so it stops constraining GC).
  bft::execute_with_digest(queue, ack_entry(1, 6), NodeId(1), SeqNum(200));
  bft::execute_with_digest(queue, ack_entry(2, 6), NodeId(2), SeqNum(201));
  while (queue.has_next()) queue.next();
  bft::execute_with_digest(queue, ack_entry(3, 6), NodeId(3), SeqNum(202));
  EXPECT_EQ(queue.base_index(), 6u);
}

TEST(QueueTest, AckOrderedByAnotherClientIgnored) {
  // An ack counts only when its element's own self-client ordered it, so
  // no client — not even another member's — can move a member's cursor.
  QueueOptions opts = options_4_1();
  opts.members = {NodeId(1), NodeId(2), NodeId(3), NodeId(4)};
  opts.orders_acks_for = [](NodeId element, NodeId client) {
    return client.value == element.value + 100;
  };
  QueueStateMachine queue(opts);
  for (int i = 1; i <= 6; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  while (queue.has_next()) queue.next();
  for (std::uint64_t element = 1; element <= 3; ++element) {
    for (const std::uint64_t client : {std::uint64_t{9}, element + 101}) {
      const Bytes reply = bft::execute_with_digest(queue, ack_entry(element, 6), NodeId(client),
                                                   SeqNum(10));
      EXPECT_EQ(to_string(reply), "ITDOS-REJECT") << element << " via " << client;
    }
  }
  EXPECT_EQ(queue.base_index(), 0u);
  for (std::uint64_t element = 1; element <= 4; ++element) {
    const Bytes reply =
        bft::execute_with_digest(queue, ack_entry(element, 6), NodeId(element + 100),
                                 SeqNum(20 + element));
    EXPECT_EQ(to_string(reply), "ITDOS-ACK");
  }
  EXPECT_EQ(queue.base_index(), 6u);
}

TEST(QueueTest, AckPastTheLastEntryIsClampedToIt) {
  // No element can have consumed past the last entry: acks claiming more
  // count as consuming exactly that far, so GC never passes next_index.
  QueueStateMachine queue(options_4_1());
  for (int i = 1; i <= 4; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  while (queue.has_next()) queue.next();
  for (std::uint64_t element = 1; element <= 3; ++element) {
    bft::execute_with_digest(queue, ack_entry(element, 1000000), NodeId(element),
                             SeqNum(4 + element));
  }
  EXPECT_EQ(queue.base_index(), 4u);
  EXPECT_FALSE(queue.broken());
  bft::execute_with_digest(queue, data_entry(1, 5), NodeId(9), SeqNum(8));
  EXPECT_EQ(queue.next().value(), data_entry(1, 5));
}

TEST(QueueTest, FormationClasses) {
  QueueStateMachine queue(options_4_1());
  EXPECT_EQ(queue.classify(data_entry(1, 1)), batch::EntryClass::kClient);
  EXPECT_EQ(queue.classify(ack_entry(1, 0)), batch::EntryClass::kRider);
  EXPECT_EQ(queue.classify(SyncPointMsg{NodeId(1)}.encode()), batch::EntryClass::kUrgent);
  EXPECT_EQ(queue.classify(to_bytes("\x7fgarbage")), batch::EntryClass::kClient);
}

TEST(QueueTest, GcWaitsForLiveSlowMember) {
  // A member only slightly behind (inside 2x the lag window) holds GC back:
  // its unconsumed entries must never be collected.
  QueueOptions opts = options_4_1();
  opts.lag_window = 16;
  opts.members = {NodeId(1), NodeId(2), NodeId(3), NodeId(4)};
  QueueStateMachine queue(opts);
  for (int i = 1; i <= 10; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                         SeqNum(i));
  bft::execute_with_digest(queue, ack_entry(1, 10), NodeId(1), SeqNum(20));
  bft::execute_with_digest(queue, ack_entry(2, 10), NodeId(2), SeqNum(21));
  bft::execute_with_digest(queue, ack_entry(3, 10), NodeId(3), SeqNum(22));
  bft::execute_with_digest(queue, ack_entry(4, 3), NodeId(4), SeqNum(23));  // slow but live
  EXPECT_EQ(queue.base_index(), 3u);  // clamped to the slow member's ack
  // Once the slow member catches up, GC proceeds.
  bft::execute_with_digest(queue, ack_entry(4, 10), NodeId(4), SeqNum(24));
  while (queue.has_next()) queue.next();
  EXPECT_EQ(queue.base_index(), 10u);
}

TEST(QueueTest, BootstrapModeDefersConsumptionUntilComplete) {
  QueueStateMachine queue(options_4_1());
  queue.begin_bootstrap();
  EXPECT_TRUE(queue.bootstrapping());
  for (int i = 1; i <= 5; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  EXPECT_FALSE(queue.has_next());  // held until peer state installs
  // Sync point at index 2: servant state covers entries 0..2.
  ASSERT_TRUE(queue.complete_bootstrap(3).is_ok());
  EXPECT_FALSE(queue.bootstrapping());
  EXPECT_EQ(queue.next().value(), data_entry(1, 4));  // resumes at entry 3
}

TEST(QueueTest, CompleteBootstrapAheadOfQueueIsUnavailable) {
  QueueStateMachine queue(options_4_1());
  queue.begin_bootstrap();
  bft::execute_with_digest(queue, data_entry(1, 1), NodeId(9), SeqNum(1));
  EXPECT_EQ(queue.complete_bootstrap(5).code(), Errc::kUnavailable);
  EXPECT_TRUE(queue.bootstrapping());  // still waiting
}

TEST(QueueTest, CompleteBootstrapBehindGcFails) {
  QueueStateMachine queue(options_4_1());
  queue.begin_bootstrap();
  for (int i = 1; i <= 6; ++i) bft::execute_with_digest(queue, data_entry(1, i), NodeId(9),
                                                        SeqNum(i));
  bft::execute_with_digest(queue, ack_entry(1, 6), NodeId(1), SeqNum(7));
  bft::execute_with_digest(queue, ack_entry(2, 6), NodeId(2), SeqNum(8));
  bft::execute_with_digest(queue, ack_entry(3, 6), NodeId(3), SeqNum(9));
  ASSERT_EQ(queue.base_index(), 6u);
  EXPECT_EQ(queue.complete_bootstrap(3).code(), Errc::kFailedPrecondition);
  EXPECT_FALSE(queue.broken());  // bootstrap failure is recoverable (re-sync)
}

TEST(QueueTest, AckKindDetection) {
  EXPECT_EQ(queue_entry_kind(data_entry(1, 1)).value(), QueueEntryKind::kRequest);
  EXPECT_EQ(queue_entry_kind(ack_entry(1, 0)).value(), QueueEntryKind::kAck);
  EXPECT_FALSE(queue_entry_kind(to_bytes("")).is_ok());
  EXPECT_FALSE(queue_entry_kind(to_bytes("\x09")).is_ok());
}

}  // namespace
}  // namespace itdos::core
