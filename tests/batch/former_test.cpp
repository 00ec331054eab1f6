// Former unit tests: dual caps, urgency, riders, deadline arithmetic and the
// determinism contract (same arrivals + same clock => same batches).
#include "batch/former.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hpp"

namespace itdos::batch {
namespace {

// Riders one batch may carry in these tests (a 4-replica group at depth 1).
constexpr std::size_t kRiders = 4;

// Formation never reads an entry's payload digest (nor, but for take_all,
// its authenticators); the tests park entries without either.
const crypto::Digest kNoDigest{};

BufView frame(std::size_t n, char fill = 'x') {
  return BufView(Bytes(n, static_cast<std::uint8_t>(fill)));
}

Policy policy(int max_entries, std::size_t max_bytes = 64 * 1024,
              std::int64_t max_hold_ns = micros(200)) {
  Policy p;
  p.max_entries = max_entries;
  p.max_bytes = max_bytes;
  p.max_hold_ns = max_hold_ns;
  return p;
}

TEST(FormerTest, DefaultPolicyCutsEveryRequestAlone) {
  // max_entries = 1: each request is ripe the moment it arrives and forms
  // a batch of its own, so an unbatched deployment never waits on a hold.
  Former former(Policy{}, kRiders);
  const SimTime t0{};
  former.enqueue(frame(10), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_TRUE(former.ripe(t0));
  former.enqueue(frame(10), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_EQ(former.form().size(), 1u);
  EXPECT_TRUE(former.ripe(t0));
  EXPECT_EQ(former.form().size(), 1u);
  EXPECT_TRUE(former.empty());
}

TEST(FormerTest, EmptyFormerIsNeverRipe) {
  Former former(policy(4), kRiders);
  EXPECT_TRUE(former.empty());
  EXPECT_FALSE(former.ripe(SimTime{seconds(99)}));
  EXPECT_EQ(former.deadline(), std::nullopt);
}

TEST(FormerTest, CountCapTrips) {
  Former former(policy(3), kRiders);
  const SimTime t0{};
  former.enqueue(frame(8), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  former.enqueue(frame(8), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(t0));
  former.enqueue(frame(8), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_TRUE(former.ripe(t0));
}

TEST(FormerTest, ByteCapTrips) {
  Former former(policy(100, /*max_bytes=*/100), kRiders);
  const SimTime t0{};
  former.enqueue(frame(60), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(t0));
  former.enqueue(frame(60), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_TRUE(former.ripe(t0));
  EXPECT_EQ(former.pending_bytes(), 120u);
}

TEST(FormerTest, HoldCapTripsAtDeadline) {
  Former former(policy(100, 64 * 1024, /*max_hold_ns=*/micros(50)), kRiders);
  const SimTime t0{micros(10)};
  former.enqueue(frame(8), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  ASSERT_TRUE(former.deadline().has_value());
  EXPECT_EQ(former.deadline()->ns, (t0 + micros(50)).ns);
  EXPECT_FALSE(former.ripe(t0 + micros(49)));
  EXPECT_TRUE(former.ripe(t0 + micros(50)));
}

TEST(FormerTest, DeadlineFollowsOldestEntry) {
  Former former(policy(100, 64 * 1024, micros(50)), kRiders);
  former.enqueue(frame(8), EntryClass::kClient, 0, SimTime{micros(1)}, BufView(), kNoDigest);
  former.enqueue(frame(8), EntryClass::kClient, 0, SimTime{micros(40)}, BufView(), kNoDigest);
  EXPECT_EQ(former.deadline()->ns, micros(51));
  (void)former.form();  // pops both; nothing left
  EXPECT_EQ(former.deadline(), std::nullopt);
}

TEST(FormerTest, UrgentEntryIsRipeImmediately) {
  Former former(policy(100), kRiders);
  const SimTime t0{};
  former.enqueue(frame(8), EntryClass::kClient, 0, t0, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(t0));
  former.enqueue(frame(8), EntryClass::kUrgent, 0, t0, BufView(), kNoDigest);
  EXPECT_TRUE(former.ripe(t0));
  // Forming consumes the urgent entry; the remainder is no longer urgent.
  (void)former.form();
  EXPECT_FALSE(former.ripe(t0));
  EXPECT_TRUE(former.empty());
}

TEST(FormerTest, LoneRiderWaitsOutItsHold) {
  // A rider alone never starts a slot at once, even with every request
  // otherwise cut on arrival; its hold cap still flushes it, so GC stays
  // live when no client traffic comes.
  Former former(Policy{}, kRiders);
  const SimTime t0{micros(5)};
  former.enqueue(frame(8), EntryClass::kRider, 0, t0, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(t0));
  EXPECT_FALSE(former.ripe(t0 + micros(199)));
  EXPECT_EQ(former.deadline()->ns, (t0 + micros(200)).ns);
  EXPECT_TRUE(former.ripe(t0 + micros(200)));
  EXPECT_EQ(former.form().size(), 1u);
  EXPECT_TRUE(former.empty());
}

TEST(FormerTest, RiderAndClientEntryAreRipeAtOnce) {
  // Under a long hold and a high count cap neither entry would trip a cap
  // alone; together they leave at once, in one batch.
  Former former(policy(100, 64 * 1024, millis(20)), kRiders);
  const SimTime t0{};
  former.enqueue(frame(8), EntryClass::kRider, 1, t0, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(t0));
  former.enqueue(frame(8), EntryClass::kClient, 2, t0, BufView(), kNoDigest);
  EXPECT_TRUE(former.ripe(t0));
  EXPECT_EQ(former.form().size(), 2u);
  // The same holds the other way round.
  former.enqueue(frame(8), EntryClass::kClient, 3, t0, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(t0));
  former.enqueue(frame(8), EntryClass::kRider, 4, t0, BufView(), kNoDigest);
  EXPECT_TRUE(former.ripe(t0));
}

TEST(FormerTest, RidersStayOutsideBothCapsInArrivalOrder) {
  // Count cap 1 and a byte cap one client frame wide: the riders around a
  // client entry neither trip the caps nor are cut off by them, and the
  // batch keeps arrival order.
  Former former(policy(1, /*max_bytes=*/32), kRiders);
  const SimTime t0{};
  former.enqueue(frame(24), EntryClass::kRider, 1, t0, BufView(), kNoDigest);
  former.enqueue(frame(24), EntryClass::kRider, 2, t0, BufView(), kNoDigest);
  EXPECT_EQ(former.pending_bytes(), 0u);
  EXPECT_FALSE(former.ripe(t0));
  former.enqueue(frame(32), EntryClass::kClient, 3, t0, BufView(), kNoDigest);
  former.enqueue(frame(24), EntryClass::kRider, 4, t0, BufView(), kNoDigest);
  former.enqueue(frame(32), EntryClass::kClient, 5, t0, BufView(), kNoDigest);
  EXPECT_EQ(former.pending_bytes(), 64u);
  const std::vector<PendingEntry> first = former.form();
  ASSERT_EQ(first.size(), 4u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].trace, i + 1) << "entry " << i;
  }
  const std::vector<PendingEntry> second = former.form();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].trace, 5u);
  EXPECT_TRUE(former.empty());
}

TEST(FormerTest, BatchCarriesAtMostMaxRiders) {
  Former former(policy(8), /*max_riders=*/2);
  const SimTime t0{};
  for (std::uint64_t i = 1; i <= 5; ++i) former.enqueue(frame(8), EntryClass::kRider, i, t0, BufView(), kNoDigest);
  const SimTime late = t0 + micros(200);
  std::vector<std::size_t> cuts;
  while (former.ripe(late)) cuts.push_back(former.form().size());
  EXPECT_EQ(cuts, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(FormerTest, FormRespectsCountCapAndArrivalOrder) {
  Former former(policy(2), kRiders);
  const SimTime t0{};
  for (char c = 'a'; c <= 'e'; ++c) {
    former.enqueue(frame(4, c), EntryClass::kClient, static_cast<std::uint64_t>(c), t0, BufView(), kNoDigest);
  }
  const std::vector<PendingEntry> first = former.form();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].trace, static_cast<std::uint64_t>('a'));
  EXPECT_EQ(first[1].trace, static_cast<std::uint64_t>('b'));
  const std::vector<PendingEntry> second = former.form();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].trace, static_cast<std::uint64_t>('c'));
  EXPECT_EQ(former.size(), 1u);
}

TEST(FormerTest, FormRespectsByteCap) {
  Former former(policy(100, /*max_bytes=*/100), kRiders);
  const SimTime t0{};
  former.enqueue(frame(60), EntryClass::kClient, 1, t0, BufView(), kNoDigest);
  former.enqueue(frame(60), EntryClass::kClient, 2, t0, BufView(), kNoDigest);
  const std::vector<PendingEntry> batch = former.form();
  // Second entry would blow the byte cap; it stays parked.
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].trace, 1u);
  EXPECT_EQ(former.size(), 1u);
  EXPECT_EQ(former.pending_bytes(), 60u);
}

TEST(FormerTest, OversizedSingletonStillForms) {
  Former former(policy(100, /*max_bytes=*/16), kRiders);
  former.enqueue(frame(4096), EntryClass::kClient, 7, SimTime{}, BufView(), kNoDigest);
  const std::vector<PendingEntry> batch = former.form();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].encoded.size(), 4096u);
  EXPECT_TRUE(former.empty());
}

TEST(FormerTest, TakeAllEmptiesTheFormerInArrivalOrder) {
  Former former(policy(4), kRiders);
  const BufView auth = frame(24);
  former.enqueue(frame(8), EntryClass::kUrgent, 1, SimTime{}, auth, kNoDigest);
  former.enqueue(frame(8), EntryClass::kClient, 2, SimTime{}, BufView(), kNoDigest);
  const std::deque<PendingEntry> taken = former.take_all();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].trace, 1u);
  EXPECT_EQ(taken[0].auth.size(), 24u);
  EXPECT_EQ(taken[1].trace, 2u);
  EXPECT_TRUE(taken[1].auth.empty());
  EXPECT_TRUE(former.empty());
  EXPECT_EQ(former.pending_bytes(), 0u);
  EXPECT_FALSE(former.ripe(SimTime{seconds(1)}));
  // Urgency book-keeping must reset too.
  former.enqueue(frame(8), EntryClass::kClient, 0, SimTime{}, BufView(), kNoDigest);
  EXPECT_FALSE(former.ripe(SimTime{}));
}

TEST(FormerTest, SameArrivalsSameClockSameBatches) {
  // The formation-determinism contract at the unit level: re-running the
  // identical enqueue schedule yields identical batch boundaries.
  const auto run = [] {
    Former former(policy(3, 200, micros(50)), kRiders);
    std::vector<std::size_t> cuts;
    SimTime now{};
    for (int i = 0; i < 20; ++i) {
      now = now + micros(7 * (i % 5));
      const EntryClass cls = i % 7 == 0 ? EntryClass::kUrgent
                             : i % 3 == 0 ? EntryClass::kRider
                                          : EntryClass::kClient;
      former.enqueue(frame(16 + static_cast<std::size_t>(i)), cls, 0, now, BufView(), kNoDigest);
      while (former.ripe(now)) cuts.push_back(former.form().size());
    }
    return cuts;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace itdos::batch
