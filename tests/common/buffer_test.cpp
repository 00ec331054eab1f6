#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace itdos {
namespace {

class BufferTest : public ::testing::Test {
 protected:
  void SetUp() override { BufStats::reset(); }
  void TearDown() override { BufStats::reset(); }
};

// ---------------------------------------------------------------------------
// BufView ownership and refcounting.
// ---------------------------------------------------------------------------

TEST_F(BufferTest, AdoptingAnRvalueIsNotACountedCopy) {
  const BufView view(to_bytes("adopted"));
  EXPECT_EQ(to_string(view), "adopted");
  EXPECT_TRUE(view.owning());
  EXPECT_EQ(view.use_count(), 1);
  EXPECT_EQ(BufStats::copies, 0u);
}

TEST_F(BufferTest, CopyingAViewBumpsTheRefcountNotTheBytes) {
  const BufView a(to_bytes("shared"));
  const BufView b = a;
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.data(), a.data());  // same chunk, no payload copy
  EXPECT_EQ(BufStats::copies, 0u);
}

TEST_F(BufferTest, CopyOfIsCounted) {
  const Bytes source = to_bytes("counted");
  const BufView view = BufView::copy_of(source);
  EXPECT_EQ(to_string(view), "counted");
  EXPECT_NE(view.data(), source.data());
  EXPECT_EQ(BufStats::copies, 1u);
  EXPECT_EQ(BufStats::bytes_copied, source.size());
}

TEST_F(BufferTest, CloneBytesIsTheCountedCopyOnWriteSeam) {
  const BufView sealed(to_bytes("immutable"));
  Bytes mutated = sealed.clone_bytes();
  mutated[0] = 'X';
  const BufView forked(std::move(mutated));
  EXPECT_EQ(to_string(sealed), "immutable");  // original untouched
  EXPECT_EQ(to_string(forked), "Xmmutable");
  EXPECT_EQ(BufStats::copies, 1u);
}

TEST_F(BufferTest, BorrowedViewsDoNotOwn) {
  const Bytes storage = to_bytes("caller-owned");
  const BufView view = BufView::borrow(storage);
  EXPECT_FALSE(view.owning());
  EXPECT_EQ(view.use_count(), 0);
  EXPECT_EQ(view.data(), storage.data());
  EXPECT_EQ(BufStats::copies, 0u);
}

TEST_F(BufferTest, DefaultViewIsEmptyAndValid) {
  const BufView view;
  EXPECT_TRUE(view.empty());
  EXPECT_FALSE(view.owning());
  EXPECT_EQ(view.size(), 0u);
}

TEST_F(BufferTest, EqualityComparesBytesNotIdentity) {
  const BufView a(to_bytes("same"));
  const BufView b(to_bytes("same"));
  const BufView c(to_bytes("diff"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.data(), b.data());
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, to_bytes("same"));  // heterogeneous Bytes comparison
}

// ---------------------------------------------------------------------------
// Slicing.
// ---------------------------------------------------------------------------

TEST_F(BufferTest, SliceSharesTheChunk) {
  const BufView whole(to_bytes("head|payload|tail"));
  const BufView payload = whole.slice(5, 7);
  EXPECT_EQ(to_string(payload), "payload");
  EXPECT_EQ(payload.data(), whole.data() + 5);  // no copy
  EXPECT_EQ(whole.use_count(), 2);              // slice holds the chunk too
  EXPECT_EQ(BufStats::copies, 0u);
}

TEST_F(BufferTest, SliceKeepsChunkAliveAfterParentDies) {
  BufView tail;
  {
    const BufView whole(to_bytes("abcdef"));
    tail = whole.slice(3, 3);
  }
  EXPECT_EQ(to_string(tail), "def");
  EXPECT_EQ(tail.use_count(), 1);
}

TEST_F(BufferTest, SliceClampsToBounds) {
  const BufView view(to_bytes("12345"));
  EXPECT_EQ(view.slice(3, 100).size(), 2u);
  EXPECT_TRUE(view.slice(100, 5).empty());
}

// ---------------------------------------------------------------------------
// Arena pooling.
// ---------------------------------------------------------------------------

TEST_F(BufferTest, ChunkCapacityReturnsToThePoolWhenLastViewDrops) {
  Arena arena(/*chunk_reserve=*/128, /*max_pooled=*/8);
  {
    Bytes chunk = arena.acquire();
    append(chunk, to_bytes("message"));
    const BufView view = arena.seal(std::move(chunk));
    EXPECT_EQ(arena.pooled(), 0u);  // still held by the view
  }
  EXPECT_EQ(arena.pooled(), 1u);  // capacity recycled on last-view drop
}

TEST_F(BufferTest, AcquireReusesPooledChunks) {
  Arena arena(128, 8);
  { (void)arena.seal(arena.acquire()); }  // one chunk through the cycle
  ASSERT_EQ(arena.pooled(), 1u);
  const Bytes chunk = arena.acquire();
  EXPECT_EQ(arena.pooled(), 0u);
  EXPECT_GE(chunk.capacity(), 128u);
  EXPECT_TRUE(chunk.empty());  // recycled chunks come back cleared
  EXPECT_EQ(arena.reuses(), 1u);
}

TEST_F(BufferTest, PoolIsLifo) {
  // Determinism depends on recycle order being stack-like, not
  // address- or hash-ordered.
  Arena arena(16, 8);
  Bytes first = arena.acquire(100);
  Bytes second = arena.acquire(200);
  const std::size_t first_cap = first.capacity();
  const std::size_t second_cap = second.capacity();
  (void)arena.seal(std::move(first));   // pooled first
  (void)arena.seal(std::move(second));  // pooled second (top of stack)
  // Both fit a 100-byte request (neither is more than twice its size).
  EXPECT_EQ(arena.acquire(100).capacity(), second_cap);
  EXPECT_EQ(arena.acquire(100).capacity(), first_cap);
}

TEST_F(BufferTest, AcquireLeavesAFarLargerChunkPooled) {
  // A small message must not pin a large pooled chunk for its lifetime.
  Arena arena(16, 8);
  (void)arena.seal(arena.acquire(16384));
  EXPECT_EQ(arena.acquire(150).capacity(), 150u);
  EXPECT_EQ(arena.pooled(), 1u);
  EXPECT_EQ(arena.acquire(16000).capacity(), 16384u);
}

TEST_F(BufferTest, ViewsOutliveTheArena) {
  BufView survivor;
  {
    Arena arena(64, 4);
    Bytes chunk = arena.acquire();
    append(chunk, to_bytes("outlives"));
    survivor = arena.seal(std::move(chunk));
  }
  EXPECT_EQ(to_string(survivor), "outlives");  // pool state is refcounted
}

TEST_F(BufferTest, PoolRetentionIsBounded) {
  Arena arena(16, /*max_pooled=*/2);
  std::vector<BufView> views;
  for (int i = 0; i < 5; ++i) views.push_back(arena.seal(arena.acquire()));
  views.clear();
  EXPECT_LE(arena.pooled(), 2u);
}

}  // namespace
}  // namespace itdos
