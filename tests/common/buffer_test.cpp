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

TEST_F(BufferTest, AdoptingKeepsTheStorageAndItsCapacity) {
  Bytes storage;
  storage.reserve(64);
  append(storage, to_bytes("message"));
  const std::uint8_t* block = storage.data();
  const BufView view(std::move(storage));
  EXPECT_EQ(view.data(), block);  // the vector's heap block is the chunk
  EXPECT_EQ(view.chunk_capacity(), 64u);
  EXPECT_EQ(view.slice(1, 3).chunk_capacity(), 64u);
  EXPECT_EQ(BufView::borrow(view).chunk_capacity(), 0u);
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

}  // namespace
}  // namespace itdos
