// BatchMsg wire tests: round trips, the arena single-marshal path, and the
// hostile-input guards (forged entry_count, empty batch, trailing bytes).
#include "batch/batch_msg.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace itdos::batch {
namespace {

BatchMsg sample() {
  BatchMsg batch;
  batch.entries.emplace_back(to_bytes("request-one"));
  batch.entries.emplace_back(to_bytes("r2"));
  batch.entries.emplace_back(to_bytes(std::string(300, 'z')));
  return batch;
}

/// The batch's wire bytes, as a mutable copy.
Bytes wire_bytes(const BatchMsg& batch) {
  Arena arena;
  return batch.encode_into(arena).clone_bytes();
}

TEST(BatchMsgTest, RoundTrip) {
  const BatchMsg batch = sample();
  const Result<BatchMsg> decoded = BatchMsg::decode(BufView(wire_bytes(batch)));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), batch);
}

TEST(BatchMsgTest, EncodeIntoArenaRoundTripsAndSharesChunk) {
  Arena arena;
  const BatchMsg batch = sample();
  const BufView wire = batch.encode_into(arena);
  // Little-endian CDR: the entry count, then each entry as a 4-aligned
  // length and its bytes.
  Bytes expected = {3, 0, 0, 0, 11, 0, 0, 0};
  append(expected, to_bytes("request-one"));
  expected.insert(expected.end(), {0, 2, 0, 0, 0});  // pad, length 2
  append(expected, to_bytes("r2"));
  expected.insert(expected.end(), {0, 0, 0x2c, 0x01, 0, 0});  // pad, length 300
  expected.insert(expected.end(), 300, 'z');
  EXPECT_EQ(wire.clone_bytes(), expected);

  BufStats::reset();
  const Result<BatchMsg> decoded = BatchMsg::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().entries.size(), 3u);
  // Zero-copy contract: decoding sub-views must not copy payload bytes.
  EXPECT_EQ(BufStats::copies, 0u);
  const BufView& big = decoded.value().entries[2];
  EXPECT_GE(big.data(), wire.data());
  EXPECT_LE(big.data() + big.size(), wire.data() + wire.size());
}

TEST(BatchMsgTest, RejectsEmptyBatch) {
  const BatchMsg empty;
  const Result<BatchMsg> decoded = BatchMsg::decode(BufView(wire_bytes(empty)));
  EXPECT_FALSE(decoded.is_ok());
}

TEST(BatchMsgTest, RejectsHostileEntryCount) {
  // A forged header claiming 2^32-1 entries backed by almost no bytes must
  // be rejected before any allocation is sized from the count.
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.write_uint32(0xffffffffu);
  enc.write_bytes(to_bytes("x"));
  const Result<BatchMsg> decoded = BatchMsg::decode(BufView(enc.take()));
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_NE(decoded.status().to_string().find("hostile"), std::string::npos);
}

TEST(BatchMsgTest, RejectsCountAboveCap) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.write_uint32(kMaxBatchEntries + 1);
  // Enough backing bytes that only the cap (not the remaining-bytes guard)
  // can reject it.
  for (std::uint32_t i = 0; i < kMaxBatchEntries + 1; ++i) {
    enc.write_bytes(Bytes{});
  }
  EXPECT_FALSE(BatchMsg::decode(BufView(enc.take())).is_ok());
}

TEST(BatchMsgTest, RejectsTrailingBytes) {
  Bytes wire = wire_bytes(sample());
  wire.push_back(0x00);
  EXPECT_FALSE(BatchMsg::decode(BufView(std::move(wire))).is_ok());
}

TEST(BatchMsgTest, RejectsTruncatedEntry) {
  Bytes wire = wire_bytes(sample());
  wire.resize(wire.size() - 5);
  EXPECT_FALSE(BatchMsg::decode(BufView(std::move(wire))).is_ok());
}

}  // namespace
}  // namespace itdos::batch
