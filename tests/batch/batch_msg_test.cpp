// BatchMsg wire tests: round trips, the single-marshal path, and the
// hostile-input guards (forged entry and authenticator counts, empty batch,
// non-zero pads, trailing bytes).
#include "batch/batch_msg.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace itdos::batch {
namespace {

/// `count` authenticator entries of `fill` bytes.
BufView auth_entries(std::size_t count, std::uint8_t fill) {
  return BufView(Bytes(count * kAuthEntrySize, fill));
}

BatchMsg sample() {
  BatchMsg batch;
  batch.entries.push_back({BufView(to_bytes("request-one")), auth_entries(4, 0xa1)});
  batch.entries.push_back({BufView(to_bytes("r2")), BufView()});
  batch.entries.push_back({BufView(to_bytes(std::string(300, 'z'))), auth_entries(1, 0xa3)});
  return batch;
}

/// The batch's wire bytes, as a mutable copy.
Bytes wire_bytes(const BatchMsg& batch) {
  return batch.encode().clone_bytes();
}

TEST(BatchMsgTest, RoundTrip) {
  const BatchMsg batch = sample();
  const Result<BatchMsg> decoded = BatchMsg::decode(BufView(wire_bytes(batch)));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), batch);
}

TEST(BatchMsgTest, EncodeRoundTripsAndSharesChunk) {
  const BatchMsg batch = sample();
  const BufView wire = batch.encode();
  // Little-endian CDR: the entry count, then each entry as a 4-aligned
  // length and its bytes, a 4-aligned authenticator count and, 8-aligned,
  // the authenticator entries.
  Bytes expected = {3, 0, 0, 0, 11, 0, 0, 0};          // offset 8
  append(expected, to_bytes("request-one"));           // to 19
  expected.insert(expected.end(), {0, 4, 0, 0, 0});    // pad, count 4: to 24
  expected.insert(expected.end(), 4 * kAuthEntrySize, 0xa1);  // to 120
  expected.insert(expected.end(), {2, 0, 0, 0});       // length 2: to 124
  append(expected, to_bytes("r2"));                    // to 126
  expected.insert(expected.end(), {0, 0, 0, 0, 0, 0});  // pad, count 0: to 132
  expected.insert(expected.end(), {0x2c, 0x01, 0, 0});   // length 300: to 136
  expected.insert(expected.end(), 300, 'z');           // to 436
  expected.insert(expected.end(), {1, 0, 0, 0});       // count 1: to 440
  expected.insert(expected.end(), kAuthEntrySize, 0xa3);
  EXPECT_EQ(wire.clone_bytes(), expected);

  BufStats::reset();
  const Result<BatchMsg> decoded = BatchMsg::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().entries.size(), 3u);
  // Zero-copy contract: decoding sub-views must not copy payload bytes.
  EXPECT_EQ(BufStats::copies, 0u);
  const BatchMsg& got = decoded.value();
  for (const BufView& view : {got.entries[2].request, got.entries[0].auth}) {
    EXPECT_GE(view.data(), wire.data());
    EXPECT_LE(view.data() + view.size(), wire.data() + wire.size());
  }
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
  // Enough backing bytes that only the cap (not the remaining-bytes guard)
  // can reject it; the same batch one entry shorter is accepted.
  BatchMsg at_cap;
  at_cap.entries.resize(kMaxBatchEntries);
  EXPECT_TRUE(BatchMsg::decode(BufView(wire_bytes(at_cap))).is_ok());
  BatchMsg over_cap = at_cap;
  over_cap.entries.emplace_back();
  const Result<BatchMsg> decoded = BatchMsg::decode(BufView(wire_bytes(over_cap)));
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_NE(decoded.status().to_string().find("hostile"), std::string::npos);
}

TEST(BatchMsgTest, RejectsHostileAuthenticatorCount) {
  // The second entry's count (at 128) claims more authenticators than the
  // bytes after it hold: refused before anything is read.
  const Bytes wire = wire_bytes(sample());
  const std::size_t count_at = 128;
  ASSERT_EQ(wire[count_at], 0);
  const std::size_t left = wire.size() - count_at - 4;
  for (const std::uint32_t hostile :
       {static_cast<std::uint32_t>(left / kAuthEntrySize + 1), 0x0aaaaaabu, 0xffffffffu}) {
    Bytes mutant = wire;
    for (int i = 0; i < 4; ++i) {
      mutant[count_at + i] = static_cast<std::uint8_t>(hostile >> (8 * i));
    }
    const Result<BatchMsg> decoded = BatchMsg::decode(BufView(std::move(mutant)));
    ASSERT_FALSE(decoded.is_ok()) << hostile;
    EXPECT_NE(decoded.status().to_string().find("hostile authenticator count"), std::string::npos)
        << decoded.status().to_string();
  }
}

TEST(BatchMsgTest, RejectsNonZeroPads) {
  // The pads after "request-one" and after "r2".
  for (const std::size_t at : {19u, 126u, 127u}) {
    Bytes wire = wire_bytes(sample());
    ASSERT_EQ(wire[at], 0) << at;
    wire[at] = 0x01;
    const Result<BatchMsg> decoded = BatchMsg::decode(BufView(std::move(wire)));
    ASSERT_FALSE(decoded.is_ok()) << at;
    EXPECT_NE(decoded.status().to_string().find("non-zero BATCH padding"), std::string::npos)
        << decoded.status().to_string();
  }
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
