#include "cdr/codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

namespace itdos::cdr {
namespace {

class CodecOrderTest : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(CodecOrderTest, PrimitiveRoundTrips) {
  Encoder enc(GetParam());
  enc.write_octet(0xab);
  enc.write_boolean(true);
  enc.write_int16(-1234);
  enc.write_uint16(65535);
  enc.write_int32(-123456789);
  enc.write_uint32(0xdeadbeef);
  enc.write_int64(-1234567890123456789LL);
  enc.write_uint64(0xfeedfacecafebeefULL);
  enc.write_float(3.14f);
  enc.write_double(-2.718281828459045);
  enc.write_string("heterogeneous");
  enc.write_bytes(to_bytes("raw-seq"));

  Decoder dec(enc.buffer(), GetParam());
  EXPECT_EQ(dec.read_octet().value(), 0xab);
  EXPECT_EQ(dec.read_boolean().value(), true);
  EXPECT_EQ(dec.read_int16().value(), -1234);
  EXPECT_EQ(dec.read_uint16().value(), 65535);
  EXPECT_EQ(dec.read_int32().value(), -123456789);
  EXPECT_EQ(dec.read_uint32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.read_int64().value(), -1234567890123456789LL);
  EXPECT_EQ(dec.read_uint64().value(), 0xfeedfacecafebeefULL);
  EXPECT_FLOAT_EQ(dec.read_float().value(), 3.14f);
  EXPECT_DOUBLE_EQ(dec.read_double().value(), -2.718281828459045);
  EXPECT_EQ(dec.read_string().value(), "heterogeneous");
  EXPECT_EQ(dec.read_bytes().value(), to_bytes("raw-seq"));
  EXPECT_TRUE(dec.exhausted());
}

TEST_P(CodecOrderTest, FloatSpecialValues) {
  Encoder enc(GetParam());
  enc.write_double(std::numeric_limits<double>::infinity());
  enc.write_double(-0.0);
  enc.write_float(std::numeric_limits<float>::denorm_min());
  Decoder dec(enc.buffer(), GetParam());
  EXPECT_EQ(dec.read_double().value(), std::numeric_limits<double>::infinity());
  const double neg_zero = dec.read_double().value();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(dec.read_float().value(), std::numeric_limits<float>::denorm_min());
}

TEST_P(CodecOrderTest, AlignmentPadsFromBufferStart) {
  Encoder enc(GetParam());
  enc.write_octet(1);
  enc.write_uint32(7);  // should pad 3 bytes to offset 4
  EXPECT_EQ(enc.size(), 8u);
  enc.write_octet(2);
  enc.write_uint64(9);  // pads to offset 16
  EXPECT_EQ(enc.size(), 24u);

  Decoder dec(enc.buffer(), GetParam());
  EXPECT_EQ(dec.read_octet().value(), 1);
  EXPECT_EQ(dec.read_uint32().value(), 7u);
  EXPECT_EQ(dec.read_octet().value(), 2);
  EXPECT_EQ(dec.read_uint64().value(), 9u);
}

TEST_P(CodecOrderTest, EncapsulationInPlaceMatchesWriteBytesOfItsOwnEncoding) {
  // The nested body starts at 12, which is not 8-aligned: its u64 must
  // align from the body's first byte (at 20), as it would in a buffer of
  // its own, not from the outer buffer's start (at 16).
  Encoder inner(GetParam());
  inner.write_octet(2);
  inner.write_uint64(3);
  Encoder separate(GetParam());
  separate.write_uint64(1);
  separate.write_bytes(inner.buffer());
  separate.write_uint16(4);

  Encoder in_place(GetParam());
  in_place.write_uint64(1);
  const Encoder::Encapsulation body = in_place.begin_encapsulation();
  in_place.write_octet(2);
  in_place.write_uint64(3);
  in_place.end_encapsulation(body);
  in_place.write_uint16(4);
  EXPECT_EQ(in_place.buffer(), separate.buffer());
}

TEST_P(CodecOrderTest, EmptyStringHasNulOnly) {
  Encoder enc(GetParam());
  enc.write_string("");
  Decoder dec(enc.buffer(), GetParam());
  EXPECT_EQ(dec.read_string().value(), "");
}

/// `v`'s low `width` bytes in `order`, built one byte at a time.
Bytes wire_uint(ByteOrder order, std::uint64_t v, std::size_t width) {
  Bytes out;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t byte = order == ByteOrder::kBigEndian ? width - 1 - i : i;
    out.push_back(static_cast<std::uint8_t>(v >> (8 * byte)));
  }
  return out;
}

TEST_P(CodecOrderTest, StringWireBytesMatchHandBuilt) {
  // An octet first, so the length is written after three pad bytes.
  for (const std::size_t length : {0u, 1u, 4095u, 16384u}) {
    std::string s(length, '\0');
    for (std::size_t i = 0; i < length; ++i) s[i] = static_cast<char>('a' + i % 26);
    Encoder enc(GetParam());
    enc.write_octet(0x7f);
    enc.write_string(s);

    Bytes expected{0x7f, 0, 0, 0};
    append(expected, wire_uint(GetParam(), length + 1, 4));
    for (const char c : s) expected.push_back(static_cast<std::uint8_t>(c));
    expected.push_back(0);
    EXPECT_EQ(enc.buffer(), expected) << "length " << length;
  }
}

TEST_P(CodecOrderTest, IntegerWireBytesMatchHandBuilt) {
  Encoder enc(GetParam());
  enc.write_octet(1);
  enc.write_uint16(0xa1b2);
  enc.write_uint32(0xc3d4e5f6);
  enc.write_octet(2);
  enc.write_uint64(0x0102030405060708ULL);
  enc.write_int32(-2);

  Bytes expected{1, 0};
  append(expected, wire_uint(GetParam(), 0xa1b2, 2));
  append(expected, wire_uint(GetParam(), 0xc3d4e5f6, 4));
  append(expected, Bytes{2, 0, 0, 0, 0, 0, 0, 0});
  append(expected, wire_uint(GetParam(), 0x0102030405060708ULL, 8));
  append(expected, wire_uint(GetParam(), 0xfffffffe, 4));
  EXPECT_EQ(enc.buffer(), expected);
}

INSTANTIATE_TEST_SUITE_P(BothOrders, CodecOrderTest,
                         ::testing::Values(ByteOrder::kBigEndian,
                                           ByteOrder::kLittleEndian),
                         [](const auto& info) {
                           return info.param == ByteOrder::kBigEndian ? "BigEndian"
                                                                      : "LittleEndian";
                         });

TEST(CodecTest, ByteOrdersProduceDifferentWireBytes) {
  // The heterogeneity premise of §3.6: same logical value, different bytes.
  Encoder big(ByteOrder::kBigEndian);
  Encoder little(ByteOrder::kLittleEndian);
  big.write_uint32(0x01020304);
  little.write_uint32(0x01020304);
  EXPECT_NE(big.buffer(), little.buffer());
  EXPECT_EQ(big.buffer(), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(little.buffer(), (Bytes{4, 3, 2, 1}));
}

TEST(CodecTest, CrossOrderDecodeHonoursFlag) {
  // A little-endian receiver can decode a big-endian message when told the
  // order, and vice versa.
  Encoder big(ByteOrder::kBigEndian);
  big.write_uint32(0xcafe1234);
  Decoder dec(big.buffer(), ByteOrder::kBigEndian);
  EXPECT_EQ(dec.read_uint32().value(), 0xcafe1234u);

  // Decoding with the WRONG order yields the byte-swapped value.
  Decoder wrong(big.buffer(), ByteOrder::kLittleEndian);
  EXPECT_EQ(wrong.read_uint32().value(), 0x3412fecau);
}

TEST(CodecTest, NativeOrderIsConsistent) {
  const ByteOrder native = native_byte_order();
  Encoder enc(native);
  EXPECT_EQ(enc.order(), native);
}

TEST(CodecTest, TruncatedPrimitiveRejected) {
  Encoder enc(ByteOrder::kLittleEndian);
  enc.write_uint32(7);
  const ByteView truncated(enc.buffer().data(), 3);
  Decoder dec(truncated, ByteOrder::kLittleEndian);
  EXPECT_EQ(dec.read_uint32().status().code(), Errc::kMalformedMessage);
}

TEST(CodecTest, TruncatedStringRejected) {
  Encoder enc(ByteOrder::kLittleEndian);
  enc.write_string("hello");
  const ByteView truncated(enc.buffer().data(), enc.size() - 2);
  Decoder dec(truncated, ByteOrder::kLittleEndian);
  EXPECT_EQ(dec.read_string().status().code(), Errc::kMalformedMessage);
}

TEST(CodecTest, StringMissingNulRejected) {
  Encoder enc(ByteOrder::kLittleEndian);
  enc.write_uint32(3);
  enc.write_raw(to_bytes("abc"));  // no NUL
  Decoder dec(enc.buffer(), ByteOrder::kLittleEndian);
  EXPECT_EQ(dec.read_string().status().code(), Errc::kMalformedMessage);
}

TEST(CodecTest, ZeroLengthStringRejected) {
  // CDR string length includes the NUL, so 0 is malformed.
  Encoder enc(ByteOrder::kLittleEndian);
  enc.write_uint32(0);
  Decoder dec(enc.buffer(), ByteOrder::kLittleEndian);
  EXPECT_EQ(dec.read_string().status().code(), Errc::kMalformedMessage);
}

TEST(CodecTest, BooleanOutOfRangeRejected) {
  const Bytes raw{0x02};
  Decoder dec(raw, ByteOrder::kLittleEndian);
  EXPECT_EQ(dec.read_boolean().status().code(), Errc::kMalformedMessage);
}

TEST(CodecTest, ReadRawExactAndOverflow) {
  const Bytes raw = to_bytes("abcdef");
  Decoder dec(raw, ByteOrder::kLittleEndian);
  EXPECT_EQ(dec.read_raw(6).value(), raw);
  Decoder dec2(raw, ByteOrder::kLittleEndian);
  EXPECT_EQ(dec2.read_raw(7).status().code(), Errc::kMalformedMessage);
}

TEST(CodecTest, ReadArrayExactOverflowAndCopyCount) {
  // A fixed-size read lands in its array with no alignment, counts one copy
  // of its bytes as read_raw does, and leaves the offset alone on failure.
  const Bytes raw = to_bytes("xabcdef");
  Decoder dec(raw, ByteOrder::kLittleEndian);
  ASSERT_TRUE(dec.read_octet().is_ok());
  BufStats::reset();
  const auto four = dec.read_array<4>();
  ASSERT_TRUE(four.is_ok());
  EXPECT_EQ(four.value(), (std::array<std::uint8_t, 4>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(BufStats::copies, 1u);
  EXPECT_EQ(BufStats::bytes_copied, 4u);
  EXPECT_EQ(dec.read_array<3>().status().code(), Errc::kMalformedMessage);
  EXPECT_EQ(dec.remaining(), 2u);
  EXPECT_EQ(BufStats::copies, 1u);
  BufStats::reset();
}

TEST(CodecTest, EncoderRawWritesCountOneCopy) {
  // A blob copied into a frame counts as a copy, as reading it back out
  // does; the length prefix of write_bytes does not.
  Encoder enc(ByteOrder::kLittleEndian);
  BufStats::reset();
  enc.write_raw(to_bytes("abc"));
  EXPECT_EQ(BufStats::copies, 1u);
  EXPECT_EQ(BufStats::bytes_copied, 3u);
  enc.write_bytes(to_bytes("defgh"));
  EXPECT_EQ(BufStats::copies, 2u);
  EXPECT_EQ(BufStats::bytes_copied, 8u);
  enc.write_uint32(7);
  EXPECT_EQ(BufStats::copies, 2u);
  BufStats::reset();
}

TEST(CodecTest, TruncatedPaddingRejected) {
  const Bytes raw{0x01};  // octet then nothing: aligning to 4 runs out
  Decoder dec(raw, ByteOrder::kLittleEndian);
  ASSERT_TRUE(dec.read_octet().is_ok());
  EXPECT_EQ(dec.read_uint32().status().code(), Errc::kMalformedMessage);
}

}  // namespace
}  // namespace itdos::cdr
