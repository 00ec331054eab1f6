// Differential property test of the CDR codec primitives.
//
// Seeded random sequences of every primitive, at every starting
// misalignment and in both byte orders, are marshalled by cdr::Encoder and
// by a byte-at-a-time reference encoder kept here; the bytes must match.
// The codec must decode every value back, and a buffer cut short at any
// offset must fail with the reference decoder's error text, never crash and
// never succeed.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "cdr/codec.hpp"
#include "common/rng.hpp"

namespace itdos::cdr {
namespace {

enum class Kind {
  kOctet, kBoolean, kInt16, kUInt16, kInt32, kUInt32, kInt64, kUInt64,
  kFloat, kDouble, kString, kBytes,
};
constexpr int kKinds = 12;

struct Op {
  Kind kind = Kind::kOctet;
  std::uint64_t bits = 0;  // integers and floating-point bit patterns
  std::string text;        // kString
  Bytes blob;              // kBytes
};

std::size_t width_of(Kind k) {
  switch (k) {
    case Kind::kInt16: case Kind::kUInt16: return 2;
    case Kind::kInt32: case Kind::kUInt32: case Kind::kFloat: return 4;
    case Kind::kInt64: case Kind::kUInt64: case Kind::kDouble: return 8;
    default: return 1;
  }
}

/// The reference encoder: pads and writes one byte at a time, the order's
/// byte significance spelled out per byte.
struct RefEncoder {
  ByteOrder order;
  Bytes out;

  void align(std::size_t a) {
    while (out.size() % a != 0) out.push_back(0);
  }
  void uint(std::uint64_t v, std::size_t w) {
    align(w);
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t byte = order == ByteOrder::kLittleEndian ? i : w - 1 - i;
      out.push_back(static_cast<std::uint8_t>(v >> (8 * byte)));
    }
  }
  void put(const Op& op) {
    switch (op.kind) {
      case Kind::kOctet: case Kind::kBoolean: out.push_back(static_cast<std::uint8_t>(op.bits)); break;
      case Kind::kString:
        uint(op.text.size() + 1, 4);
        for (const char c : op.text) out.push_back(static_cast<std::uint8_t>(c));
        out.push_back(0);
        break;
      case Kind::kBytes:
        uint(op.blob.size(), 4);
        out.insert(out.end(), op.blob.begin(), op.blob.end());
        break;
      default: uint(op.bits, width_of(op.kind)); break;
    }
  }
};

/// The reference decoder: the same checks, in the same order and with the
/// same error texts as the codec has always had, reading byte by byte.
/// Returns the first error, or nullopt when every op decodes to its value.
struct RefDecoder {
  ByteView data;
  ByteOrder order;
  std::size_t off = 0;
  std::optional<std::string> error;

  std::size_t remaining() const { return data.size() - off; }
  bool fail(const char* what) {
    error = what;
    return false;
  }
  bool align(std::size_t a) {
    const std::size_t misalign = off % a;
    if (misalign == 0) return true;
    if (remaining() < a - misalign) return fail("truncated CDR padding");
    off += a - misalign;
    return true;
  }
  bool uint(std::size_t w, std::uint64_t& v) {
    if (!align(w)) return false;
    if (remaining() < w) return fail("truncated CDR primitive");
    v = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t byte = order == ByteOrder::kLittleEndian ? i : w - 1 - i;
      v |= std::uint64_t{data[off + i]} << (8 * byte);
    }
    off += w;
    return true;
  }
  bool get(const Op& op) {
    std::uint64_t v = 0;
    switch (op.kind) {
      case Kind::kOctet:
        if (remaining() < 1) return fail("truncated CDR octet");
        ++off;
        return true;
      case Kind::kBoolean:
        if (remaining() < 1) return fail("truncated CDR octet");
        if (data[off++] > 1) return fail("CDR boolean out of range");
        return true;
      case Kind::kString:
        if (!uint(4, v)) return false;
        if (v == 0) return fail("CDR string length 0");
        if (remaining() < v) return fail("truncated CDR string");
        if (data[off + v - 1] != 0) return fail("CDR string missing NUL");
        off += v;
        return true;
      case Kind::kBytes:
        if (!uint(4, v)) return false;
        if (remaining() < v) return fail("truncated CDR bytes");
        off += v;
        return true;
      default: return uint(width_of(op.kind), v);
    }
  }
};

void encode(Encoder& enc, const Op& op) {
  switch (op.kind) {
    case Kind::kOctet: enc.write_octet(static_cast<std::uint8_t>(op.bits)); break;
    case Kind::kBoolean: enc.write_boolean(op.bits != 0); break;
    case Kind::kInt16: enc.write_int16(static_cast<std::int16_t>(op.bits)); break;
    case Kind::kUInt16: enc.write_uint16(static_cast<std::uint16_t>(op.bits)); break;
    case Kind::kInt32: enc.write_int32(static_cast<std::int32_t>(op.bits)); break;
    case Kind::kUInt32: enc.write_uint32(static_cast<std::uint32_t>(op.bits)); break;
    case Kind::kInt64: enc.write_int64(static_cast<std::int64_t>(op.bits)); break;
    case Kind::kUInt64: enc.write_uint64(op.bits); break;
    case Kind::kFloat: enc.write_float(std::bit_cast<float>(static_cast<std::uint32_t>(op.bits))); break;
    case Kind::kDouble: enc.write_double(std::bit_cast<double>(op.bits)); break;
    case Kind::kString: enc.write_string(op.text); break;
    case Kind::kBytes: enc.write_bytes(op.blob); break;
  }
}

/// Decodes `op` and checks its value; returns the status of the read.
/// `as_view` reads a byte sequence as a view instead of a copy.
Status decode_and_check(Decoder& dec, const Op& op, bool as_view) {
  const auto same = [](auto got, auto want) -> Status {
    if (got == want) return Status::ok();
    return error(Errc::kInternal, "decoded value differs");
  };
#define ITDOS_READ(call, want)                      \
  do {                                              \
    auto r = dec.call;                              \
    if (!r.is_ok()) return r.status();              \
    return same(r.value(), want);                   \
  } while (false)
  switch (op.kind) {
    case Kind::kOctet: ITDOS_READ(read_octet(), static_cast<std::uint8_t>(op.bits));
    case Kind::kBoolean: ITDOS_READ(read_boolean(), op.bits != 0);
    case Kind::kInt16: ITDOS_READ(read_int16(), static_cast<std::int16_t>(op.bits));
    case Kind::kUInt16: ITDOS_READ(read_uint16(), static_cast<std::uint16_t>(op.bits));
    case Kind::kInt32: ITDOS_READ(read_int32(), static_cast<std::int32_t>(op.bits));
    case Kind::kUInt32: ITDOS_READ(read_uint32(), static_cast<std::uint32_t>(op.bits));
    case Kind::kInt64: ITDOS_READ(read_int64(), static_cast<std::int64_t>(op.bits));
    case Kind::kUInt64: ITDOS_READ(read_uint64(), op.bits);
    case Kind::kFloat: {
      auto r = dec.read_float();
      if (!r.is_ok()) return r.status();
      return same(std::bit_cast<std::uint32_t>(r.value()), static_cast<std::uint32_t>(op.bits));
    }
    case Kind::kDouble: {
      auto r = dec.read_double();
      if (!r.is_ok()) return r.status();
      return same(std::bit_cast<std::uint64_t>(r.value()), op.bits);
    }
    case Kind::kString: ITDOS_READ(read_string(), op.text);
    case Kind::kBytes:
      if (as_view) {
        auto r = dec.read_bytes_view();
        if (!r.is_ok()) return r.status();
        return same(r.value() == op.blob, true);
      }
      ITDOS_READ(read_bytes(), op.blob);
  }
#undef ITDOS_READ
  return error(Errc::kInternal, "unknown kind");
}

/// A random value of a random kind. Floating-point patterns are random
/// bits, with any NaN made quiet so passing it by value cannot change it.
Op random_op(Rng& rng) {
  Op op;
  op.kind = static_cast<Kind>(rng.next_below(kKinds));
  op.bits = rng.next_u64();
  switch (op.kind) {
    case Kind::kOctet: op.bits &= 0xff; break;
    case Kind::kBoolean: op.bits &= 1; break;
    case Kind::kFloat:
      op.bits &= 0xffffffffu;
      if ((op.bits & 0x7f800000u) == 0x7f800000u && (op.bits & 0x7fffffu) != 0) op.bits |= 0x400000u;
      break;
    case Kind::kDouble:
      if ((op.bits >> 52 & 0x7ff) == 0x7ff && (op.bits & 0xfffffffffffffULL) != 0) {
        op.bits |= 1ULL << 51;
      }
      break;
    case Kind::kString:
      op.text.resize(rng.next_below(20));
      for (char& c : op.text) c = static_cast<char>('a' + rng.next_below(26));
      break;
    case Kind::kBytes:
      op.blob.resize(rng.next_below(20));
      for (std::uint8_t& b : op.blob) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
    default: break;
  }
  return op;
}

class CodecPropertyTest : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(CodecPropertyTest, MatchesByteAtATimeReferenceAndRoundTrips) {
  const ByteOrder order = GetParam();
  for (std::size_t misalign = 0; misalign < 8; ++misalign) {
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
      Rng rng(trial * 16 + misalign * 2 + static_cast<std::uint64_t>(order));
      std::vector<Op> ops(misalign);  // leading octets set the misalignment
      const std::size_t count = 1 + rng.next_below(24);
      for (std::size_t i = 0; i < count; ++i) ops.push_back(random_op(rng));

      Encoder enc(order);
      RefEncoder ref{order, {}};
      for (const Op& op : ops) {
        encode(enc, op);
        ref.put(op);
      }
      SCOPED_TRACE(testing::Message() << "misalign " << misalign << " trial " << trial);
      ASSERT_EQ(enc.buffer(), ref.out);

      const bool as_view = trial % 2 == 1;
      Decoder dec(enc.buffer(), order);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Status s = decode_and_check(dec, ops[i], as_view);
        ASSERT_TRUE(s.is_ok()) << "op " << i << ": " << s.to_string();
      }
      EXPECT_TRUE(dec.exhausted());
    }
  }
}

TEST_P(CodecPropertyTest, EveryTruncationFailsWithTheReferenceError) {
  const ByteOrder order = GetParam();
  for (std::size_t misalign = 0; misalign < 8; ++misalign) {
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      Rng rng(1000 + trial * 16 + misalign * 2 + static_cast<std::uint64_t>(order));
      std::vector<Op> ops(misalign);
      const std::size_t count = 1 + rng.next_below(12);
      for (std::size_t i = 0; i < count; ++i) ops.push_back(random_op(rng));
      Encoder enc(order);
      for (const Op& op : ops) encode(enc, op);
      const Bytes& wire = enc.buffer();

      for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        // A copy of exactly `cut` bytes, so reading past it is a heap
        // overflow that a sanitizer build reports.
        const Bytes truncated(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
        Decoder dec(truncated, order);
        RefDecoder ref{truncated, order, 0, std::nullopt};
        bool failed = false;
        for (std::size_t i = 0; i < ops.size() && !failed; ++i) {
          const bool ref_ok = ref.get(ops[i]);
          const Status s = decode_and_check(dec, ops[i], cut % 2 == 1);
          SCOPED_TRACE(testing::Message() << "misalign " << misalign << " trial " << trial
                                          << " cut " << cut << " op " << i);
          if (ref_ok) {
            ASSERT_TRUE(s.is_ok()) << s.to_string();
            ASSERT_EQ(dec.offset(), ref.off);
            continue;
          }
          ASSERT_FALSE(s.is_ok());
          EXPECT_EQ(s.code(), Errc::kMalformedMessage);
          EXPECT_EQ(s.detail(), *ref.error);
          failed = true;
        }
        EXPECT_TRUE(failed) << "a buffer cut at " << cut << " of " << wire.size()
                            << " bytes decoded in full";
      }
    }
  }
}

TEST_P(CodecPropertyTest, HintedEncoderNeverReallocates) {
  // An encoder given an upper bound on its size keeps its first buffer.
  const ByteOrder order = GetParam();
  Rng rng(77 + static_cast<std::uint64_t>(order));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Op> ops;
    const std::size_t count = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < count; ++i) ops.push_back(random_op(rng));
    RefEncoder ref{order, {}};
    for (const Op& op : ops) ref.put(op);

    Encoder enc(order, ref.out.size());
    const std::uint8_t* const first = enc.buffer().data();
    for (const Op& op : ops) encode(enc, op);
    EXPECT_EQ(enc.buffer().data(), first) << "trial " << trial;
    EXPECT_EQ(enc.buffer(), ref.out);
  }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, CodecPropertyTest,
                         ::testing::Values(ByteOrder::kBigEndian, ByteOrder::kLittleEndian),
                         [](const auto& info) {
                           return info.param == ByteOrder::kBigEndian ? "BigEndian"
                                                                      : "LittleEndian";
                         });

}  // namespace
}  // namespace itdos::cdr
