// CORBA Common Data Representation (CDR) encoder/decoder.
//
// CDR is byte-order-tagged: a message is marshalled in the *sender's* native
// byte order and the receiver swaps if needed. This is exactly why the paper
// cannot vote byte-by-byte across heterogeneous replicas (§3.6): two correct
// replicas of different endianness produce different marshalled bytes for
// the same value. Both byte orders are first-class here so tests and benches
// can construct genuinely heterogeneous replica populations.
//
// Alignment follows CDR: every primitive is aligned to its own size,
// measured from the start of the encapsulation.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"

namespace itdos::cdr {

enum class ByteOrder : std::uint8_t { kBigEndian = 0, kLittleEndian = 1 };

/// The byte order this build's CPU uses (for "native" marshalling).
ByteOrder native_byte_order();

class Encoder {
 public:
  /// With an arena, the marshal buffer is a recycled chunk and take_view()
  /// seals it back into that arena — the single-marshal-step discipline.
  /// `size_hint`, when non-zero, is an upper bound on the encoded size: the
  /// chunk is sized to it, so the encode never reallocates and a small
  /// message does not pin a large chunk.
  explicit Encoder(ByteOrder order = native_byte_order(), Arena* arena = nullptr,
                   std::size_t size_hint = 0)
      : order_(order), arena_(arena) {
    if (arena_) buffer_ = arena_->acquire(size_hint);
  }

  ByteOrder order() const { return order_; }

  void write_octet(std::uint8_t v);
  void write_boolean(bool v) { write_octet(v ? 1 : 0); }
  void write_int16(std::int16_t v) { write_uint(static_cast<std::uint16_t>(v), 2); }
  void write_uint16(std::uint16_t v) { write_uint(v, 2); }
  void write_int32(std::int32_t v) { write_uint(static_cast<std::uint32_t>(v), 4); }
  void write_uint32(std::uint32_t v) { write_uint(v, 4); }
  void write_int64(std::int64_t v) { write_uint(static_cast<std::uint64_t>(v), 8); }
  void write_uint64(std::uint64_t v) { write_uint(v, 8); }
  void write_float(float v);
  void write_double(double v);

  /// CDR string: uint32 length including NUL, chars, NUL.
  void write_string(std::string_view s);

  /// Counted byte sequence: uint32 length, raw bytes.
  void write_bytes(ByteView b);

  /// Raw bytes, no length prefix, no alignment (already-encoded blobs).
  void write_raw(ByteView b);

  /// Pads to `alignment` (power of two) from encapsulation start.
  void align(std::size_t alignment);

  const Bytes& buffer() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

  /// Seals the marshalled bytes into an immutable view without copying.
  BufView take_view() {
    return arena_ ? arena_->seal(std::move(buffer_)) : BufView(std::move(buffer_));
  }

  std::size_t size() const { return buffer_.size(); }

 private:
  void write_uint(std::uint64_t v, std::size_t width);

  ByteOrder order_;
  Arena* arena_;
  Bytes buffer_;
};

class Decoder {
 public:
  /// Decodes a buffer whose contents were written with `order`. The caller
  /// keeps `data` alive for the decoder's lifetime; views returned by the
  /// *_view readers borrow it too.
  Decoder(ByteView data, ByteOrder order)
      : owner_(BufView::borrow(data)), data_(data), order_(order) {}

  /// Decodes a refcounted view; *_view readers return sub-views that keep
  /// the underlying chunk alive on their own.
  Decoder(const BufView& data, ByteOrder order)
      : owner_(data), data_(owner_.bytes()), order_(order) {}

  /// Lvalue byte vectors are borrowed (caller keeps them alive); rvalues are
  /// adopted so views decoded from a temporary stay valid.
  Decoder(const Bytes& data, ByteOrder order) : Decoder(ByteView(data), order) {}
  Decoder(Bytes&& data, ByteOrder order) : Decoder(BufView(std::move(data)), order) {}

  ByteOrder order() const { return order_; }
  std::size_t remaining() const { return data_.size() - offset_; }
  std::size_t offset() const { return offset_; }
  bool exhausted() const { return remaining() == 0; }

  Result<std::uint8_t> read_octet();
  Result<bool> read_boolean();
  Result<std::int16_t> read_int16();
  Result<std::uint16_t> read_uint16();
  Result<std::int32_t> read_int32();
  Result<std::uint32_t> read_uint32();
  Result<std::int64_t> read_int64();
  Result<std::uint64_t> read_uint64();
  Result<float> read_float();
  Result<double> read_double();
  Result<std::string> read_string();
  Result<Bytes> read_bytes();

  /// Reads `n` raw bytes without alignment.
  Result<Bytes> read_raw(std::size_t n);

  /// `N` raw bytes, no alignment, straight into a fixed-size array (digests,
  /// MAC tags, signatures) with no heap buffer. Counts as one copy in
  /// BufStats, as read_raw does.
  template <std::size_t N>
  Result<std::array<std::uint8_t, N>> read_array() {
    std::array<std::uint8_t, N> out{};
    ITDOS_RETURN_IF_ERROR(read_into(out.data(), N));
    return out;
  }

  /// Counted byte sequence as a zero-copy sub-view of the decoded buffer
  /// (shares the chunk when the decoder was built from a BufView).
  Result<BufView> read_bytes_view();

  /// `n` raw bytes as a zero-copy sub-view, no alignment.
  Result<BufView> read_raw_view(std::size_t n);

  /// Skips padding to `alignment` from buffer start.
  Status align(std::size_t alignment);

 private:
  Result<std::uint64_t> read_uint(std::size_t width);
  Status read_into(std::uint8_t* out, std::size_t n);

  BufView owner_;
  ByteView data_;
  ByteOrder order_;
  std::size_t offset_ = 0;
};

}  // namespace itdos::cdr
