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
// measured from the start of the encapsulation. An encapsulation nested in
// place (Encoder::begin_encapsulation) aligns from its own first byte.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"

namespace itdos::cdr {

enum class ByteOrder : std::uint8_t { kBigEndian = 0, kLittleEndian = 1 };

/// The byte order this build's CPU uses (for "native" marshalling).
constexpr ByteOrder native_byte_order() {
  return std::endian::native == std::endian::little ? ByteOrder::kLittleEndian
                                                    : ByteOrder::kBigEndian;
}

namespace detail {

/// `v` with its bytes reversed.
template <typename T>
constexpr T byteswap(T v) {
  static_assert(sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 2) return __builtin_bswap16(v);
  if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
  if constexpr (sizeof(T) == 8) return __builtin_bswap64(v);
}

/// `offset` rounded up to a multiple of `alignment`, a power of two.
constexpr std::size_t align_up(std::size_t offset, std::size_t alignment) {
  return (offset + (alignment - 1)) & ~(alignment - 1);
}

// Fixed-offset reads for decoders that check a frame's sizes themselves
// (bft::Envelope, batch::BatchMsg): each reads `data` at `at`, which the
// caller has checked is in range.

/// The little-endian u32 at `at`.
inline std::uint32_t load_le32(ByteView data, std::size_t at) {
  const std::uint8_t* p = data.data() + at;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

/// The little-endian u64 at `at`.
inline std::uint64_t load_le64(ByteView data, std::size_t at) {
  const std::uint8_t* p = data.data() + at;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

/// Writes `v` little-endian at `out` (fixed layouts built on the stack).
inline void store_le64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Whether the alignment pad data[from, to) is all zero bytes.
inline bool zero_pad(ByteView data, std::size_t from, std::size_t to) {
  for (std::size_t at = from; at < to; ++at) {
    if (data[at] != 0) return false;
  }
  return true;
}

}  // namespace detail

class Encoder {
 public:
  /// The capacity an encoder without a size hint starts with: small
  /// messages, such as a GIOP call with a few scalar arguments, never regrow.
  static constexpr std::size_t kDefaultCapacity = 128;

  /// `size_hint`, when non-zero, is an upper bound on the encoded size: the
  /// buffer is reserved to exactly it, so the encode never reallocates and
  /// the sealed chunk is no larger than the message needs.
  explicit Encoder(ByteOrder order = native_byte_order(), std::size_t size_hint = 0)
      : order_(order) {
    buffer_.reserve(size_hint != 0 ? size_hint : kDefaultCapacity);
  }

  ByteOrder order() const { return order_; }

  void write_octet(std::uint8_t v) { buffer_.push_back(v); }
  void write_boolean(bool v) { write_octet(v ? 1 : 0); }
  void write_int16(std::int16_t v) { put(static_cast<std::uint16_t>(v)); }
  void write_uint16(std::uint16_t v) { put(v); }
  void write_int32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void write_uint32(std::uint32_t v) { put(v); }
  void write_int64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void write_uint64(std::uint64_t v) { put(v); }
  void write_float(float v) { put(std::bit_cast<std::uint32_t>(v)); }
  void write_double(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  /// CDR string: uint32 length including NUL, chars, NUL.
  void write_string(std::string_view s);

  /// Counted byte sequence: uint32 length, raw bytes.
  void write_bytes(ByteView b) {
    put(static_cast<std::uint32_t>(b.size()));
    write_raw(b);
  }

  /// Raw bytes, no length prefix, no alignment (already-encoded blobs).
  /// Counts as one copy in BufStats, as Decoder::read_raw does.
  void write_raw(ByteView b) {
    BufStats::note_copy(b.size());
    append(buffer_, b);
  }

  /// Pads with zeros to `alignment` (power of two) from encapsulation start.
  void align(std::size_t alignment) { buffer_.resize(aligned(alignment)); }

  /// A nested encapsulation being written: where its length goes and the
  /// alignment origin to restore when it ends.
  struct Encapsulation {
    std::size_t length_at;
    std::size_t outer_origin;
  };

  /// Opens a counted byte sequence written in place: a length to be filled
  /// in, then contents whose alignment is measured from their first byte
  /// (what write_bytes of a separately marshalled buffer would produce).
  Encapsulation begin_encapsulation() {
    put(std::uint32_t{0});
    const Encapsulation opened{buffer_.size() - 4, origin_};
    origin_ = buffer_.size();
    return opened;
  }

  /// Closes `opened`: fills in its length and restores the outer origin.
  void end_encapsulation(const Encapsulation& opened) {
    auto length = static_cast<std::uint32_t>(buffer_.size() - origin_);
    if (order_ != native_byte_order()) length = detail::byteswap(length);
    std::memcpy(buffer_.data() + opened.length_at, &length, sizeof(length));
    origin_ = opened.outer_origin;
  }

  const Bytes& buffer() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

  /// Seals the marshalled bytes into an immutable view without copying.
  BufView take_view() { return BufView(std::move(buffer_)); }

  std::size_t size() const { return buffer_.size(); }

 private:
  /// One aligned primitive: zero padding to its width, then its bytes in
  /// `order_` — one store, byte-swapped first when `order_` is not native.
  template <typename T>
  void put(T v) {
    const std::size_t at = aligned(sizeof(T));
    buffer_.resize(at + sizeof(T));
    if (order_ != native_byte_order()) v = detail::byteswap(v);
    std::memcpy(buffer_.data() + at, &v, sizeof(v));
  }

  /// The end of the buffer rounded up to `alignment` from the origin.
  std::size_t aligned(std::size_t alignment) const {
    return origin_ + detail::align_up(buffer_.size() - origin_, alignment);
  }

  ByteOrder order_;
  Bytes buffer_;
  std::size_t origin_ = 0;  // where the innermost encapsulation starts
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

  Result<std::uint8_t> read_octet() {
    if (offset_ >= data_.size()) return malformed("truncated CDR octet");
    return data_[offset_++];
  }
  Result<bool> read_boolean() {
    ITDOS_ASSIGN_OR_RETURN(std::uint8_t v, read_octet());
    if (v > 1) return malformed("CDR boolean out of range");
    return v == 1;
  }
  Result<std::int16_t> read_int16() { return get<std::int16_t, std::uint16_t>(); }
  Result<std::uint16_t> read_uint16() { return get<std::uint16_t, std::uint16_t>(); }
  Result<std::int32_t> read_int32() { return get<std::int32_t, std::uint32_t>(); }
  Result<std::uint32_t> read_uint32() { return get<std::uint32_t, std::uint32_t>(); }
  Result<std::int64_t> read_int64() { return get<std::int64_t, std::uint64_t>(); }
  Result<std::uint64_t> read_uint64() { return get<std::uint64_t, std::uint64_t>(); }
  Result<float> read_float() { return get<float, std::uint32_t>(); }
  Result<double> read_double() { return get<double, std::uint64_t>(); }
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

 private:
  /// One aligned primitive of `Wire`'s width, read with one load and
  /// byte-swapped when `order_` is not native, then reinterpreted as `T`.
  template <typename T, typename Wire>
  Result<T> get() {
    const std::size_t at = detail::align_up(offset_, sizeof(Wire));
    if (at + sizeof(Wire) > data_.size()) return truncated_primitive(at);
    Wire v = 0;
    std::memcpy(&v, data_.data() + at, sizeof(v));
    if (order_ != native_byte_order()) v = detail::byteswap(v);
    offset_ = at + sizeof(Wire);
    return std::bit_cast<T>(v);
  }

  /// The cold paths: a kMalformedMessage status with `what` as its detail.
  /// Out of line so the primitives inline to a bounds check and a load.
  [[gnu::cold, gnu::noinline]] static Status malformed(const char* what);
  /// A primitive whose aligned start is `at` runs past the end: padding
  /// that runs out, or the value itself, which leaves the offset padded.
  [[gnu::cold, gnu::noinline]] Status truncated_primitive(std::size_t at);
  Status read_into(std::uint8_t* out, std::size_t n);

  BufView owner_;
  ByteView data_;
  ByteOrder order_;
  std::size_t offset_ = 0;
};

}  // namespace itdos::cdr
