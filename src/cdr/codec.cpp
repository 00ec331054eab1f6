#include "cdr/codec.hpp"

#include <bit>
#include <cstring>

namespace itdos::cdr {

ByteOrder native_byte_order() {
  return std::endian::native == std::endian::little ? ByteOrder::kLittleEndian
                                                    : ByteOrder::kBigEndian;
}

void Encoder::align(std::size_t alignment) {
  const std::size_t misalign = buffer_.size() % alignment;
  if (misalign != 0) {
    buffer_.resize(buffer_.size() + (alignment - misalign), 0);
  }
}

void Encoder::write_octet(std::uint8_t v) { buffer_.push_back(v); }

void Encoder::write_uint(std::uint64_t v, std::size_t width) {
  align(width);
  std::uint8_t bytes[8] = {};
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t shift = order_ == ByteOrder::kLittleEndian ? i : width - 1 - i;
    bytes[i] = static_cast<std::uint8_t>(v >> (shift * 8));
  }
  buffer_.insert(buffer_.end(), bytes, bytes + width);
}

void Encoder::write_float(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_uint(bits, 4);
}

void Encoder::write_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_uint(bits, 8);
}

void Encoder::write_string(std::string_view s) {
  write_uint32(static_cast<std::uint32_t>(s.size() + 1));
  append(buffer_, ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  buffer_.push_back(0);  // CDR strings are NUL-terminated on the wire
}

void Encoder::write_bytes(ByteView b) {
  write_uint32(static_cast<std::uint32_t>(b.size()));
  append(buffer_, b);
}

void Encoder::write_raw(ByteView b) { append(buffer_, b); }

Status Decoder::align(std::size_t alignment) {
  const std::size_t misalign = offset_ % alignment;
  if (misalign == 0) return Status::ok();
  const std::size_t pad = alignment - misalign;
  if (remaining() < pad) {
    return error(Errc::kMalformedMessage, "truncated CDR padding");
  }
  offset_ += pad;
  return Status::ok();
}

Result<std::uint64_t> Decoder::read_uint(std::size_t width) {
  ITDOS_RETURN_IF_ERROR(align(width));
  if (remaining() < width) {
    return error(Errc::kMalformedMessage, "truncated CDR primitive");
  }
  std::uint64_t v = 0;
  if (order_ == ByteOrder::kLittleEndian) {
    for (std::size_t i = 0; i < width; ++i) {
      v |= std::uint64_t(data_[offset_ + i]) << (i * 8);
    }
  } else {
    for (std::size_t i = 0; i < width; ++i) {
      v = (v << 8) | data_[offset_ + i];
    }
  }
  offset_ += width;
  return v;
}

Result<std::uint8_t> Decoder::read_octet() {
  if (remaining() < 1) return error(Errc::kMalformedMessage, "truncated CDR octet");
  return data_[offset_++];
}

Result<bool> Decoder::read_boolean() {
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t v, read_octet());
  if (v > 1) return error(Errc::kMalformedMessage, "CDR boolean out of range");
  return v == 1;
}

Result<std::int16_t> Decoder::read_int16() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t v, read_uint(2));
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(v));
}

Result<std::uint16_t> Decoder::read_uint16() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t v, read_uint(2));
  return static_cast<std::uint16_t>(v);
}

Result<std::int32_t> Decoder::read_int32() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t v, read_uint(4));
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}

Result<std::uint32_t> Decoder::read_uint32() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t v, read_uint(4));
  return static_cast<std::uint32_t>(v);
}

Result<std::int64_t> Decoder::read_int64() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t v, read_uint(8));
  return static_cast<std::int64_t>(v);
}

Result<std::uint64_t> Decoder::read_uint64() { return read_uint(8); }

Result<float> Decoder::read_float() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t v, read_uint(4));
  const auto bits = static_cast<std::uint32_t>(v);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

Result<double> Decoder::read_double() {
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t bits, read_uint(8));
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

Result<std::string> Decoder::read_string() {
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t len, read_uint32());
  if (len == 0) return error(Errc::kMalformedMessage, "CDR string length 0");
  if (remaining() < len) return error(Errc::kMalformedMessage, "truncated CDR string");
  if (data_[offset_ + len - 1] != 0) {
    return error(Errc::kMalformedMessage, "CDR string missing NUL");
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_), len - 1);
  offset_ += len;
  return out;
}

Result<Bytes> Decoder::read_bytes() {
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t len, read_uint32());
  return read_raw(len);
}

Result<Bytes> Decoder::read_raw(std::size_t n) {
  if (remaining() < n) return error(Errc::kMalformedMessage, "truncated CDR bytes");
  BufStats::note_copy(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
            data_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
  offset_ += n;
  return out;
}

Status Decoder::read_into(std::uint8_t* out, std::size_t n) {
  if (remaining() < n) return error(Errc::kMalformedMessage, "truncated CDR bytes");
  BufStats::note_copy(n);
  std::memcpy(out, data_.data() + offset_, n);
  offset_ += n;
  return Status::ok();
}

Result<BufView> Decoder::read_bytes_view() {
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t len, read_uint32());
  return read_raw_view(len);
}

Result<BufView> Decoder::read_raw_view(std::size_t n) {
  if (remaining() < n) return error(Errc::kMalformedMessage, "truncated CDR bytes");
  BufView out = owner_.slice(offset_, n);
  offset_ += n;
  return out;
}

}  // namespace itdos::cdr
