#include "cdr/codec.hpp"

namespace itdos::cdr {

void Encoder::write_string(std::string_view s) {
  put(static_cast<std::uint32_t>(s.size() + 1));
  append(buffer_, ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  buffer_.push_back(0);  // CDR strings are NUL-terminated on the wire
}

Status Decoder::malformed(const char* what) { return error(Errc::kMalformedMessage, what); }

Status Decoder::truncated_primitive(std::size_t at) {
  if (at > data_.size()) return malformed("truncated CDR padding");
  offset_ = at;
  return malformed("truncated CDR primitive");
}

Result<std::string> Decoder::read_string() {
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t len, read_uint32());
  if (len == 0) return malformed("CDR string length 0");
  if (remaining() < len) return malformed("truncated CDR string");
  if (data_[offset_ + len - 1] != 0) return malformed("CDR string missing NUL");
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_), len - 1);
  offset_ += len;
  return out;
}

Result<Bytes> Decoder::read_bytes() {
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t len, read_uint32());
  return read_raw(len);
}

Result<Bytes> Decoder::read_raw(std::size_t n) {
  if (remaining() < n) return malformed("truncated CDR bytes");
  BufStats::note_copy(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
            data_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
  offset_ += n;
  return out;
}

Status Decoder::read_into(std::uint8_t* out, std::size_t n) {
  if (remaining() < n) return malformed("truncated CDR bytes");
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
  if (remaining() < n) return malformed("truncated CDR bytes");
  BufView out = owner_.slice(offset_, n);
  offset_ += n;
  return out;
}

}  // namespace itdos::cdr
