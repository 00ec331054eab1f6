#include "batch/batch_msg.hpp"

namespace itdos::batch {

namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

}  // namespace

std::size_t BatchMsg::size_hint() const {
  std::size_t bound = 4;
  for (const BatchEntry& entry : entries) bound += 21 + entry.request.size() + entry.auth.size();
  return bound;
}

BufView BatchMsg::encode() const {
  cdr::Encoder enc(kWire, size_hint());
  enc.write_uint32(static_cast<std::uint32_t>(entries.size()));
  for (const BatchEntry& entry : entries) {
    enc.write_bytes(entry.request);
    enc.write_uint32(static_cast<std::uint32_t>(entry.auth.size() / kAuthEntrySize));
    if (!entry.auth.empty()) {
      enc.align(8);
      enc.write_raw(entry.auth);
    }
  }
  return enc.take_view();
}

Result<BatchMsg> BatchMsg::decode(const BufView& data) {
  // Fixed offsets, as bft::Envelope::decode reads its frame: every length
  // and count is checked against the bytes left before anything is read
  // or sized from it, and every pad must be zero (no MAC covers the pads,
  // so one batch has one wire form).
  using cdr::detail::align_up;
  using cdr::detail::load_le32;
  using cdr::detail::zero_pad;
  const auto malformed = [](const char* what) { return error(Errc::kMalformedMessage, what); };
  const std::size_t size = data.size();
  if (size < 4) return malformed("truncated BATCH");
  const std::uint32_t count = load_le32(data, 0);
  if (count == 0) return malformed("empty BATCH");
  // Wire-count guard: each entry costs at least 8 bytes (its request
  // length and its authenticator count), and no batch exceeds the
  // protocol-wide cap.
  if (count > kMaxBatchEntries || count > (size - 4) / 8) {
    return malformed("hostile entry count in BATCH");
  }
  BatchMsg msg;
  msg.entries.reserve(count);
  std::size_t at = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t length_at = align_up(at, 4);
    if (length_at + 4 > size) return malformed("truncated BATCH entry");
    if (!zero_pad(data, at, length_at)) return malformed("non-zero BATCH padding");
    const std::uint32_t length = load_le32(data, length_at);
    at = length_at + 4;
    if (length > size - at) return malformed("truncated BATCH entry");
    BatchEntry entry;
    entry.request = data.slice(at, length);
    at += length;
    const std::size_t count_at = align_up(at, 4);
    if (count_at + 4 > size) return malformed("truncated BATCH entry");
    if (!zero_pad(data, at, count_at)) return malformed("non-zero BATCH padding");
    const std::uint32_t auth_count = load_le32(data, count_at);
    at = count_at + 4;
    if (std::uint64_t{auth_count} * kAuthEntrySize > size - at) {
      return malformed("hostile authenticator count in BATCH");
    }
    if (auth_count > 0) {
      const std::size_t entries_at = align_up(at, 8);
      const std::size_t auth_bytes = std::size_t{auth_count} * kAuthEntrySize;
      if (entries_at > size || auth_bytes > size - entries_at) {
        return malformed("truncated BATCH entry");
      }
      if (!zero_pad(data, at, entries_at)) return malformed("non-zero BATCH padding");
      entry.auth = data.slice(entries_at, auth_bytes);
      at = entries_at + auth_bytes;
    }
    msg.entries.push_back(std::move(entry));
  }
  if (at != size) return malformed("trailing bytes in BATCH");
  return msg;
}

}  // namespace itdos::batch
