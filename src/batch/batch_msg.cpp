#include "batch/batch_msg.hpp"

namespace itdos::batch {

namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

}  // namespace

BufView BatchMsg::encode_into(Arena& arena) const {
  // Entry count, then per entry at most 3 pad + 4 length + the bytes.
  std::size_t bound = 8;
  for (const BufView& entry : entries) bound += entry.size() + 8;
  cdr::Encoder enc(kWire, &arena, bound);
  enc.write_uint32(static_cast<std::uint32_t>(entries.size()));
  for (const BufView& entry : entries) enc.write_bytes(entry);
  return enc.take_view();
}

Result<BatchMsg> BatchMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  BatchMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t count, dec.read_uint32());
  if (count == 0) {
    return error(Errc::kMalformedMessage, "empty BATCH");
  }
  // Wire-count guard: a forged count must not size loops or allocations
  // beyond what the buffer can possibly hold (each entry costs >= 4 bytes
  // of length prefix), nor exceed the protocol-wide batch cap.
  if (count > kMaxBatchEntries || count > dec.remaining() / 4) {
    return error(Errc::kMalformedMessage, "hostile entry count in BATCH");
  }
  msg.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(BufView entry, dec.read_bytes_view());
    msg.entries.push_back(std::move(entry));
  }
  if (!dec.exhausted()) {
    return error(Errc::kMalformedMessage, "trailing bytes in BATCH");
  }
  return msg;
}

}  // namespace itdos::batch
