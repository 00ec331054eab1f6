#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

namespace itdos::crypto {

HmacKey::HmacKey(ByteView key) : inner_(detail::kInitialState), outer_(detail::kInitialState) {
  std::array<std::uint8_t, kBlockSize> block{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  const detail::CompressFn kernel = detail::selected_kernel();
  for (std::uint8_t& b : block) b ^= 0x36;
  kernel(inner_, block.data(), 1);
  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;
  kernel(outer_, block.data(), 1);
}

Digest HmacKey::mac(std::initializer_list<ByteView> segments) const {
  return detail::hmac_with(detail::selected_kernel(), *this, segments);
}

Digest detail::hmac_with(CompressFn kernel, const HmacKey& key,
                         std::initializer_list<ByteView> segments) {
  // Inner hash: whole blocks go straight to the kernel; a partial block
  // collects in `tail`, which then takes the padding: 0x80, zeros, and the
  // bit length (ipad block included) big-endian in the last 8 bytes. A
  // tail of more than 55 bytes leaves no room for the length and spills
  // into a second block.
  Sha256State state = key.inner_;
  std::array<std::uint8_t, 2 * kBlockSize> tail{};
  std::size_t buffered = 0;
  std::uint64_t total = kBlockSize;
  for (ByteView seg : segments) {
    if (seg.empty()) continue;
    total += seg.size();
    const std::uint8_t* data = seg.data();
    std::size_t size = seg.size();
    if (buffered > 0) {
      const std::size_t take = std::min(size, kBlockSize - buffered);
      std::memcpy(tail.data() + buffered, data, take);
      buffered += take;
      data += take;
      size -= take;
      if (buffered < kBlockSize) continue;
      kernel(state, tail.data(), 1);
      buffered = 0;
    }
    const std::size_t blocks = size / kBlockSize;
    if (blocks > 0) kernel(state, data, blocks);
    buffered = size - blocks * kBlockSize;
    if (buffered > 0) std::memcpy(tail.data(), data + blocks * kBlockSize, buffered);
  }
  const std::size_t padded = buffered + 1 + 8 <= kBlockSize ? kBlockSize : 2 * kBlockSize;
  tail[buffered] = 0x80;
  std::memset(tail.data() + buffered + 1, 0, padded - 8 - buffered - 1);
  store_be64(tail.data() + padded - 8, total * 8);
  kernel(state, tail.data(), padded / kBlockSize);

  // Outer hash: its input is always the opad block then the inner digest,
  // (64 + 32) * 8 = 768 bits, so it is one compression over the fixed block
  // inner digest || 0x80 || zeros || BE64(768).
  constexpr std::uint64_t kOuterInputBits = (kBlockSize + kDigestSize) * 8;
  std::array<std::uint8_t, kBlockSize> outer_block{};
  store_digest(state, outer_block.data());
  outer_block[kDigestSize] = 0x80;
  store_be64(outer_block.data() + kBlockSize - 8, kOuterInputBits);
  state = key.outer_;
  kernel(state, outer_block.data(), 1);
  Digest out{};
  store_digest(state, out.data());
  return out;
}

MacTag HmacKey::tag(ByteView data) const {
  const Digest d = mac(data);
  MacTag t;
  std::memcpy(t.data(), d.data(), t.size());
  return t;
}

bool HmacKey::verify(ByteView data, const MacTag& tag) const {
  const MacTag expected = this->tag(data);
  return constant_time_equal(ByteView(expected.data(), expected.size()),
                             ByteView(tag.data(), tag.size()));
}

Digest hmac_sha256(ByteView key, ByteView data) { return HmacKey(key).mac(data); }

Digest hmac_sha256(ByteView key, std::initializer_list<ByteView> segments) {
  return HmacKey(key).mac(segments);
}

MacTag mac_tag(ByteView key, ByteView data) { return HmacKey(key).tag(data); }

bool mac_verify(ByteView key, ByteView data, const MacTag& tag) {
  return HmacKey(key).verify(data, tag);
}

Bytes derive_key(const HmacKey& key, std::string_view label, ByteView info) {
  return digest_bytes(key.mac(
      {ByteView(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()), info}));
}

Bytes derive_key(ByteView key, std::string_view label, ByteView info) {
  return derive_key(HmacKey(key), label, info);
}

}  // namespace itdos::crypto
