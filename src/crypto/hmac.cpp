#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

namespace itdos::crypto {

HmacKey::HmacKey(ByteView key) {
  std::array<std::uint8_t, kBlockSize> block{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (std::uint8_t& b : block) b ^= 0x36;
  inner_.update(ByteView(block.data(), block.size()));
  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;
  outer_.update(ByteView(block.data(), block.size()));
}

Digest HmacKey::mac(std::initializer_list<ByteView> segments) const {
  Sha256 inner = inner_;
  for (ByteView seg : segments) inner.update(seg);
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  return outer.update(digest_view(inner_digest)).finish();
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
