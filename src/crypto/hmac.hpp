// HMAC-SHA256 (RFC 2104). Used for key derivation (the seal key and the
// pairwise authenticator keys), share derivation in the distributed PRF, and
// the simulated signature scheme. The authenticators themselves are
// AES-256-CMAC (crypto/cmac.hpp).
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"

namespace itdos::crypto {

/// Truncated MAC tag as carried on the wire (16 bytes is ample here).
inline constexpr std::size_t kMacTagSize = 16;
using MacTag = std::array<std::uint8_t, kMacTagSize>;

class HmacKey;

namespace detail {
/// HmacKey::mac on a given compression kernel; mac passes selected_kernel(),
/// and the HMAC cross-check tests pass each kernel by name.
Digest hmac_with(CompressFn kernel, const HmacKey& key,
                 std::initializer_list<ByteView> segments);
}  // namespace detail

/// An HMAC-SHA256 key with its ipad and opad blocks already absorbed. The
/// two 8-word midstates are computed once, when the key is made; each MAC
/// runs the kernel from the inner one over its own data, padded on the
/// stack, then makes one outer compression. Hold one of these for any key
/// used more than once.
class HmacKey {
 public:
  explicit HmacKey(ByteView key);  // any key length

  Digest mac(ByteView data) const { return mac({data}); }
  /// MAC over the concatenation of `segments` (no concatenation copy).
  Digest mac(std::initializer_list<ByteView> segments) const;

  /// `mac` truncated to the wire tag, and its constant-time check.
  MacTag tag(ByteView data) const;
  bool verify(ByteView data, const MacTag& tag) const;

 private:
  friend Digest detail::hmac_with(detail::CompressFn kernel, const HmacKey& key,
                                  std::initializer_list<ByteView> segments);

  detail::Sha256State inner_;  // after absorbing key ^ ipad
  detail::Sha256State outer_;  // after absorbing key ^ opad
};

/// One-shot HMAC-SHA256 over `data` with `key` (any key length).
Digest hmac_sha256(ByteView key, ByteView data);

/// HMAC with multiple data segments (avoids concatenation copies).
Digest hmac_sha256(ByteView key, std::initializer_list<ByteView> segments);

MacTag mac_tag(ByteView key, ByteView data);
bool mac_verify(ByteView key, ByteView data, const MacTag& tag);

/// HKDF-style key derivation: out = HMAC(key, label || info).
Bytes derive_key(const HmacKey& key, std::string_view label, ByteView info);
Bytes derive_key(ByteView key, std::string_view label, ByteView info);

}  // namespace itdos::crypto
