// SHA-256 (FIPS 180-4), implemented from scratch. This is the single hash
// primitive underlying MACs, the stream cipher, digests in BFT messages,
// checkpoint hashes, and share verification.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace itdos::crypto {

inline constexpr std::size_t kDigestSize = 32;
inline constexpr std::size_t kBlockSize = 64;  // one compression-function input

using Digest = std::array<std::uint8_t, kDigestSize>;

/// Incremental SHA-256. The keyed construction (HmacKey) keeps only an
/// 8-word midstate and drives the compression kernel itself.
class Sha256 {
 public:
  Sha256();

  Sha256& update(ByteView data);
  Sha256& update(std::string_view s) {
    return update(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteView data);
Digest sha256(std::string_view s);

/// Digest as an owning buffer (for APIs that traffic in Bytes).
Bytes digest_bytes(const Digest& d);

/// Digest view.
inline ByteView digest_view(const Digest& d) { return ByteView(d.data(), d.size()); }

}  // namespace itdos::crypto
