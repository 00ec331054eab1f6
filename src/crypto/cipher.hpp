// Symmetric confidentiality for ITDOS connections (§3.5).
//
// Substitution note (see DESIGN.md §4): the paper cites DES [12]; we provide
// a CTR-mode stream cipher on SHA-256 plus encrypt-then-MAC sealing. The
// interface mirrors a real AEAD so a production cipher could be swapped in.
//
// The construction, for a 32-byte communication key K and a 12-byte nonce:
//   k_enc = HMAC-SHA256(K, "itdos.enc"),  k_mac = HMAC-SHA256(K, "itdos.mac")
//   keystream block i = SHA-256(pad64(k_enc) || nonce || LE64(i)), i = 0, 1, ...
//   ciphertext = plaintext XOR keystream (the last block truncated)
//   sealed = nonce || ciphertext || first 16 bytes of
//            HMAC-SHA256(k_mac, nonce || aad || ciphertext)
// pad64 zero-pads k_enc to one 64-byte SHA-256 block. Every keystream input
// is exactly 84 bytes (so length extension does not apply). The key caches
// the chaining state after pad64(k_enc), so the second, padded block is
// nonce || LE64(i) || 0x80 || zeros || BE64(672) and differs between blocks
// only in the counter: each 32-byte block of keystream is one call of the
// CPU-selected compression kernel on a copy of the cached state. A nonce
// must never repeat under one key, across element incarnations too.
// DESIGN.md §6j gives the key schedule, the block template and the PRF
// assumption.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256_kernel.hpp"

namespace itdos::crypto {

inline constexpr std::size_t kSymmetricKeySize = 32;
inline constexpr std::size_t kNonceSize = 12;

/// A symmetric communication key (the paper's "communication key"). Its two
/// subkeys are derived and absorbed into SHA-256 state once, when the key is
/// made, so sealing and opening pay only for the message's own bytes.
class SymmetricKey {
 public:
  /// The all-zero key, a placeholder; real keys come from from_bytes.
  SymmetricKey();

  static SymmetricKey from_bytes(ByteView b);
  ByteView view() const { return ByteView(bytes_.data(), bytes_.size()); }

  /// Keys compare by their bytes; the cached state is a function of them.
  bool operator==(const SymmetricKey& other) const { return bytes_ == other.bytes_; }

  /// First 8 hex chars — safe to log, identifies (not reveals) the key.
  std::string fingerprint() const;

  /// SHA-256 chaining state after absorbing pad64(k_enc): every keystream
  /// block is one compression from a copy of it.
  const detail::Sha256State& keystream_midstate() const { return keystream_midstate_; }
  /// The tag key, k_mac.
  const HmacKey& mac_key() const { return mac_; }

 private:
  using Raw = std::array<std::uint8_t, kSymmetricKeySize>;
  explicit SymmetricKey(const Raw& bytes);

  Raw bytes_;
  detail::Sha256State keystream_midstate_;
  HmacKey mac_;
};

using Nonce = std::array<std::uint8_t, kNonceSize>;

/// Deterministic per-message nonce from (sender, counter). Nonces must never
/// repeat under one key. ITDOS keys are per connection epoch, and the counter
/// is a value the sender seals only one plaintext under: the request id for
/// requests and replies, the queue index for state bundles. A counter kept
/// in memory would restart with a replacement element that keeps its
/// predecessor's identity and keys.
Nonce make_nonce(std::uint64_t sender, std::uint64_t counter);

/// CTR mode (encrypt == decrypt): out = in XOR keystream. `out` is as long
/// as `in`, and is either `in` itself or does not overlap it.
void ctr_crypt(const SymmetricKey& key, const Nonce& nonce, ByteView in,
               std::span<std::uint8_t> out);

namespace detail {
/// ctr_crypt on a given compression kernel; ctr_crypt passes
/// selected_kernel(), and the keystream tests pass each kernel by name.
void ctr_crypt_with(CompressFn kernel, const SymmetricKey& key, const Nonce& nonce,
                    ByteView in, std::span<std::uint8_t> out);
}  // namespace detail

/// Sealed message: nonce || ciphertext || tag, where
/// tag = HMAC(k_mac, nonce || aad || ciphertext) truncated.
Bytes seal(const SymmetricKey& key, const Nonce& nonce, ByteView aad, ByteView plaintext);

/// Opens a sealed message; kAuthFailure if the tag does not verify.
Result<Bytes> open(const SymmetricKey& key, ByteView aad, ByteView sealed);

/// Minimum size of a sealed buffer (nonce + tag, empty plaintext).
inline constexpr std::size_t kSealOverhead = kNonceSize + kMacTagSize;

}  // namespace itdos::crypto
