// Symmetric confidentiality for ITDOS connections (§3.5).
//
// Substitution note (see DESIGN.md §4): the paper cites DES [12]; we seal
// with AES-256-GCM (NIST SP 800-38D), an AEAD, behind the same interface
// the earlier SHA-256 stream cipher had, so the wire layout is unchanged.
//
// For a 32-byte communication key K and a 12-byte nonce:
//   k_enc  = HMAC-SHA256(K, "itdos.enc"), the AES-256 key
//   sealed = nonce || ciphertext || tag,
//            (ciphertext, tag) = AES-256-GCM(k_enc, nonce, aad, plaintext)
// with GCM's 96-bit-nonce counter blocks (J0 = nonce || 0^31 || 1) and a
// 16-byte tag. The key caches the AES round keys and H, H^2, ..., H^16, so
// sealing and opening pay only for the message's own bytes. `open` checks
// the tag before it decrypts. A nonce must never repeat under one key,
// across element incarnations too: under GCM a repeated nonce reveals the
// XOR of two plaintexts and lets an eavesdropper solve for the GHASH key,
// after which tags can be forged. DESIGN.md §6j gives the key schedule,
// kernel selection and nonce discipline.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/gcm_kernel.hpp"
#include "crypto/hmac.hpp"

namespace itdos::crypto {

inline constexpr std::size_t kSymmetricKeySize = 32;
inline constexpr std::size_t kNonceSize = 12;

/// A symmetric communication key (the paper's "communication key"). Its
/// cipher key k_enc is derived and expanded once, when the key is made, so
/// sealing and opening pay only for the message's own bytes.
class SymmetricKey {
 public:
  /// The all-zero key, a placeholder; real keys come from from_bytes.
  SymmetricKey();

  static SymmetricKey from_bytes(ByteView b);
  ByteView view() const { return ByteView(bytes_.data(), bytes_.size()); }

  /// Keys compare by their bytes; the cached schedule is a function of them.
  bool operator==(const SymmetricKey& other) const { return bytes_ == other.bytes_; }

  /// First 8 hex chars — safe to log, identifies (not reveals) the key.
  std::string fingerprint() const;

  /// k_enc's AES-256 round keys and GHASH key powers.
  const detail::GcmKey& gcm_key() const { return gcm_; }

 private:
  using Raw = std::array<std::uint8_t, kSymmetricKeySize>;
  explicit SymmetricKey(const Raw& bytes);

  Raw bytes_;
  detail::GcmKey gcm_;
};

using Nonce = std::array<std::uint8_t, kNonceSize>;

/// Deterministic per-message nonce from (sender, counter). Nonces must never
/// repeat under one key. ITDOS keys are per connection epoch, and the counter
/// is a value the sender seals only one plaintext under: the request id for
/// requests and replies, the queue index for state bundles. A counter kept
/// in memory would restart with a replacement element that keeps its
/// predecessor's identity and keys.
Nonce make_nonce(std::uint64_t sender, std::uint64_t counter);

namespace detail {
/// GCM's two halves on a given kernel; seal and open pass
/// selected_gcm_kernel(), and the kernel tests pass each kernel by name.
/// gcm_ctr is the CTR half (encrypt == decrypt): out = in XOR the AES-CTR
/// keystream that starts at counter block 2, the one that carries the first
/// plaintext block. `out` is as long as `in`, and is either `in` itself or
/// does not overlap it. gcm_tag is the tag over (aad, ciphertext).
void gcm_ctr(const GcmKernel& kernel, const SymmetricKey& key, const Nonce& nonce, ByteView in,
             std::span<std::uint8_t> out);
MacTag gcm_tag(const GcmKernel& kernel, const SymmetricKey& key, const Nonce& nonce,
               ByteView aad, ByteView ciphertext);
}  // namespace detail

/// Sealed message: nonce || ciphertext || tag, the AES-256-GCM encryption
/// of `plaintext` with `aad` authenticated alongside.
Bytes seal(const SymmetricKey& key, const Nonce& nonce, ByteView aad, ByteView plaintext);

/// Opens a sealed message; kAuthFailure if the tag does not verify, in
/// which case nothing is decrypted.
Result<Bytes> open(const SymmetricKey& key, ByteView aad, ByteView sealed);

/// Minimum size of a sealed buffer (nonce + tag, empty plaintext).
inline constexpr std::size_t kSealOverhead = kNonceSize + kMacTagSize;

}  // namespace itdos::crypto
