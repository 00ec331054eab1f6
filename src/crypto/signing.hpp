// Message signatures, used where the paper requires non-repudiable proof:
// the signed messages a singleton client submits to the Group Manager as
// proof of a faulty value (§3.6), and BFT view-change certificates.
//
// Substitution note (DESIGN.md §4): the paper cites RSA/MD5 [33,34]. We
// provide an HMAC-based scheme behind a PKI-shaped interface: each principal
// holds a private SigningKey; verifiers consult a Keystore that models the
// deployed public-key infrastructure (the paper assumes "authentication
// tokens ... adequately protected"). Only the holder of the SigningKey can
// produce a valid signature; any party with the Keystore can verify. The
// unforgeability property that the proof-of-faulty-value protocol depends on
// is preserved; the asymmetric-math internals are not.
#pragma once

#include <array>
#include <map>
#include <memory>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"

namespace itdos::crypto {

inline constexpr std::size_t kSignatureSize = 32;
using Signature = std::array<std::uint8_t, kSignatureSize>;

/// A principal's private signing key. Move-only to discourage copies of
/// secret material.
class SigningKey {
 public:
  SigningKey(NodeId owner, ByteView secret) : owner_(owner), key_(secret) {}
  SigningKey(SigningKey&&) = default;
  SigningKey& operator=(SigningKey&&) = default;
  SigningKey(const SigningKey&) = delete;
  SigningKey& operator=(const SigningKey&) = delete;

  NodeId owner() const { return owner_; }

  Signature sign(ByteView message) const;

 private:
  friend class Keystore;
  NodeId owner_;
  HmacKey key_;
};

/// Trusted verification authority — the PKI stand-in. One Keystore instance
/// is shared (by shared_ptr) across a simulated deployment; it issues keys
/// and verifies signatures against the registered principals.
class Keystore {
 public:
  /// Issues (and registers) a fresh signing key for `owner`. Re-issuing for
  /// the same owner revokes the previous key.
  SigningKey issue(NodeId owner, Rng& rng);

  /// Registers an externally-created key's verification material.
  void register_key(const SigningKey& key);

  /// kAuthFailure if the signature is not `signer`'s over `message`;
  /// kNotFound if the signer is unknown.
  Status verify(NodeId signer, ByteView message, const Signature& sig) const;

  bool knows(NodeId signer) const { return verify_keys_.contains(signer); }

 private:
  // Ordered map (DET-002): key material must never be iterated in hash
  // order anywhere near signing or share-distribution code.
  std::map<NodeId, HmacKey> verify_keys_;
};

/// A message plus its signature and signer identity — the unit the paper's
/// fault proofs are made of. The payload is a retained view: proofs share
/// the signed frame's chunk instead of copying it.
struct SignedMessage {
  NodeId signer;
  BufView payload;
  Signature signature{};
};

/// Signs `payload` producing a SignedMessage (the view is retained, not
/// copied — pass a `Bytes` rvalue or an owning view).
SignedMessage sign_message(const SigningKey& key, BufView payload);

/// Verifies a SignedMessage against the keystore.
Status verify_message(const Keystore& keystore, const SignedMessage& msg);

}  // namespace itdos::crypto
