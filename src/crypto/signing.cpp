#include "crypto/signing.hpp"

#include "common/rng.hpp"

namespace itdos::crypto {

Signature SigningKey::sign(ByteView message) const {
  const Digest d = key_.mac(message);
  Signature sig;
  std::copy(d.begin(), d.end(), sig.begin());
  return sig;
}

SigningKey Keystore::issue(NodeId owner, Rng& rng) {
  SigningKey key(owner, rng.next_bytes(32));
  register_key(key);
  return key;
}

void Keystore::register_key(const SigningKey& key) {
  verify_keys_.insert_or_assign(key.owner_, key.key_);
}

Status Keystore::verify(NodeId signer, ByteView message, const Signature& sig) const {
  const auto it = verify_keys_.find(signer);
  if (it == verify_keys_.end()) {
    return error(Errc::kNotFound, "unknown signer node " + signer.to_string());
  }
  const Digest d = it->second.mac(message);
  if (!constant_time_equal(ByteView(d.data(), d.size()),
                           ByteView(sig.data(), sig.size()))) {
    return error(Errc::kAuthFailure, "signature mismatch for node " + signer.to_string());
  }
  return Status::ok();
}

SignedMessage sign_message(const SigningKey& key, BufView payload) {
  SignedMessage msg;
  msg.signer = key.owner();
  msg.signature = key.sign(payload);
  msg.payload = std::move(payload);
  return msg;
}

Status verify_message(const Keystore& keystore, const SignedMessage& msg) {
  return keystore.verify(msg.signer, msg.payload, msg.signature);
}

}  // namespace itdos::crypto
