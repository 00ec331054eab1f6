#include "crypto/cipher.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace itdos::crypto {

namespace {

/// SHA-256 state after absorbing pad64(k_enc), k_enc zero-padded to a block.
Sha256 absorb_padded(ByteView k_enc) {
  std::array<std::uint8_t, kBlockSize> block{};
  std::copy(k_enc.begin(), k_enc.end(), block.begin());
  Sha256 prefix;
  prefix.update(ByteView(block.data(), block.size()));
  return prefix;
}

}  // namespace

SymmetricKey::SymmetricKey() : SymmetricKey(Raw{}) {}

SymmetricKey::SymmetricKey(const Raw& bytes)
    : bytes_(bytes),
      keystream_prefix_(absorb_padded(derive_key(view(), "itdos.enc", {}))),
      mac_(derive_key(view(), "itdos.mac", {})) {}

SymmetricKey SymmetricKey::from_bytes(ByteView b) {
  assert(b.size() >= kSymmetricKeySize);
  Raw bytes;
  std::copy_n(b.begin(), kSymmetricKeySize, bytes.begin());
  return SymmetricKey(bytes);
}

std::string SymmetricKey::fingerprint() const {
  const Digest d = sha256(view());
  return hex_encode(ByteView(d.data(), 4));
}

Nonce make_nonce(std::uint64_t sender, std::uint64_t counter) {
  Nonce n{};
  for (int i = 0; i < 4; ++i) n[i] = static_cast<std::uint8_t>(sender >> (i * 8));
  for (int i = 0; i < 8; ++i) n[4 + i] = static_cast<std::uint8_t>(counter >> (i * 8));
  return n;
}

void ctr_crypt_inplace(const SymmetricKey& key, const Nonce& nonce,
                       std::span<std::uint8_t> data) {
  Sha256 prefix = key.keystream_prefix();
  prefix.update(ByteView(nonce.data(), nonce.size()));
  std::uint64_t block_index = 0;
  std::size_t offset = 0;
  while (offset < data.size()) {
    std::uint8_t counter_bytes[8];
    for (int i = 0; i < 8; ++i) {
      counter_bytes[i] = static_cast<std::uint8_t>(block_index >> (i * 8));
    }
    // 20 buffered bytes plus padding fit one block: one compression each.
    const Digest keystream = Sha256(prefix).update(ByteView(counter_bytes, 8)).finish();
    const std::size_t take = std::min(data.size() - offset, keystream.size());
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
    offset += take;
    ++block_index;
  }
}

Bytes seal(const SymmetricKey& key, const Nonce& nonce, ByteView aad, ByteView plaintext) {
  // Single-buffer seal: nonce and plaintext are written once, the ciphertext
  // transform and the MAC both run over that buffer in place. `reserve`
  // covers the tag, so no append below reallocates.
  Bytes out;
  out.reserve(kSealOverhead + plaintext.size());
  append(out, ByteView(nonce.data(), nonce.size()));
  append(out, plaintext);
  ctr_crypt_inplace(key, nonce, std::span<std::uint8_t>(out).subspan(kNonceSize));
  const ByteView ciphertext(out.data() + kNonceSize, plaintext.size());

  const Digest d = key.mac_key().mac({ByteView(nonce.data(), nonce.size()), aad, ciphertext});
  append(out, ByteView(d.data(), kMacTagSize));
  return out;
}

Result<Bytes> open(const SymmetricKey& key, ByteView aad, ByteView sealed) {
  if (sealed.size() < kSealOverhead) {
    return error(Errc::kMalformedMessage, "sealed buffer shorter than overhead");
  }
  Nonce nonce;
  std::memcpy(nonce.data(), sealed.data(), kNonceSize);
  const ByteView ciphertext = sealed.subspan(kNonceSize, sealed.size() - kSealOverhead);
  const ByteView tag = sealed.subspan(sealed.size() - kMacTagSize);

  const Digest d = key.mac_key().mac({ByteView(nonce.data(), nonce.size()), aad, ciphertext});
  if (!constant_time_equal(ByteView(d.data(), kMacTagSize), tag)) {
    return error(Errc::kAuthFailure, "seal tag mismatch");
  }
  // The sealed frame stays shared, so the plaintext gets its own buffer and
  // is decrypted in place there.
  Bytes plaintext(ciphertext.begin(), ciphertext.end());
  ctr_crypt_inplace(key, nonce, plaintext);
  return plaintext;
}

}  // namespace itdos::crypto
