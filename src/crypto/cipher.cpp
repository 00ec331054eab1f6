#include "crypto/cipher.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace itdos::crypto {

namespace {

/// GCM counter block `count` for a 96-bit nonce: nonce || BE32(count).
/// Block 1 (J0) masks the tag; the keystream starts at block 2.
detail::AesBlock counter_block(const Nonce& nonce, std::uint32_t count) {
  detail::AesBlock block{};
  std::memcpy(block.data(), nonce.data(), kNonceSize);
  for (int i = 0; i < 4; ++i) {
    block[kNonceSize + i] = static_cast<std::uint8_t>(count >> (24 - 8 * i));
  }
  return block;
}

/// Absorbs `data` into GHASH, the last partial block zero-padded.
void absorb(const detail::GcmKernel& kernel, const detail::GcmKey& key, detail::AesBlock& y,
            ByteView data) {
  const std::size_t whole = data.size() / detail::kAesBlockSize;
  kernel.ghash(key, y, data.data(), whole);
  const std::size_t tail = data.size() - whole * detail::kAesBlockSize;
  if (tail > 0) {
    detail::AesBlock last{};
    std::memcpy(last.data(), data.data() + whole * detail::kAesBlockSize, tail);
    kernel.ghash(key, y, last.data(), 1);
  }
}

}  // namespace

SymmetricKey::SymmetricKey() : SymmetricKey(Raw{}) {}

SymmetricKey::SymmetricKey(const Raw& bytes)
    : bytes_(bytes), gcm_(detail::make_gcm_key(derive_key(view(), "itdos.enc", {}))) {}

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

void detail::gcm_ctr(const GcmKernel& kernel, const SymmetricKey& key, const Nonce& nonce,
                     ByteView in, std::span<std::uint8_t> out) {
  assert(out.size() == in.size());
  kernel.ctr(key.gcm_key(), counter_block(nonce, 2), in.data(), out.data(), in.size());
}

MacTag detail::gcm_tag(const GcmKernel& kernel, const SymmetricKey& key, const Nonce& nonce,
                       ByteView aad, ByteView ciphertext) {
  // S = GHASH(aad padded || ciphertext padded || BE64(aad bits) || BE64(ciphertext bits)),
  // tag = S XOR AES(J0).
  AesBlock s{};
  absorb(kernel, key.gcm_key(), s, aad);
  absorb(kernel, key.gcm_key(), s, ciphertext);
  AesBlock lengths{};
  store_be64(lengths.data(), std::uint64_t{aad.size()} * 8);
  store_be64(lengths.data() + 8, std::uint64_t{ciphertext.size()} * 8);
  kernel.ghash(key.gcm_key(), s, lengths.data(), 1);
  MacTag tag{};
  kernel.ctr(key.gcm_key(), counter_block(nonce, 1), s.data(), tag.data(), tag.size());
  return tag;
}

Bytes seal(const SymmetricKey& key, const Nonce& nonce, ByteView aad, ByteView plaintext) {
  // Single-buffer seal: the nonce is written once, CTR writes the
  // ciphertext straight after it, and the tag is computed over that buffer
  // in place. `reserve` covers the tag, so nothing below reallocates.
  const detail::GcmKernel& kernel = detail::selected_gcm_kernel();
  Bytes out;
  out.reserve(kSealOverhead + plaintext.size());
  append(out, ByteView(nonce.data(), nonce.size()));
  out.resize(kNonceSize + plaintext.size());
  detail::gcm_ctr(kernel, key, nonce, plaintext, std::span<std::uint8_t>(out).subspan(kNonceSize));
  const ByteView ciphertext(out.data() + kNonceSize, plaintext.size());
  const MacTag tag = detail::gcm_tag(kernel, key, nonce, aad, ciphertext);
  append(out, ByteView(tag.data(), tag.size()));
  return out;
}

Result<Bytes> open(const SymmetricKey& key, ByteView aad, ByteView sealed) {
  if (sealed.size() < kSealOverhead) {
    return error(Errc::kMalformedMessage, "sealed buffer shorter than overhead");
  }
  const detail::GcmKernel& kernel = detail::selected_gcm_kernel();
  Nonce nonce;
  std::memcpy(nonce.data(), sealed.data(), kNonceSize);
  const ByteView ciphertext = sealed.subspan(kNonceSize, sealed.size() - kSealOverhead);
  const ByteView tag = sealed.subspan(sealed.size() - kMacTagSize);

  const MacTag expected = detail::gcm_tag(kernel, key, nonce, aad, ciphertext);
  if (!constant_time_equal(ByteView(expected.data(), expected.size()), tag)) {
    return error(Errc::kAuthFailure, "seal tag mismatch");
  }
  // The sealed frame stays shared, so the plaintext gets its own buffer.
  Bytes plaintext(ciphertext.size());
  detail::gcm_ctr(kernel, key, nonce, ciphertext, plaintext);
  return plaintext;
}

}  // namespace itdos::crypto
