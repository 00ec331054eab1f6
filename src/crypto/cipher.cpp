#include "crypto/cipher.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace itdos::crypto {

namespace {

// Keystream block i hashes pad64(k_enc) || nonce || LE64(i), 84 bytes. The
// key holds the state after the first 64; the second block is the rest plus
// SHA-256 padding: nonce || LE64(i) || 0x80 || zeros || BE64(84 * 8).
constexpr std::size_t kCounterAt = kNonceSize;
constexpr std::size_t kPaddingAt = kCounterAt + 8;
constexpr std::uint64_t kKeystreamInputBits = (kBlockSize + kPaddingAt) * 8;

/// Stores `v` in 8 bytes, least significant first.
void store_le64(std::uint8_t* out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (i * 8));
  }
}

/// The host-order word whose memory bytes are `v` big-endian: a digest word
/// as it appears in the digest.
std::uint32_t digest_word(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return (v >> 24) | ((v >> 8) & 0xff00) | ((v << 8) & 0xff0000) | (v << 24);
  } else {
    return v;
  }
}

/// The chaining state after absorbing pad64(k_enc), k_enc zero-padded to a
/// block.
detail::Sha256State absorb_padded(ByteView k_enc) {
  std::array<std::uint8_t, kBlockSize> block{};
  std::copy(k_enc.begin(), k_enc.end(), block.begin());
  detail::Sha256State state = detail::kInitialState;
  detail::selected_kernel()(state, block.data(), 1);
  return state;
}

}  // namespace

SymmetricKey::SymmetricKey() : SymmetricKey(Raw{}) {}

SymmetricKey::SymmetricKey(const Raw& bytes)
    : bytes_(bytes),
      keystream_midstate_(absorb_padded(derive_key(view(), "itdos.enc", {}))),
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

void ctr_crypt(const SymmetricKey& key, const Nonce& nonce, ByteView in,
               std::span<std::uint8_t> out) {
  detail::ctr_crypt_with(detail::selected_kernel(), key, nonce, in, out);
}

void detail::ctr_crypt_with(CompressFn kernel, const SymmetricKey& key, const Nonce& nonce,
                            ByteView in, std::span<std::uint8_t> out) {
  assert(out.size() == in.size());
  std::array<std::uint8_t, kBlockSize> block{};
  std::memcpy(block.data(), nonce.data(), kNonceSize);
  block[kPaddingAt] = 0x80;
  store_be64(block.data() + kBlockSize - 8, kKeystreamInputBits);
  // Two copies of the block, each block's counter patched one compression
  // ahead. A kernel's 16-byte loads that straddle a just-stored counter
  // cannot be forwarded from the store and wait for it to commit, which
  // serialises the compressions (on a 2.0 GHz Xeon with SHA-NI, 512 blocks
  // took 38 us that way and 25 us this way).
  std::array<std::uint8_t, kBlockSize> blocks[2] = {block, block};
  std::uint64_t index = 0;
  for (std::size_t offset = 0; offset < in.size(); offset += kDigestSize, ++index) {
    store_le64(blocks[(index + 1) & 1].data() + kCounterAt, index + 1);
    Sha256State state = key.keystream_midstate();
    kernel(state, blocks[index & 1].data(), 1);
    std::uint32_t keystream[8] = {};
    for (int w = 0; w < 8; ++w) keystream[w] = digest_word(state[w]);

    const std::uint8_t* src = in.data() + offset;
    std::uint8_t* dst = out.data() + offset;
    const std::size_t take = std::min(in.size() - offset, kDigestSize);
    if (take == kDigestSize) {
      for (int w = 0; w < 8; ++w) {
        std::uint32_t word = 0;
        std::memcpy(&word, src + 4 * w, 4);
        word ^= keystream[w];
        std::memcpy(dst + 4 * w, &word, 4);
      }
    } else {
      const auto* pad = reinterpret_cast<const std::uint8_t*>(keystream);
      for (std::size_t i = 0; i < take; ++i) dst[i] = src[i] ^ pad[i];
    }
  }
}

Bytes seal(const SymmetricKey& key, const Nonce& nonce, ByteView aad, ByteView plaintext) {
  // Single-buffer seal: the nonce is written once and the keystream XOR
  // writes the ciphertext straight after it; the MAC runs over that buffer
  // in place. `reserve` covers the tag, so nothing below reallocates.
  Bytes out;
  out.reserve(kSealOverhead + plaintext.size());
  append(out, ByteView(nonce.data(), nonce.size()));
  out.resize(kNonceSize + plaintext.size());
  ctr_crypt(key, nonce, plaintext, std::span<std::uint8_t>(out).subspan(kNonceSize));
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
  // The sealed frame stays shared, so the plaintext gets its own buffer.
  Bytes plaintext(ciphertext.size());
  ctr_crypt(key, nonce, ciphertext, plaintext);
  return plaintext;
}

}  // namespace itdos::crypto
