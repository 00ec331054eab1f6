// The CTR keystream against its specification, on every compression kernel.
// Block i of the keystream is SHA-256(pad64(k_enc) || nonce || LE64(i)); the
// reference below computes it with a plain Sha256 over those 84 bytes, so
// the cipher's cached midstate and prebuilt padding block are checked
// against the spec, not against themselves. The SHA-NI half skips on CPUs
// without the SHA extensions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cipher.hpp"

namespace itdos::crypto {
namespace {

using detail::CompressFn;

constexpr std::size_t kLongest = 16384 + 1;

/// The first `size` keystream bytes for (key, nonce), straight from the spec.
Bytes spec_keystream(const SymmetricKey& key, const Nonce& nonce, std::size_t size) {
  Bytes pad64 = derive_key(key.view(), "itdos.enc", {});
  pad64.resize(kBlockSize, 0);
  Bytes out;
  for (std::uint64_t block = 0; out.size() < size; ++block) {
    std::uint8_t counter[8] = {};
    for (int i = 0; i < 8; ++i) counter[i] = static_cast<std::uint8_t>(block >> (i * 8));
    const Digest d = Sha256()
                         .update(ByteView(pad64))
                         .update(ByteView(nonce.data(), nonce.size()))
                         .update(ByteView(counter, sizeof(counter)))
                         .finish();
    append(out, digest_view(d));
  }
  out.resize(size);
  return out;
}

std::vector<std::size_t> checked_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (const std::size_t n : {std::size_t{16383}, std::size_t{16384}, kLongest}) {
    lengths.push_back(n);
  }
  return lengths;
}

/// Runs `kernel` out of place and in place on every checked length and
/// compares both with plaintext XOR spec keystream.
void expect_matches_spec(CompressFn kernel, const std::string& name) {
  Rng rng(0xc7c7);
  const SymmetricKey key = SymmetricKey::from_bytes(rng.next_bytes(kSymmetricKeySize));
  const Nonce nonce = make_nonce(23, 0x0102030405060708ULL);
  const Bytes keystream = spec_keystream(key, nonce, kLongest);
  const Bytes message = rng.next_bytes(kLongest);
  for (const std::size_t size : checked_lengths()) {
    const ByteView plaintext = ByteView(message).first(size);
    Bytes expected(plaintext.begin(), plaintext.end());
    for (std::size_t i = 0; i < size; ++i) expected[i] ^= keystream[i];

    Bytes out_of_place(size, 0xee);
    detail::ctr_crypt_with(kernel, key, nonce, plaintext, out_of_place);
    EXPECT_EQ(out_of_place, expected) << name << " out of place, size " << size;

    Bytes in_place(plaintext.begin(), plaintext.end());
    detail::ctr_crypt_with(kernel, key, nonce, in_place, in_place);
    EXPECT_EQ(in_place, expected) << name << " in place, size " << size;
  }
}

TEST(KeystreamTest, PortableKernelMatchesSpec) {
  expect_matches_spec(detail::compress_portable, "portable");
}

TEST(KeystreamTest, ShaNiKernelMatchesSpec) {
#if ITDOS_SHA_NI_KERNEL
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_matches_spec(detail::compress_sha_ni, "sha-ni");
#else
  GTEST_SKIP() << "no SHA-NI kernel on this architecture";
#endif
}

}  // namespace
}  // namespace itdos::crypto
