// The AES-256-GCM kernels against each other and against FIPS-197. The
// portable kernel is the reference: its AES block is pinned by the FIPS-197
// C.3 vector here, and its seals by the Python-computed known answers in
// cipher_test. Every other kernel must then give the same ciphertext and
// tag for every checked length, in place and out of place, the same CTR
// keystream across an inc32 wrap and the same GHASH on either side of its
// wide steps. The AES-NI tests skip on CPUs without AES-NI and PCLMULQDQ,
// the VAES tests on CPUs without AVX-512 VAES and VPCLMULQDQ.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cipher.hpp"

namespace itdos::crypto {
namespace {

using detail::GcmKernel;

constexpr std::size_t kLongest = 16384 + 1;
constexpr std::size_t kLongestAad = 40;

/// AES-256(key, block) on `kernel`: the first CTR keystream block is the
/// encryption of the counter block itself.
detail::AesBlock encrypt_block(const GcmKernel& kernel, const detail::GcmKey& key,
                               const detail::AesBlock& block) {
  const detail::AesBlock zero{};
  detail::AesBlock out{};
  kernel.ctr(key, block, zero.data(), out.data(), out.size());
  return out;
}

void expect_fips197_c3(const GcmKernel& kernel, const std::string& name) {
  Bytes raw(detail::kAes256KeySize);
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<std::uint8_t>(i);
  const detail::GcmKey key = detail::make_gcm_key(raw);
  const Bytes plaintext = hex_decode("00112233445566778899aabbccddeeff");
  detail::AesBlock block{};
  std::copy(plaintext.begin(), plaintext.end(), block.begin());
  const detail::AesBlock out = encrypt_block(kernel, key, block);
  EXPECT_EQ(hex_encode(ByteView(out.data(), out.size())), "8ea2b7ca516745bfeafc49904b496089")
      << name;
}

/// A kernel's ciphertext (out of place and in place) and tag for one input.
struct Sealed {
  Bytes out_of_place;
  Bytes in_place;
  MacTag tag{};
};

Sealed seal_on(const GcmKernel& kernel, const SymmetricKey& key, const Nonce& nonce,
               ByteView aad, ByteView plaintext) {
  Sealed sealed;
  sealed.out_of_place.assign(plaintext.size(), 0xee);
  detail::gcm_ctr(kernel, key, nonce, plaintext, sealed.out_of_place);
  sealed.in_place.assign(plaintext.begin(), plaintext.end());
  detail::gcm_ctr(kernel, key, nonce, sealed.in_place, sealed.in_place);
  sealed.tag = detail::gcm_tag(kernel, key, nonce, aad, sealed.out_of_place);
  return sealed;
}

/// Plaintext lengths 0-300 (every AAD length 0-40 in turn), the lengths
/// either side of the wide kernels' steps (512-byte CTR steps, 16-block
/// GHASH steps) and 16384 +- 1 (every AAD length): each input sealed on
/// `kernel` and on the portable reference must agree, and decrypting must
/// give the plaintext back.
void expect_seals_match_portable(const GcmKernel& kernel, const std::string& name) {
  Rng rng(0x6c6d);
  const SymmetricKey key = SymmetricKey::from_bytes(rng.next_bytes(kSymmetricKeySize));
  const Nonce nonce = make_nonce(23, 0x0102030405060708ULL);
  const Bytes message = rng.next_bytes(kLongest);
  const Bytes aad_bytes = rng.next_bytes(kLongestAad);
  const auto check = [&](std::size_t size, std::size_t aad_size) {
    const ByteView plaintext = ByteView(message).first(size);
    const ByteView aad = ByteView(aad_bytes).first(aad_size);
    const Sealed expected = seal_on(detail::kGcmPortable, key, nonce, aad, plaintext);
    const Sealed got = seal_on(kernel, key, nonce, aad, plaintext);
    EXPECT_EQ(got.out_of_place, expected.out_of_place)
        << name << " out of place, size " << size << ", aad " << aad_size;
    EXPECT_EQ(got.in_place, expected.out_of_place)
        << name << " in place, size " << size << ", aad " << aad_size;
    EXPECT_EQ(got.tag, expected.tag) << name << " tag, size " << size << ", aad " << aad_size;
    Bytes decrypted(size);
    detail::gcm_ctr(kernel, key, nonce, got.out_of_place, decrypted);
    EXPECT_TRUE(std::equal(decrypted.begin(), decrypted.end(), plaintext.begin()))
        << name << " round trip, size " << size;
  };
  for (std::size_t size = 0; size <= 300; ++size) check(size, size % (kLongestAad + 1));
  for (const std::size_t size : {496, 511, 512, 513, 528, 1023, 1024, 1025}) {
    check(size, size % (kLongestAad + 1));
  }
  for (const std::size_t size : {std::size_t{16383}, std::size_t{16384}, kLongest}) {
    for (std::size_t aad_size = 0; aad_size <= kLongestAad; ++aad_size) check(size, aad_size);
  }
}

/// `kernel.ctr` from a counter whose last word is 0xfffffff8, so the
/// counter wraps to 0 eight blocks in, inside the first wide step, must
/// give the portable keystream; so must `kernel.ghash` over 15-17 and
/// 31-33 blocks, either side of one and two 16-block steps.
void expect_primitives_match_portable(const GcmKernel& kernel, const std::string& name) {
  Rng rng(0x7772);
  const detail::GcmKey key = detail::make_gcm_key(rng.next_bytes(detail::kAes256KeySize));
  const Bytes message = rng.next_bytes(2048 + 37);
  detail::AesBlock counter{};
  const Bytes prefix = rng.next_bytes(12);
  std::copy(prefix.begin(), prefix.end(), counter.begin());
  for (std::size_t i = 12; i < 16; ++i) counter[i] = i == 15 ? 0xf8 : 0xff;
  for (const std::size_t size : {std::size_t{1024}, std::size_t{1024 + 37}, message.size()}) {
    Bytes expected(size);
    Bytes got(size);
    detail::kGcmPortable.ctr(key, counter, message.data(), expected.data(), size);
    kernel.ctr(key, counter, message.data(), got.data(), size);
    EXPECT_EQ(got, expected) << name << " ctr across the inc32 wrap, size " << size;
  }
  const detail::AesBlock start = {0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
  for (const std::size_t blocks : {15, 16, 17, 31, 32, 33}) {
    detail::AesBlock expected = start;
    detail::AesBlock got = start;
    detail::kGcmPortable.ghash(key, expected, message.data(), blocks);
    kernel.ghash(key, got, message.data(), blocks);
    EXPECT_EQ(got, expected) << name << " ghash, " << blocks << " blocks";
  }
}

void expect_matches_portable(const GcmKernel& kernel, const std::string& name) {
  expect_seals_match_portable(kernel, name);
  expect_primitives_match_portable(kernel, name);
}

TEST(GcmKernelTest, PortableAesMatchesFips197) {
  expect_fips197_c3(detail::kGcmPortable, "portable");
}

TEST(GcmKernelTest, AesNiAesMatchesFips197) {
#if ITDOS_AES_NI_KERNEL
  if (!detail::aes_ni_available()) GTEST_SKIP() << "CPU lacks AES-NI or PCLMULQDQ";
  expect_fips197_c3(detail::kGcmAesNi, "aes-ni");
#else
  GTEST_SKIP() << "no AES-NI kernel on this architecture";
#endif
}

TEST(GcmKernelTest, AesNiKernelMatchesPortable) {
#if ITDOS_AES_NI_KERNEL
  if (!detail::aes_ni_available()) GTEST_SKIP() << "CPU lacks AES-NI or PCLMULQDQ";
  expect_matches_portable(detail::kGcmAesNi, "aes-ni");
#else
  GTEST_SKIP() << "no AES-NI kernel on this architecture";
#endif
}

TEST(GcmKernelTest, VaesAesMatchesFips197) {
#if ITDOS_AES_NI_KERNEL
  if (!detail::vaes_available()) GTEST_SKIP() << "CPU lacks AVX-512 VAES or VPCLMULQDQ";
  expect_fips197_c3(detail::kGcmVaes, "vaes");
#else
  GTEST_SKIP() << "no VAES kernel on this architecture";
#endif
}

TEST(GcmKernelTest, VaesKernelMatchesPortable) {
#if ITDOS_AES_NI_KERNEL
  if (!detail::vaes_available()) GTEST_SKIP() << "CPU lacks AVX-512 VAES or VPCLMULQDQ";
  expect_matches_portable(detail::kGcmVaes, "vaes");
#else
  GTEST_SKIP() << "no VAES kernel on this architecture";
#endif
}

// The choice follows CPUID alone: VAES where AVX-512 VAES, VPCLMULQDQ and
// the zmm state are there, else AES-NI where AES-NI and PCLMULQDQ are, else
// the portable kernel.
TEST(GcmKernelTest, SelectedKernelIsTheFastestAvailable) {
#if ITDOS_AES_NI_KERNEL
  const GcmKernel& fastest = detail::vaes_available()     ? detail::kGcmVaes
                             : detail::aes_ni_available() ? detail::kGcmAesNi
                                                          : detail::kGcmPortable;
  if (detail::vaes_available()) {
    EXPECT_TRUE(detail::aes_ni_available());
  }
#else
  const GcmKernel& fastest = detail::kGcmPortable;
#endif
  EXPECT_EQ(&detail::selected_gcm_kernel(), &fastest);
}

}  // namespace
}  // namespace itdos::crypto
