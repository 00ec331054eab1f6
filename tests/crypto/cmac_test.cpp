// AES-256-CMAC against NIST SP 800-38B and its kernels against each other.
// The portable kernel is the reference: the D.3 known answers pin it, and
// the AES-NI kernel must then give the same tags for every checked length,
// lane count and segmentation. The AES-NI half skips on CPUs without
// AES-NI.
#include "crypto/cmac.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace itdos::crypto {
namespace {

using detail::CmacKernel;

std::string hex_of(const MacTag& tag) { return hex_encode(ByteView(tag.data(), tag.size())); }

// NIST SP 800-38B Appendix D.3, CMAC-AES256.
const Bytes kNistKey =
    hex_decode("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
const Bytes kNistMessage = hex_decode(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");

/// Tags of `keys` over `segments` on `kernel`, one group call.
std::vector<MacTag> tags_on(const CmacKernel& kernel, const std::vector<const CmacKey*>& keys,
                            std::span<const ByteView> segments) {
  std::vector<MacTag> out(keys.size());
  detail::cmac_tags_with(kernel, keys, segments, out);
  return out;
}

void expect_nist_d3(const CmacKernel& kernel, const std::string& name) {
  const CmacKey key(kNistKey);
  const std::vector<const CmacKey*> keys{&key};
  const std::pair<std::size_t, std::string> cases[] = {
      {0, "028962f61b7bf89efc6b551f4667d983"},
      {16, "28a7023f452e8f82bd4bf28d8c37c35c"},
      {40, "aaf3d8f1de5640c232f5b169b9c911e6"},
      {64, "e1992190549f6ed5696a2c056c315410"},
  };
  for (const auto& [size, expected] : cases) {
    const ByteView data = ByteView(kNistMessage).first(size);
    EXPECT_EQ(hex_of(tags_on(kernel, keys, std::span(&data, 1))[0]), expected)
        << name << ", Mlen " << size * 8;
  }
}

TEST(CmacTest, NistSp80038bD3Portable) { expect_nist_d3(detail::kCmacPortable, "portable"); }

TEST(CmacTest, NistSp80038bD3Selected) {
  expect_nist_d3(detail::selected_cmac_kernel(), "selected");
  const CmacKey key(kNistKey);
  EXPECT_EQ(hex_of(key.tag(ByteView(kNistMessage).first(40))),
            "aaf3d8f1de5640c232f5b169b9c911e6");
}

TEST(CmacTest, SegmentsTagLikeTheirConcatenation) {
  // Every split of a 40-byte message into three segments, empty ones
  // included, tags like the whole: blocks straddle segment boundaries.
  const CmacKey key(kNistKey);
  const ByteView whole = ByteView(kNistMessage).first(40);
  const MacTag expected = key.tag(whole);
  for (std::size_t a = 0; a <= whole.size(); ++a) {
    for (std::size_t b = a; b <= whole.size(); ++b) {
      const ByteView parts[] = {whole.subspan(0, a), whole.subspan(a, b - a), whole.subspan(b)};
      EXPECT_EQ(key.tag(parts), expected) << "split at " << a << ", " << b;
    }
  }
}

/// 13 keys (three full groups of lanes and one single lane), messages of
/// lengths 0-300 and 8192 +- 1, each tagged as one segment and as a
/// one-byte prefix plus the rest: `kernel` must agree with the portable
/// reference on every tag, and the first 1-4 keys alone must get the same
/// tags as in the full group.
void expect_matches_portable(const CmacKernel& kernel, const std::string& name) {
  Rng rng(0xc3ac);
  std::vector<CmacKey> key_store;
  for (int i = 0; i < 13; ++i) key_store.emplace_back(rng.next_bytes(detail::kAes256KeySize));
  std::vector<const CmacKey*> keys;
  for (const CmacKey& key : key_store) keys.push_back(&key);
  const Bytes message = rng.next_bytes(8193);
  const auto check = [&](std::size_t size) {
    const ByteView data = ByteView(message).first(size);
    const std::vector<MacTag> expected =
        tags_on(detail::kCmacPortable, keys, std::span(&data, 1));
    EXPECT_EQ(tags_on(kernel, keys, std::span(&data, 1)), expected) << name << ", size " << size;
    if (size > 0) {
      const ByteView split[] = {data.first(1), data.subspan(1)};
      EXPECT_EQ(tags_on(kernel, keys, split), expected) << name << " split, size " << size;
    }
    for (std::size_t lanes = 1; lanes <= detail::kCmacLanes; ++lanes) {
      const std::vector<const CmacKey*> group(keys.begin(), keys.begin() + lanes);
      const std::vector<MacTag> got = tags_on(kernel, group, std::span(&data, 1));
      EXPECT_EQ(got, std::vector<MacTag>(expected.begin(), expected.begin() + lanes))
          << name << ", size " << size << ", " << lanes << " lanes";
    }
  };
  for (std::size_t size = 0; size <= 300; ++size) check(size);
  for (std::size_t size = 8191; size <= 8193; ++size) check(size);
}

TEST(CmacKernelTest, SelectedMatchesPortable) {
  expect_matches_portable(detail::selected_cmac_kernel(), "selected");
}

#if ITDOS_AES_NI_KERNEL
TEST(CmacKernelTest, AesNiMatchesPortable) {
  if (!detail::aes_ni_available()) GTEST_SKIP() << "CPU lacks AES-NI";
  expect_nist_d3(detail::kCmacAesNi, "aes-ni");
  expect_matches_portable(detail::kCmacAesNi, "aes-ni");
}
#endif

TEST(CmacTest, EveryBitFlipFailsVerify) {
  Rng rng(0x5eed);
  const CmacKey key(rng.next_bytes(detail::kAes256KeySize));
  Bytes data = rng.next_bytes(57);  // a type byte and a PREPARE body
  const ByteView whole = data;
  MacTag tag = key.tag(whole);
  ASSERT_TRUE(key.verify(std::span(&whole, 1), tag));
  for (std::size_t bit = 0; bit < tag.size() * 8; ++bit) {
    tag[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(key.verify(std::span(&whole, 1), tag)) << "tag bit " << bit;
    tag[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(key.verify(std::span(&whole, 1), tag)) << "data bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_TRUE(key.verify(std::span(&whole, 1), tag));
}

}  // namespace
}  // namespace itdos::crypto
