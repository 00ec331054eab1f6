// The SHA-256 compression kernels against each other and against the FIPS
// 180-2 long vectors. The portable loop is the reference; the SHA-NI half
// skips on CPUs without the SHA extensions.
#include "crypto/sha256_kernel.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace itdos::crypto {
namespace {

using detail::CompressFn;
using detail::kInitialState;
using detail::Sha256State;

constexpr const char* k448BitMessage = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
constexpr const char* k448BitDigest =
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
constexpr const char* kMillionAsDigest =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

Sha256State random_state(Rng& rng) {
  Sha256State state;
  for (std::uint32_t& word : state) word = static_cast<std::uint32_t>(rng.next_u64());
  return state;
}

/// Pads `msg` by hand and hashes all of it with one call of `kernel`.
std::string hash_with(CompressFn kernel, ByteView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % kBlockSize != kBlockSize - 8) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (i * 8)));

  Sha256State state = kInitialState;
  kernel(state, padded.data(), padded.size() / kBlockSize);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[i * 4 + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return hex_encode(digest_view(out));
}

ByteView view_of(const char* s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s), std::strlen(s));
}

void expect_fips_long_vectors(CompressFn kernel) {
  EXPECT_EQ(hash_with(kernel, view_of(k448BitMessage)), k448BitDigest);
  const Bytes million_as(1'000'000, 'a');
  EXPECT_EQ(hash_with(kernel, ByteView(million_as)), kMillionAsDigest);
}

TEST(Sha256KernelTest, PortableMultiBlockCallEqualsBlockAtATime) {
  Rng rng(0x5a256);
  for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
    const Sha256State start = random_state(rng);
    const Bytes data = rng.next_bytes(blocks * kBlockSize);
    Sha256State one_call = start;
    detail::compress_portable(one_call, data.data(), blocks);
    Sha256State per_block = start;
    for (std::size_t i = 0; i < blocks; ++i) {
      detail::compress_portable(per_block, data.data() + i * kBlockSize, 1);
    }
    EXPECT_EQ(one_call, per_block) << "blocks=" << blocks;
  }
}

TEST(Sha256KernelTest, PortableKernelMatchesFipsLongVectors) {
  expect_fips_long_vectors(detail::compress_portable);
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnSeededInputs) {
#if ITDOS_SHA_NI_KERNEL
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
      const Sha256State start = random_state(rng);
      const Bytes data = rng.next_bytes(blocks * kBlockSize);
      Sha256State portable = start;
      detail::compress_portable(portable, data.data(), blocks);
      Sha256State sha_ni = start;
      detail::compress_sha_ni(sha_ni, data.data(), blocks);
      EXPECT_EQ(sha_ni, portable) << "seed=" << seed << " blocks=" << blocks;
    }
  }
#else
  GTEST_SKIP() << "no SHA-NI kernel on this architecture";
#endif
}

TEST(Sha256KernelTest, ShaNiKernelMatchesFipsLongVectors) {
#if ITDOS_SHA_NI_KERNEL
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_fips_long_vectors(detail::compress_sha_ni);
#else
  GTEST_SKIP() << "no SHA-NI kernel on this architecture";
#endif
}

TEST(Sha256KernelTest, SplitFeedingMatchesOneShot) {
  // Chunks mix partial blocks, exact blocks and multi-block runs, so update()
  // crosses every buffered / direct-to-kernel transition.
  Rng rng(77);
  const Bytes msg = rng.next_bytes(5000);
  const Digest expected = sha256(ByteView(msg));
  const std::size_t patterns[][6] = {
      {1, 63, 130, 64, 7, 200},
      {64, 128, 1, 191, 0, 256},
      {3, 300, 61, 65, 127, 2},
  };
  for (const auto& pattern : patterns) {
    Sha256 h;
    std::size_t offset = 0;
    for (std::size_t i = 0; offset < msg.size(); ++i) {
      const std::size_t take = std::min(pattern[i % 6], msg.size() - offset);
      h.update(ByteView(msg).subspan(offset, take));
      offset += take;
    }
    EXPECT_EQ(h.finish(), expected) << "pattern starting " << pattern[0];
  }
  for (int trial = 0; trial < 20; ++trial) {
    Sha256 h;
    std::size_t offset = 0;
    while (offset < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(rng.next_below(4 * kBlockSize + 1), msg.size() - offset);
      h.update(ByteView(msg).subspan(offset, take));
      offset += take;
    }
    EXPECT_EQ(h.finish(), expected) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace itdos::crypto
