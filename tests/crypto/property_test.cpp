// Property-based crypto tests: randomized round trips and tamper detection
// across the primitives the protocol stack depends on.
#include <gtest/gtest.h>

#include "crypto/cipher.hpp"
#include "crypto/dprf.hpp"
#include "crypto/signing.hpp"

namespace itdos::crypto {
namespace {

class CryptoPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CryptoPropertyTest, SealOpenRandomized) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const SymmetricKey key = SymmetricKey::from_bytes(rng.next_bytes(32));
    const Bytes aad = rng.next_bytes(rng.next_below(32));
    const Bytes plaintext = rng.next_bytes(rng.next_below(2048));
    const Nonce nonce = make_nonce(rng.next_u64(), rng.next_u64());
    const Bytes sealed = seal(key, nonce, aad, plaintext);
    const Result<Bytes> opened = open(key, aad, sealed);
    ASSERT_TRUE(opened.is_ok());
    EXPECT_EQ(opened.value(), plaintext);
  }
}

TEST_P(CryptoPropertyTest, SealedTamperAlwaysDetected) {
  Rng rng(GetParam() ^ 0x7a3fULL);
  for (int trial = 0; trial < 100; ++trial) {
    const SymmetricKey key = SymmetricKey::from_bytes(rng.next_bytes(32));
    const Bytes plaintext = rng.next_bytes(16 + rng.next_below(256));
    Bytes sealed = seal(key, make_nonce(1, static_cast<std::uint64_t>(trial)), {},
                        plaintext);
    sealed[rng.next_below(sealed.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    const Result<Bytes> opened = open(key, {}, sealed);
    // Any single-byte flip — nonce, ciphertext or tag — must be rejected.
    EXPECT_FALSE(opened.is_ok()) << "trial " << trial;
  }
}

TEST_P(CryptoPropertyTest, EveryBitFlipAndTruncationFailsOpen) {
  // Exhaustive over one sealed message: flipping any single bit of the
  // nonce, ciphertext, tag or AAD, or cutting any number of bytes off the
  // end, must fail open with no plaintext returned.
  Rng rng(GetParam() ^ 0xb17fULL);
  const SymmetricKey key = SymmetricKey::from_bytes(rng.next_bytes(32));
  const Bytes aad = rng.next_bytes(20);
  const Bytes plaintext = rng.next_bytes(40);
  const Bytes sealed = seal(key, make_nonce(rng.next_u64(), rng.next_u64()), aad, plaintext);
  ASSERT_TRUE(open(key, aad, sealed).is_ok());
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    Bytes flipped = sealed;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(open(key, aad, flipped).is_ok()) << "sealed bit " << bit;
  }
  for (std::size_t bit = 0; bit < aad.size() * 8; ++bit) {
    Bytes flipped = aad;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(open(key, flipped, sealed).is_ok()) << "aad bit " << bit;
  }
  for (std::size_t size = 0; size < sealed.size(); ++size) {
    EXPECT_FALSE(open(key, aad, ByteView(sealed).first(size)).is_ok()) << "truncated to " << size;
  }
}

TEST_P(CryptoPropertyTest, SignaturesNeverCrossVerify) {
  Rng rng(GetParam() ^ 0x51e4ULL);
  Keystore keystore;
  std::vector<SigningKey> keys;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    keys.push_back(keystore.issue(NodeId(i), rng));
  }
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes msg = rng.next_bytes(64);
    const std::size_t signer = rng.next_below(keys.size());
    const Signature sig = keys[signer].sign(msg);
    for (std::size_t v = 0; v < keys.size(); ++v) {
      const bool ok = keystore.verify(NodeId(v + 1), msg, sig).is_ok();
      EXPECT_EQ(ok, v == signer);
    }
  }
}

TEST_P(CryptoPropertyTest, DprfAnyQuorumSameKey) {
  // Any 2f+1 subset of GM elements reconstructs the same key.
  Rng rng(GetParam() ^ 0xd9f4ULL);
  const DprfParams params{7, 2};
  const auto keys = dprf_deal(params, rng);
  const Bytes input = rng.next_bytes(24);
  const SymmetricKey reference = dprf_eval_master(params, keys, input);
  for (int trial = 0; trial < 20; ++trial) {
    // Random 5-of-7 coalition.
    std::vector<int> order{0, 1, 2, 3, 4, 5, 6};
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    DprfCombiner combiner(params, input);
    for (int k = 0; k < 5; ++k) {
      DprfElement element(params, keys[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])]);
      ASSERT_TRUE(combiner.add_share(element.evaluate(input)).is_ok());
    }
    ASSERT_TRUE(combiner.ready());
    EXPECT_EQ(combiner.combine().value(), reference);
  }
}

TEST_P(CryptoPropertyTest, CtrKeystreamNeverRepeatsAcrossNonces) {
  Rng rng(GetParam() ^ 0xc7aULL);
  const SymmetricKey key = SymmetricKey::from_bytes(rng.next_bytes(32));
  std::set<Bytes> keystreams;
  for (std::uint64_t counter = 0; counter < 50; ++counter) {
    Bytes ks(64, 0);
    detail::gcm_ctr(detail::selected_gcm_kernel(), key, make_nonce(1, counter), ks, ks);
    EXPECT_TRUE(keystreams.insert(ks).second) << "keystream repeated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoPropertyTest, ::testing::Values(101, 202, 303),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace itdos::crypto
