#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

namespace itdos::crypto {
namespace {

std::string hex(const Digest& d) { return hex_encode(digest_view(d)); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  constexpr const char* kExpected =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()), kExpected);
  // One update: all 15625 whole blocks go to the kernel in a single call.
  EXPECT_EQ(hex(sha256(std::string(1'000'000, 'a'))), kExpected);
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, across block "
      "boundaries of the compression function.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockSizeInputs) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    for (char c : msg) incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finish(), sha256(msg)) << "len=" << len;
  }
}

TEST(Sha256Test, PaddingBoundaryKnownAnswers) {
  // Message byte i = 7i + 1 (mod 256). Digests from Python's hashlib. The
  // lengths straddle the one-block / two-block padding split at 55/56 bytes
  // and the block edges; each is also fed one byte at a time.
  const std::pair<std::size_t, const char*> known[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
      {55, "16fa57a0a3423a715d594516339f36189d6b5f93754a9714fef202616a9fabfe"},
      {56, "c37b44e5f1b18554b36966f4f8e08bfbf3164c4b6c10374d12d89850892073c5"},
      {57, "12b234922502022f755ab8550a3d4e202ad39c81d961a4f59ec39d5fd83d15a7"},
      {63, "bbba992d2c85af960fb2987a1fd05e0aa82a3db3c740dd8982a9e273b75e36a3"},
      {64, "66bd4633ed6f71c4ecfa4763bf7ba1c8ec7612de9aa6c0578a7b675207c71e0b"},
      {65, "9f7dc47107b750a1f3d35db5d9547f24ef40da5b731b9540d4f43710a154f6c9"},
      {119, "a3ed307b730fa77c07531300c6e4a282330011d4d4caf6bb7b63ae05950f4b66"},
      {120, "8e3b15d9fea7472655aa069620b7f8c2e55ee1499f763200a7515fe826e99d20"},
  };
  for (const auto& [len, expected] : known) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + 1);
    EXPECT_EQ(hex(sha256(ByteView(msg))), expected) << "len=" << len;
    Sha256 incremental;
    for (const std::uint8_t b : msg) incremental.update(ByteView(&b, 1));
    EXPECT_EQ(hex(incremental.finish()), expected) << "byte-at-a-time len=" << len;
  }
}

TEST(Sha256Test, DigestBytesMatchesDigest) {
  const Digest d = sha256("abc");
  const Bytes b = digest_bytes(d);
  ASSERT_EQ(b.size(), kDigestSize);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

TEST(Sha256Test, SensitivityToSingleBit) {
  Bytes a = to_bytes("sensitive");
  Bytes b = a;
  b[0] ^= 0x01;
  EXPECT_NE(sha256(ByteView(a)), sha256(ByteView(b)));
}

}  // namespace
}  // namespace itdos::crypto
