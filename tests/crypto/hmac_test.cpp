#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace itdos::crypto {
namespace {

std::string hex(const Digest& d) { return hex_encode(digest_view(d)); }

// RFC 4231 test vectors for HMAC-SHA256.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);  // key longer than block size gets hashed
  EXPECT_EQ(hex(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, CachedKeyMatchesRfc4231) {
  // The same RFC 4231 cases 1-3 and 6 through one HmacKey each, MAC'd twice:
  // the midstates must survive a use unchanged.
  const struct {
    Bytes key;
    Bytes data;
    const char* expected;
  } cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa), to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const auto& c : cases) {
    const HmacKey key(c.key);
    EXPECT_EQ(hex(key.mac(c.data)), c.expected);
    EXPECT_EQ(hex(key.mac(c.data)), c.expected);
    // Split into three segments at arbitrary points.
    const ByteView data(c.data);
    EXPECT_EQ(hex(key.mac({data.first(3), data.subspan(3, 5), data.subspan(8)})), c.expected);
  }
}

/// RFC 2104 HMAC from a plain Sha256, with no midstates or kernel calls:
/// the reference the kernel path is checked against.
Digest textbook_hmac(ByteView key, ByteView data) {
  Bytes block(kBlockSize, 0);
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  Bytes ipad = block;
  Bytes opad = block;
  for (std::uint8_t& b : ipad) b ^= 0x36;
  for (std::uint8_t& b : opad) b ^= 0x5c;
  const Digest inner = Sha256().update(ByteView(ipad)).update(data).finish();
  return Sha256().update(ByteView(opad)).update(digest_view(inner)).finish();
}

/// Runs detail::hmac_with on `kernel` over every length 0-300 (the padding
/// edges 55/56/63/64/119/120 among them), whole and split into two and
/// three segments at block-relative points, for short, block-sized and
/// hashed keys, and compares each MAC with the textbook HMAC.
void expect_matches_textbook(detail::CompressFn kernel, const std::string& name) {
  Rng rng(0x4a4c);
  const Bytes message = rng.next_bytes(300);
  for (const std::size_t key_size : {0u, 20u, 64u, 65u, 131u}) {
    const Bytes raw_key = rng.next_bytes(key_size);
    const HmacKey key(raw_key);
    for (std::size_t n = 0; n <= message.size(); ++n) {
      const ByteView data = ByteView(message).first(n);
      const Digest expected = textbook_hmac(raw_key, data);
      SCOPED_TRACE(testing::Message() << name << " key " << key_size << " length " << n);
      EXPECT_EQ(detail::hmac_with(kernel, key, {data}), expected);
      std::vector<std::size_t> cuts;
      for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                    std::size_t{55}, std::size_t{56}, std::size_t{63},
                                    std::size_t{64}, n / 2, n > 0 ? n - 1 : 0, n}) {
        if (cut <= n) cuts.push_back(cut);
      }
      for (const std::size_t a : cuts) {
        EXPECT_EQ(detail::hmac_with(kernel, key, {data.first(a), data.subspan(a)}), expected)
            << "split at " << a;
        for (const std::size_t b : cuts) {
          if (b < a) continue;
          EXPECT_EQ(detail::hmac_with(kernel, key,
                                      {data.first(a), data.subspan(a, b - a), data.subspan(b)}),
                    expected)
              << "split at " << a << ", " << b;
        }
      }
    }
  }
}

TEST(HmacTest, PortableKernelMatchesTextbook) {
  expect_matches_textbook(detail::compress_portable, "portable");
}

TEST(HmacTest, ShaNiKernelMatchesTextbook) {
#if ITDOS_SHA_NI_KERNEL
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_matches_textbook(detail::compress_sha_ni, "sha-ni");
#else
  GTEST_SKIP() << "no SHA-NI kernel on this architecture";
#endif
}

TEST(HmacTest, SegmentedMatchesConcatenated) {
  const Bytes key = to_bytes("segmented-key");
  const Bytes a = to_bytes("part-one|");
  const Bytes b = to_bytes("part-two|");
  const Bytes c = to_bytes("part-three");
  Bytes concat = a;
  append(concat, b);
  append(concat, c);
  EXPECT_EQ(hmac_sha256(key, {ByteView(a), ByteView(b), ByteView(c)}),
            hmac_sha256(key, concat));
}

TEST(HmacTest, MacTagVerifyRoundTrip) {
  const Bytes key = to_bytes("mac-key");
  const Bytes msg = to_bytes("authenticated payload");
  const MacTag tag = mac_tag(key, msg);
  EXPECT_TRUE(mac_verify(key, msg, tag));
}

TEST(HmacTest, MacTagRejectsTamperedMessage) {
  const Bytes key = to_bytes("mac-key");
  Bytes msg = to_bytes("authenticated payload");
  const MacTag tag = mac_tag(key, msg);
  msg[0] ^= 1;
  EXPECT_FALSE(mac_verify(key, msg, tag));
}

TEST(HmacTest, MacTagRejectsWrongKey) {
  const Bytes msg = to_bytes("payload");
  const MacTag tag = mac_tag(to_bytes("key-a"), msg);
  EXPECT_FALSE(mac_verify(to_bytes("key-b"), msg, tag));
}

TEST(HmacTest, MacTagRejectsTamperedTag) {
  const Bytes key = to_bytes("k");
  const Bytes msg = to_bytes("m");
  MacTag tag = mac_tag(key, msg);
  tag[0] ^= 0x80;
  EXPECT_FALSE(mac_verify(key, msg, tag));
}

TEST(HmacTest, DeriveKeyLabelSeparation) {
  const Bytes master = to_bytes("master-secret");
  const Bytes enc = derive_key(master, "enc", {});
  const Bytes mac = derive_key(master, "mac", {});
  EXPECT_EQ(enc.size(), kDigestSize);
  EXPECT_NE(enc, mac);
}

TEST(HmacTest, DeriveKeyInfoSeparation) {
  const Bytes master = to_bytes("master-secret");
  const Bytes a = derive_key(master, "label", to_bytes("conn-1"));
  const Bytes b = derive_key(master, "label", to_bytes("conn-2"));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace itdos::crypto
