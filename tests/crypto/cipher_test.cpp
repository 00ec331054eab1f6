#include "crypto/cipher.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace itdos::crypto {
namespace {

SymmetricKey test_key(std::uint8_t fill = 0x42) {
  return SymmetricKey::from_bytes(Bytes(kSymmetricKeySize, fill));
}

Bytes ctr(const SymmetricKey& key, const Nonce& nonce, Bytes data) {
  ctr_crypt(key, nonce, data, data);
  return data;
}

TEST(CipherTest, CtrRoundTrip) {
  const SymmetricKey key = test_key();
  const Nonce nonce = make_nonce(1, 1);
  const Bytes plaintext = to_bytes("attack at dawn");
  const Bytes ct = ctr(key, nonce, plaintext);
  EXPECT_NE(ct, plaintext);
  EXPECT_EQ(ctr(key, nonce, ct), plaintext);
}

TEST(CipherTest, CtrEmptyPlaintext) {
  EXPECT_TRUE(ctr(test_key(), make_nonce(0, 0), {}).empty());
}

TEST(CipherTest, CtrLargeMultiBlock) {
  Rng rng(1);
  const Bytes plaintext = rng.next_bytes(10000);
  const Nonce nonce = make_nonce(9, 9);
  const Bytes ct = ctr(test_key(), nonce, plaintext);
  ASSERT_EQ(ct.size(), plaintext.size());
  EXPECT_EQ(ctr(test_key(), nonce, ct), plaintext);
}

TEST(CipherTest, DistinctNoncesDistinctKeystreams) {
  const Bytes zeros(64, 0);
  const Bytes ks1 = ctr(test_key(), make_nonce(1, 1), zeros);
  const Bytes ks2 = ctr(test_key(), make_nonce(1, 2), zeros);
  EXPECT_NE(ks1, ks2);
}

TEST(CipherTest, DistinctKeysDistinctKeystreams) {
  const Bytes zeros(64, 0);
  EXPECT_NE(ctr(test_key(0x01), make_nonce(1, 1), zeros),
            ctr(test_key(0x02), make_nonce(1, 1), zeros));
}

TEST(CipherTest, NonceEncodesSenderAndCounter) {
  EXPECT_NE(make_nonce(1, 7), make_nonce(2, 7));
  EXPECT_NE(make_nonce(1, 7), make_nonce(1, 8));
  EXPECT_EQ(make_nonce(3, 9), make_nonce(3, 9));
}

TEST(SealTest, RoundTrip) {
  const SymmetricKey key = test_key();
  const Bytes aad = to_bytes("header");
  const Bytes pt = to_bytes("confidential request body");
  const Bytes sealed = seal(key, make_nonce(4, 2), aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + kSealOverhead);
  const Result<Bytes> opened = open(key, aad, sealed);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), pt);
}

TEST(SealTest, EmptyPlaintextRoundTrip) {
  const SymmetricKey key = test_key();
  const Bytes sealed = seal(key, make_nonce(1, 1), {}, {});
  EXPECT_EQ(sealed.size(), kSealOverhead);
  const Result<Bytes> opened = open(key, {}, sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_TRUE(opened.value().empty());
}

TEST(SealTest, RejectsWrongKey) {
  const Bytes sealed = seal(test_key(0x01), make_nonce(1, 1), {}, to_bytes("x"));
  const Result<Bytes> opened = open(test_key(0x02), {}, sealed);
  EXPECT_EQ(opened.status().code(), Errc::kAuthFailure);
}

TEST(SealTest, RejectsTamperedCiphertext) {
  Bytes sealed = seal(test_key(), make_nonce(1, 1), {}, to_bytes("payload"));
  sealed[kNonceSize] ^= 0x01;  // flip first ciphertext byte
  EXPECT_EQ(open(test_key(), {}, sealed).status().code(), Errc::kAuthFailure);
}

TEST(SealTest, RejectsTamperedNonce) {
  Bytes sealed = seal(test_key(), make_nonce(1, 1), {}, to_bytes("payload"));
  sealed[0] ^= 0x01;
  EXPECT_EQ(open(test_key(), {}, sealed).status().code(), Errc::kAuthFailure);
}

TEST(SealTest, RejectsWrongAad) {
  const Bytes sealed = seal(test_key(), make_nonce(1, 1), to_bytes("aad-1"), to_bytes("p"));
  EXPECT_EQ(open(test_key(), to_bytes("aad-2"), sealed).status().code(),
            Errc::kAuthFailure);
}

TEST(SealTest, RejectsTruncatedBuffer) {
  const Bytes sealed = seal(test_key(), make_nonce(1, 1), {}, to_bytes("p"));
  const ByteView truncated(sealed.data(), kSealOverhead - 1);
  EXPECT_EQ(open(test_key(), {}, truncated).status().code(), Errc::kMalformedMessage);
}

TEST(SealTest, SingleBufferSealMatchesReferenceComposition) {
  // Reference built from first principles, one-shot hashes only: keystream
  // block i = SHA-256(pad64(k_enc) || nonce || LE64(i)), ciphertext =
  // plaintext XOR keystream, tag = HMAC(k_mac, nonce || aad || ciphertext)
  // truncated. The single-buffer seal with cached midstates must match it.
  const SymmetricKey key = test_key(0x21);
  const Nonce nonce = make_nonce(6, 44);
  const ByteView nonce_view(nonce.data(), nonce.size());
  const Bytes aad = to_bytes("routing header");
  Bytes pad64 = derive_key(key.view(), "itdos.enc", {});
  pad64.resize(kBlockSize, 0);
  const Bytes k_mac = derive_key(key.view(), "itdos.mac", {});
  Rng rng(11);
  for (const std::size_t size : {0u, 1u, 100u, 5000u}) {
    const Bytes plaintext = rng.next_bytes(size);
    Bytes ciphertext = plaintext;
    for (std::size_t block = 0; block * kDigestSize < size; ++block) {
      Bytes input = pad64;
      append(input, nonce_view);
      for (int i = 0; i < 8; ++i) input.push_back(static_cast<std::uint8_t>(block >> (i * 8)));
      ASSERT_EQ(input.size(), 84u);
      const Digest keystream = sha256(ByteView(input));
      for (std::size_t i = 0; i < kDigestSize && block * kDigestSize + i < size; ++i) {
        ciphertext[block * kDigestSize + i] ^= keystream[i];
      }
    }
    Bytes reference;
    append(reference, nonce_view);
    append(reference, ciphertext);
    const Digest tag = hmac_sha256(k_mac, {nonce_view, aad, ciphertext});
    append(reference, ByteView(tag.data(), kMacTagSize));
    EXPECT_EQ(seal(key, nonce, aad, plaintext), reference) << size;
  }
}

TEST(SealTest, PinnedWireFormatKnownAnswers) {
  // Sealed bytes for key 00..1f, make_nonce(0x01020304, 0x1122334455667788),
  // AAD "itdos-kat" and plaintext byte i = i mod 256, computed with Python's
  // hashlib/hmac from the construction in cipher.hpp. Any change here is a
  // wire-format change. The 5000-byte case pins the SHA-256 of its 5028
  // sealed bytes instead of their hex.
  Bytes raw(kSymmetricKeySize);
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<std::uint8_t>(i);
  const SymmetricKey key = SymmetricKey::from_bytes(raw);
  const Nonce nonce = make_nonce(0x01020304, 0x1122334455667788ULL);
  const Bytes aad = to_bytes("itdos-kat");
  const auto sealed_of = [&](std::size_t size) {
    Bytes plaintext(size);
    for (std::size_t i = 0; i < size; ++i) plaintext[i] = static_cast<std::uint8_t>(i);
    return seal(key, nonce, aad, plaintext);
  };
  const std::vector<std::pair<std::size_t, std::string>> known = {
      {0, "0403020188776655443322110d4f3f91841d24feae3fc311eae91101"},
      {1, "040302018877665544332211396b9299acbc20b81a099d3b4d75f703ab"},
      {31,
       "04030201887766554433221139361411624a011dccdeb8b4c26b04cc9d5b5dcceab3898887"
       "0218de9f43f7c4ec2df92768bb959f7f07313c2c5085"},
      {32,
       "04030201887766554433221139361411624a011dccdeb8b4c26b04cc9d5b5dcceab3898887"
       "0218de9f43f7acaa4489c5ca2f25614b62693b12abc610"},
      {33,
       "04030201887766554433221139361411624a011dccdeb8b4c26b04cc9d5b5dcceab3898887"
       "0218de9f43f7ac1dc06121043d4aa7099b1bd392d746a9b5"},
      {100,
       "04030201887766554433221139361411624a011dccdeb8b4c26b04cc9d5b5dcceab3898887"
       "0218de9f43f7ac1de3f4837baf4f3f4ea8f9b0a808292c0f900e1555eb7b72952e23951b0b"
       "ec4dacc36528f94615da6f0c50a0c32e4839f85a922f0fd3d8f668741161bce31d096cf99e"
       "13921adba78a460a4b0708904e3682204c"},
  };
  for (const auto& [size, hex] : known) {
    EXPECT_EQ(hex_encode(sealed_of(size)), hex) << size;
  }
  const Bytes large = sealed_of(5000);
  ASSERT_EQ(large.size(), 5000 + kSealOverhead);
  EXPECT_EQ(hex_encode(digest_view(sha256(ByteView(large)))),
            "e58724187d4d92aa811ad91dc93fe2048c329b3de661a45bea68ea2b17c6a8d3");
}

TEST(SealTest, FingerprintStableAndShort) {
  const SymmetricKey key = test_key();
  EXPECT_EQ(key.fingerprint(), test_key().fingerprint());
  EXPECT_EQ(key.fingerprint().size(), 8u);
  EXPECT_NE(key.fingerprint(), test_key(0x43).fingerprint());
}

}  // namespace
}  // namespace itdos::crypto
