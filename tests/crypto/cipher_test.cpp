#include "crypto/cipher.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace itdos::crypto {
namespace {

SymmetricKey test_key(std::uint8_t fill = 0x42) {
  return SymmetricKey::from_bytes(Bytes(kSymmetricKeySize, fill));
}

Bytes ctr(const SymmetricKey& key, const Nonce& nonce, Bytes data) {
  detail::gcm_ctr(detail::selected_gcm_kernel(), key, nonce, data, data);
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

/// x * y in GF(2^128), bit by bit as SP 800-38D Algorithm 1 states it:
/// bit i of a block is bit 7 - i % 8 of byte i / 8.
detail::AesBlock gf_multiply_reference(const detail::AesBlock& x, const detail::AesBlock& y) {
  detail::AesBlock z{};
  detail::AesBlock v = y;
  for (int i = 0; i < 128; ++i) {
    if ((x[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1) {
      for (std::size_t b = 0; b < 16; ++b) z[b] ^= v[b];
    }
    const bool lsb = (v[15] & 1) != 0;
    for (std::size_t b = 15; b > 0; --b) {
      v[b] = static_cast<std::uint8_t>((v[b] >> 1) | (v[b - 1] << 7));
    }
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  return z;
}

TEST(SealTest, SingleBufferSealMatchesReferenceComposition) {
  // Reference built from SP 800-38D step by step, with only the AES block
  // function taken from the library (the portable kernel, which the FIPS-197
  // vector in gcm_kernel_test pins): k_enc = HMAC(K, "itdos.enc"),
  // H = AES(0), J0 = nonce || 0^31 || 1, ciphertext block i = plaintext
  // block i XOR AES(nonce || BE32(i + 2)), S = GHASH_H(aad padded ||
  // ciphertext padded || BE64(aad bits) || BE64(ciphertext bits)) with the
  // bitwise multiply above, tag = S XOR AES(J0). The single-buffer seal with
  // the cached key schedule must match it.
  const SymmetricKey key = test_key(0x21);
  const Nonce nonce = make_nonce(6, 44);
  const ByteView nonce_view(nonce.data(), nonce.size());
  const Bytes aad = to_bytes("routing header");
  const detail::GcmKey k_enc = detail::make_gcm_key(derive_key(key.view(), "itdos.enc", {}));
  const auto aes = [&](const detail::AesBlock& in) {
    const detail::AesBlock zero{};
    detail::AesBlock out{};
    detail::kGcmPortable.ctr(k_enc, in, zero.data(), out.data(), out.size());
    return out;
  };
  const auto counter = [&](std::uint32_t i) {
    detail::AesBlock block{};
    std::copy(nonce.begin(), nonce.end(), block.begin());
    for (int b = 0; b < 4; ++b) block[12 + b] = static_cast<std::uint8_t>(i >> (24 - 8 * b));
    return block;
  };
  const detail::AesBlock h = aes(detail::AesBlock{});
  Rng rng(11);
  for (const std::size_t size : {0u, 1u, 16u, 100u, 5000u}) {
    const Bytes plaintext = rng.next_bytes(size);
    Bytes ciphertext = plaintext;
    for (std::size_t i = 0; i < size; ++i) {
      ciphertext[i] ^= aes(counter(static_cast<std::uint32_t>(i / 16 + 2)))[i % 16];
    }
    detail::AesBlock s{};
    const auto ghash = [&](ByteView data) {
      for (std::size_t at = 0; at < data.size(); at += 16) {
        for (std::size_t b = 0; b < 16 && at + b < data.size(); ++b) s[b] ^= data[at + b];
        s = gf_multiply_reference(s, h);
      }
    };
    ghash(aad);
    ghash(ciphertext);
    Bytes lengths(16, 0);
    for (int b = 0; b < 8; ++b) {
      lengths[7 - b] = static_cast<std::uint8_t>((aad.size() * 8) >> (8 * b));
      lengths[15 - b] = static_cast<std::uint8_t>((size * 8) >> (8 * b));
    }
    ghash(lengths);
    const detail::AesBlock mask = aes(counter(1));
    Bytes reference;
    append(reference, nonce_view);
    append(reference, ciphertext);
    for (std::size_t b = 0; b < 16; ++b) reference.push_back(s[b] ^ mask[b]);
    EXPECT_EQ(seal(key, nonce, aad, plaintext), reference) << size;
  }
}

TEST(SealTest, PinnedWireFormatKnownAnswers) {
  // Sealed bytes for key 00..1f, make_nonce(0x01020304, 0x1122334455667788),
  // AAD "itdos-kat" and plaintext byte i = i mod 256, computed with Python's
  // cryptography AESGCM under k_enc = HMAC-SHA256(key, "itdos.enc"), from
  // the construction in cipher.hpp. Any change here is a wire-format
  // change; these were re-blessed when the seal became AES-256-GCM. The
  // 5000-byte case pins the SHA-256 of its 5028 sealed bytes instead of
  // their hex.
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
      {0, "040302018877665544332211737eba906952f641c329fb89eaf8504c"},
      {1, "0403020188776655443322114af683bd5355b34872f4defafa291e038d"},
      {15,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d446b422c969d1b0eed2173"
       "9c023b9c325c"},
      {16,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d44a37de3b190631639180e"
       "9cd283bb79b85f"},
      {17,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d44a31a4937f947f1334c6b"
       "32f8ec3c7354d626"},
      {31,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d44a31a4da57695bfc1f014"
       "acc17b4f396890698f9dafd38e144018819bb5af89ac"},
      {32,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d44a31a4da57695bfc1f014"
       "acc17b4f3968f876fa4b9670f1304caecad3b732337d56"},
      {33,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d44a31a4da57695bfc1f014"
       "acc17b4f3968f8f4cc738233551b5d63bd46373533278df6"},
      {100,
       "0403020188776655443322114a28ed97ea0039ec03d5b3dd6c2d44a31a4da57695bfc1f014"
       "acc17b4f3968f8f4efdf486422e43daea83b41cf03536bdbe2fd0d9e2608889738a1046e9d"
       "e3e727e586d71d46d58a7de4850b9adc9736dca3fb9f3e62546e6d8370d41e82c1c616045c"
       "b7c719e862d3a61e5d0d6752d227f27064"},
  };
  for (const auto& [size, hex] : known) {
    EXPECT_EQ(hex_encode(sealed_of(size)), hex) << size;
  }
  const Bytes large = sealed_of(5000);
  ASSERT_EQ(large.size(), 5000 + kSealOverhead);
  EXPECT_EQ(hex_encode(digest_view(sha256(ByteView(large)))),
            "3dd7345aef1ecd6dea50f48df60628dc54484280671a11c5b4afe82697a05516");
}

TEST(SealTest, FingerprintStableAndShort) {
  const SymmetricKey key = test_key();
  EXPECT_EQ(key.fingerprint(), test_key().fingerprint());
  EXPECT_EQ(key.fingerprint().size(), 8u);
  EXPECT_NE(key.fingerprint(), test_key(0x43).fingerprint());
}

}  // namespace
}  // namespace itdos::crypto
