#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/gcm_kernel.hpp"

#if ITDOS_AES_NI_KERNEL
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace itdos::crypto::detail {

namespace {

// --- GF(2^8) and the S-box (FIPS-197 §4, §5.1.1) ---------------------------

/// Multiplication by x modulo the AES polynomial x^8 + x^4 + x^3 + x + 1.
constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) != 0 ? 0x1b : 0));
}

constexpr std::uint8_t rotl8(std::uint8_t a, int n) {
  return static_cast<std::uint8_t>((a << n) | (a >> (8 - n)));
}

/// The S-box from its definition: the multiplicative inverse (0 for 0),
/// found through powers of the generator 3, then the affine map.
constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> exp{};
  std::array<std::uint8_t, 256> log{};
  std::uint8_t p = 1;
  for (int i = 0; i < 255; ++i) {
    exp[static_cast<std::size_t>(i)] = p;
    log[p] = static_cast<std::uint8_t>(i);
    p = static_cast<std::uint8_t>(p ^ xtime(p));  // p * 3
  }
  std::array<std::uint8_t, 256> box{};
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t inv = x == 0 ? 0 : exp[(255 - log[static_cast<std::size_t>(x)]) % 255];
    box[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(
        inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63);
  }
  return box;
}

constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();
static_assert(kSbox[0x00] == 0x63 && kSbox[0x53] == 0xed && kSbox[0xff] == 0x16);

// --- Portable AES-256 --------------------------------------------------------

/// FIPS-197 Cipher(): the state is the 16 input bytes column by column, so
/// row r of column c is byte r + 4c.
void encrypt_block(const std::uint8_t* round_keys, const std::uint8_t* in, std::uint8_t* out) {
  std::uint8_t s[kAesBlockSize];
  for (std::size_t i = 0; i < kAesBlockSize; ++i) s[i] = in[i] ^ round_keys[i];
  for (int round = 1; round <= kAes256Rounds; ++round) {
    std::uint8_t t[kAesBlockSize];
    for (int c = 0; c < 4; ++c) {  // SubBytes and ShiftRows
      for (int r = 0; r < 4; ++r) t[r + 4 * c] = kSbox[s[r + 4 * ((c + r) & 3)]];
    }
    if (round == kAes256Rounds) {
      std::memcpy(s, t, kAesBlockSize);
    } else {
      for (int c = 0; c < 4; ++c) {  // MixColumns
        const std::uint8_t a0 = t[4 * c], a1 = t[4 * c + 1], a2 = t[4 * c + 2],
                           a3 = t[4 * c + 3];
        s[4 * c] = xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3;
        s[4 * c + 1] = a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3;
        s[4 * c + 2] = a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3;
        s[4 * c + 3] = xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3);
      }
    }
    const std::uint8_t* k = round_keys + round * kAesBlockSize;
    for (std::size_t i = 0; i < kAesBlockSize; ++i) s[i] ^= k[i];
  }
  std::memcpy(out, s, kAesBlockSize);
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

void ctr_portable(const GcmKey& key, const AesBlock& counter, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t size) {
  AesBlock block = counter;
  std::uint32_t count = load_be32(block.data() + 12);
  for (std::size_t offset = 0; offset < size; offset += kAesBlockSize) {
    std::uint8_t keystream[kAesBlockSize];
    encrypt_block(key.round_keys.data(), block.data(), keystream);
    store_be32(block.data() + 12, ++count);
    const std::size_t take = std::min(size - offset, kAesBlockSize);
    for (std::size_t i = 0; i < take; ++i) out[offset + i] = in[offset + i] ^ keystream[i];
  }
}

// --- Portable GHASH ----------------------------------------------------------

/// A GCM block as two big-endian halves: bit 0 of the spec's bit string is
/// the top bit of `hi`.
struct Block128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

Block128 load_block(const std::uint8_t* p) {
  Block128 b;
  for (int i = 0; i < 8; ++i) {
    b.hi = (b.hi << 8) | p[i];
    b.lo = (b.lo << 8) | p[8 + i];
  }
  return b;
}

void store_block(const Block128& b, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(b.hi >> (56 - 8 * i));
    p[8 + i] = static_cast<std::uint8_t>(b.lo >> (56 - 8 * i));
  }
}

/// x * y in GF(2^128), SP 800-38D Algorithm 1, without data-dependent
/// branches: R = 11100001 || 0^120.
Block128 gf_multiply(const Block128& x, const Block128& y) {
  Block128 z;
  Block128 v = y;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit = (i < 64 ? x.hi >> (63 - i) : x.lo >> (127 - i)) & 1;
    z.hi ^= v.hi & (0 - bit);
    z.lo ^= v.lo & (0 - bit);
    const std::uint64_t carry = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi = (v.hi >> 1) ^ (0xe100000000000000ULL & (0 - carry));
  }
  return z;
}

void ghash_portable(const GcmKey& key, AesBlock& y, const std::uint8_t* data,
                    std::size_t blocks) {
  const Block128 h = load_block(key.h_powers[0].data());
  Block128 acc = load_block(y.data());
  for (; blocks > 0; --blocks, data += kAesBlockSize) {
    const Block128 x = load_block(data);
    acc.hi ^= x.hi;
    acc.lo ^= x.lo;
    acc = gf_multiply(acc, h);
  }
  store_block(acc, y.data());
}

#if ITDOS_AES_NI_KERNEL

// --- AES-NI and PCLMULQDQ ----------------------------------------------------

#define ITDOS_AES_NI_TARGET __attribute__((target("aes,pclmul,sse4.1,ssse3")))

/// The counter block with `count` as its big-endian last word.
ITDOS_AES_NI_TARGET inline __m128i counter_block(__m128i base, std::uint32_t count) {
  return _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(count)), 3);
}

ITDOS_AES_NI_TARGET void ctr_aes_ni(const GcmKey& key, const AesBlock& counter,
                                    const std::uint8_t* in, std::uint8_t* out,
                                    std::size_t size) {
  __m128i rk[kAes256Rounds + 1];
  for (int r = 0; r <= kAes256Rounds; ++r) {
    rk[r] = _mm_load_si128(
        reinterpret_cast<const __m128i*>(key.round_keys.data() + r * kAesBlockSize));
  }
  const __m128i base = _mm_loadu_si128(reinterpret_cast<const __m128i*>(counter.data()));
  std::uint32_t count = load_be32(counter.data() + 12);
  constexpr std::size_t kLanes = 8;
  std::size_t offset = 0;
  // Eight independent blocks keep the AES unit's pipeline full; each input
  // block is loaded before its output is stored, so in == out is safe.
  for (; size - offset >= kLanes * kAesBlockSize; offset += kLanes * kAesBlockSize) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(counter_block(base, count + static_cast<std::uint32_t>(j)), rk[0]);
    }
    count += kLanes;
#pragma GCC unroll 13
    for (int r = 1; r < kAes256Rounds; ++r) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kLanes; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::size_t at = offset + j * kAesBlockSize;
      const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + at));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + at),
                       _mm_xor_si128(x, _mm_aesenclast_si128(b[j], rk[kAes256Rounds])));
    }
  }
  for (; offset < size; offset += kAesBlockSize) {
    __m128i b = _mm_xor_si128(counter_block(base, count++), rk[0]);
    for (int r = 1; r < kAes256Rounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[kAes256Rounds]);
    if (size - offset >= kAesBlockSize) {
      const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + offset));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + offset), _mm_xor_si128(x, b));
    } else {
      alignas(16) std::uint8_t keystream[kAesBlockSize];
      _mm_store_si128(reinterpret_cast<__m128i*>(keystream), b);
      for (std::size_t i = 0; offset + i < size; ++i) {
        out[offset + i] = in[offset + i] ^ keystream[i];
      }
    }
  }
}

// GHASH on byte-reversed blocks (Gueron and Kounavis, "Intel Carry-Less
// Multiplication Instruction and its Usage for Computing the GCM Mode"):
// reversing a block's bytes puts GCM's bit-reflected polynomial in one
// 128-bit register, a carry-less product of two such values is the
// reflected product shifted right by one, and reduction modulo
// x^128 + x^7 + x^2 + x + 1 is shifts and XORs. Product and reduction are
// both linear, so four products are summed and reduced once.

/// Adds the 256-bit carry-less product a * b into (lo, mid, hi), where mid
/// holds the two cross terms unshifted.
ITDOS_AES_NI_TARGET inline void clmul_add(__m128i a, __m128i b, __m128i& lo, __m128i& mid,
                                          __m128i& hi) {
  lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(a, b, 0x00));
  hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(a, b, 0x11));
  mid = _mm_xor_si128(mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                         _mm_clmulepi64_si128(a, b, 0x01)));
}

/// The reduced field element of a summed product from clmul_add.
ITDOS_AES_NI_TARGET inline __m128i reduce(__m128i lo, __m128i mid, __m128i hi) {
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
  // Shift the 256-bit product left by one bit, undoing the reflection.
  __m128i lo_carry = _mm_srli_epi32(lo, 31);
  __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  const __m128i cross = _mm_srli_si128(lo_carry, 12);
  hi_carry = _mm_slli_si128(hi_carry, 4);
  lo_carry = _mm_slli_si128(lo_carry, 4);
  lo = _mm_or_si128(lo, lo_carry);
  hi = _mm_or_si128(_mm_or_si128(hi, hi_carry), cross);
  // First phase of the reduction.
  __m128i t = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                            _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  // Second phase.
  t = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                    _mm_srli_epi32(lo, 7));
  t = _mm_xor_si128(t, spill);
  return _mm_xor_si128(hi, _mm_xor_si128(lo, t));
}

/// The 16 bytes at `p`, reversed.
ITDOS_AES_NI_TARGET inline __m128i load_reversed(const std::uint8_t* p) {
  const __m128i reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), reverse);
}

ITDOS_AES_NI_TARGET void ghash_aes_ni(const GcmKey& key, AesBlock& y, const std::uint8_t* data,
                                      std::size_t blocks) {
  const auto load = load_reversed;
  const __m128i h1 = load(key.h_powers[0].data());
  const __m128i h2 = load(key.h_powers[1].data());
  const __m128i h3 = load(key.h_powers[2].data());
  const __m128i h4 = load(key.h_powers[3].data());
  __m128i acc = load(y.data());
  // Y' = (Y + X1)H^4 + X2 H^3 + X3 H^2 + X4 H, one reduction per four.
  for (; blocks >= 4; blocks -= 4, data += 4 * kAesBlockSize) {
    __m128i lo = _mm_setzero_si128(), mid = lo, hi = lo;
    clmul_add(_mm_xor_si128(acc, load(data)), h4, lo, mid, hi);
    clmul_add(load(data + kAesBlockSize), h3, lo, mid, hi);
    clmul_add(load(data + 2 * kAesBlockSize), h2, lo, mid, hi);
    clmul_add(load(data + 3 * kAesBlockSize), h1, lo, mid, hi);
    acc = reduce(lo, mid, hi);
  }
  for (; blocks > 0; --blocks, data += kAesBlockSize) {
    __m128i lo = _mm_setzero_si128(), mid = lo, hi = lo;
    clmul_add(_mm_xor_si128(acc, load(data)), h1, lo, mid, hi);
    acc = reduce(lo, mid, hi);
  }
  const __m128i reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y.data()), _mm_shuffle_epi8(acc, reverse));
}

#undef ITDOS_AES_NI_TARGET

// --- VAES and VPCLMULQDQ -----------------------------------------------------
//
// The AES-NI kernel again, four 128-bit lanes to a zmm register (Drucker,
// Gueron and Krasnov, "Making AES great again: the forthcoming vectorized
// AES instruction"). Whatever is shorter than one wide step goes to the
// AES-NI functions above, with the counter or accumulator where this left
// it.

#define ITDOS_VAES_TARGET                                                               \
  __attribute__((target("aes,pclmul,sse4.1,ssse3,avx512f,avx512bw,avx512vl,vaes," \
                        "vpclmulqdq")))

/// `x` in every 128-bit lane of a zmm register. The all-lanes zero-masked
/// forms here and below give the same results as the unmasked ones, whose
/// undefined pass-through operand GCC reports as maybe-uninitialized.
ITDOS_VAES_TARGET inline __m512i broadcast_lane(__m128i x) {
  return _mm512_maskz_broadcast_i32x4(static_cast<__mmask16>(0xffff), x);
}

/// `x` in lane 0 of a zmm register, the other lanes zero.
ITDOS_VAES_TARGET inline __m512i lane0(__m128i x) {
  return _mm512_maskz_broadcast_i32x4(static_cast<__mmask16>(0x000f), x);
}

/// The XOR of a zmm register's four 128-bit lanes.
ITDOS_VAES_TARGET inline __m128i fold_lanes(__m512i x) {
  const __mmask8 all = 0xf;
  return _mm_ternarylogic_epi64(
      _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(all, x, 0),
                    _mm512_maskz_extracti32x4_epi32(all, x, 1)),
      _mm512_maskz_extracti32x4_epi32(all, x, 2), _mm512_maskz_extracti32x4_epi32(all, x, 3),
      0x96);
}

/// Reverses the bytes of each 128-bit lane.
ITDOS_VAES_TARGET inline __m512i reverse_lanes(__m512i x) {
  const __m512i reverse = broadcast_lane(
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  return _mm512_shuffle_epi8(x, reverse);
}

ITDOS_VAES_TARGET void ctr_vaes(const GcmKey& key, const AesBlock& counter,
                                const std::uint8_t* in, std::uint8_t* out, std::size_t size) {
  constexpr std::size_t kRegisters = 8;
  constexpr std::size_t kStep = kRegisters * 4 * kAesBlockSize;
  std::size_t offset = 0;
  if (size >= kStep) {
    __m512i rk[kAes256Rounds + 1];
    for (int r = 0; r <= kAes256Rounds; ++r) {
      rk[r] = broadcast_lane(_mm_load_si128(
          reinterpret_cast<const __m128i*>(key.round_keys.data() + r * kAesBlockSize)));
    }
    // Each lane holds a counter block byte-reversed, so its big-endian last
    // word is the lane's low 32-bit element and one vector add steps every
    // lane's counter mod 2^32, as inc32 does.
    __m512i next = _mm512_add_epi32(
        reverse_lanes(broadcast_lane(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(counter.data())))),
        _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0));
    const __m512i four = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
    // Eight registers of four independent blocks keep the AES units busy;
    // every input is loaded before its output is stored, so in == out is safe.
    for (; size - offset >= kStep; offset += kStep) {
      __m512i b[kRegisters];
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kRegisters; ++j) {
        b[j] = _mm512_xor_si512(reverse_lanes(next), rk[0]);
        next = _mm512_add_epi32(next, four);
      }
#pragma GCC unroll 13
      for (int r = 1; r < kAes256Rounds; ++r) {
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kRegisters; ++j) b[j] = _mm512_aesenc_epi128(b[j], rk[r]);
      }
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kRegisters; ++j) {
        const std::size_t at = offset + j * 4 * kAesBlockSize;
        const __m512i x = _mm512_loadu_si512(in + at);
        _mm512_storeu_si512(out + at, _mm512_xor_si512(
                                          x, _mm512_aesenclast_epi128(b[j], rk[kAes256Rounds])));
      }
    }
  }
  if (offset == size) return;
  AesBlock rest = counter;
  store_be32(rest.data() + 12, load_be32(counter.data() + 12) +
                                   static_cast<std::uint32_t>(offset / kAesBlockSize));
  ctr_aes_ni(key, rest, in + offset, out + offset, size - offset);
}

ITDOS_VAES_TARGET void ghash_vaes(const GcmKey& key, AesBlock& y, const std::uint8_t* data,
                                  std::size_t blocks) {
  constexpr std::size_t kBlocks = 16;
  if (blocks >= kBlocks) {
    // Lane i of h[k] holds H^(16 - 4k - i), byte-reversed: reversing the 64
    // bytes H^(4m+1)..H^(4m+4) reverses both the lanes and their bytes.
    __m512i h[4];
    for (std::size_t k = 0; k < 4; ++k) {
      const __m512i powers = reverse_lanes(_mm512_loadu_si512(key.h_powers[12 - 4 * k].data()));
      h[k] = _mm512_maskz_shuffle_i64x2(static_cast<__mmask8>(0xff), powers, powers, 0x1b);
    }
    __m128i acc = load_reversed(y.data());
    // Y' = (Y + X1)H^16 + X2 H^15 + ... + X16 H, one reduction per sixteen.
    for (; blocks >= kBlocks; blocks -= kBlocks, data += kBlocks * kAesBlockSize) {
      __m512i lo = _mm512_setzero_si512(), mid = lo, hi = lo;
#pragma GCC unroll 4
      for (std::size_t k = 0; k < 4; ++k) {
        __m512i x = reverse_lanes(_mm512_loadu_si512(data + 4 * k * kAesBlockSize));
        if (k == 0) x = _mm512_xor_si512(x, lane0(acc));
        lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(x, h[k], 0x00));
        hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(x, h[k], 0x11));
        mid = _mm512_ternarylogic_epi64(mid, _mm512_clmulepi64_epi128(x, h[k], 0x10),
                                        _mm512_clmulepi64_epi128(x, h[k], 0x01), 0x96);
      }
      acc = reduce(fold_lanes(lo), fold_lanes(mid), fold_lanes(hi));
    }
    const __m128i reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y.data()), _mm_shuffle_epi8(acc, reverse));
  }
  if (blocks > 0) ghash_aes_ni(key, y, data, blocks);
}

#undef ITDOS_VAES_TARGET

#endif  // ITDOS_AES_NI_KERNEL

/// The kernel seal and open use. Constant-initialised to the portable one,
/// so a seal made during another file's static initialisation is still
/// correct; this file's dynamic initialisation then switches it once, from
/// CPUID. Both give identical bytes.
constinit const GcmKernel* selected = &kGcmPortable;

const GcmKernel* select_kernel() {
#if ITDOS_AES_NI_KERNEL
  if (vaes_available()) return &kGcmVaes;
  if (aes_ni_available()) return &kGcmAesNi;
#endif
  return &kGcmPortable;
}

[[maybe_unused]] const bool kKernelSelected = (selected = select_kernel(), true);

}  // namespace

constinit const GcmKernel kGcmPortable = {ctr_portable, ghash_portable};

const GcmKernel& selected_gcm_kernel() { return *selected; }

void expand_aes256_key(ByteView aes_key, std::uint8_t* round_keys) {
  assert(aes_key.size() == kAes256KeySize);
  // FIPS-197 KeyExpansion() for Nk = 8: word i is bytes 4i..4i+3.
  std::uint8_t* w = round_keys;
  std::memcpy(w, aes_key.data(), kAes256KeySize);
  std::uint8_t rcon = 1;
  for (std::size_t i = 8; i < 4 * (kAes256Rounds + 1); ++i) {
    std::uint8_t t[4];
    std::memcpy(t, w + 4 * (i - 1), 4);
    if (i % 8 == 0) {  // RotWord, SubWord, Rcon
      const std::uint8_t first = t[0];
      t[0] = kSbox[t[1]] ^ rcon;
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[first];
      rcon = xtime(rcon);
    } else if (i % 8 == 4) {
      for (std::uint8_t& b : t) b = kSbox[b];
    }
    for (std::size_t j = 0; j < 4; ++j) w[4 * i + j] = w[4 * (i - 8) + j] ^ t[j];
  }
}

void aes256_encrypt_block(const std::uint8_t* round_keys, const std::uint8_t* in,
                          std::uint8_t* out) {
  encrypt_block(round_keys, in, out);
}

GcmKey make_gcm_key(ByteView aes_key) {
  GcmKey key;
  expand_aes256_key(aes_key, key.round_keys.data());
  // H = AES(0^128) is the first CTR keystream block from the zero counter
  // block, and one GHASH step over a zero block takes y = H^i to H^(i+1).
  const GcmKernel& kernel = selected_gcm_kernel();
  const AesBlock zero{};
  kernel.ctr(key, zero, zero.data(), key.h_powers[0].data(), kAesBlockSize);
  for (std::size_t i = 1; i < key.h_powers.size(); ++i) {
    key.h_powers[i] = key.h_powers[i - 1];
    kernel.ghash(key, key.h_powers[i], zero.data(), 1);
  }
  return key;
}

#if ITDOS_AES_NI_KERNEL

constinit const GcmKernel kGcmAesNi = {ctr_aes_ni, ghash_aes_ni};
constinit const GcmKernel kGcmVaes = {ctr_vaes, ghash_vaes};

bool aes_ni_available() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool pclmul = (ecx >> 1) & 1;
  const bool ssse3 = (ecx >> 9) & 1;
  const bool sse41 = (ecx >> 19) & 1;
  const bool aes = (ecx >> 25) & 1;
  return aes && pclmul && ssse3 && sse41;
}

bool vaes_available() {
  if (!aes_ni_available()) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  __cpuid(1, eax, ebx, ecx, edx);
  const bool osxsave = (ecx >> 27) & 1;
  if (!osxsave || __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool avx512f = (ebx >> 16) & 1;
  const bool avx512bw = (ebx >> 30) & 1;
  const bool avx512vl = (ebx >> 31) & 1;
  const bool vaes = (ecx >> 9) & 1;
  const bool vpclmulqdq = (ecx >> 10) & 1;
  if (!(avx512f && avx512bw && avx512vl && vaes && vpclmulqdq)) return false;
  // XCR0: the OS saves XMM (bit 1), YMM (2), the opmask registers (5) and
  // both halves of the ZMM state (6, 7).
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr unsigned kZmmState = 0xe6;
  return (xcr0_lo & kZmmState) == kZmmState;
}

#else

bool aes_ni_available() { return false; }

bool vaes_available() { return false; }

#endif

}  // namespace itdos::crypto::detail
