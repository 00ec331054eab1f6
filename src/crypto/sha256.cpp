#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_kernel.hpp"

#if ITDOS_SHA_NI_KERNEL
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace itdos::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// The kernel every Sha256 uses. Constant-initialised to the portable loop,
/// so a hash taken during another file's static initialisation is still
/// correct; this file's dynamic initialisation then switches it once, from
/// CPUID, to the fastest kernel. Both give identical bytes.
constinit detail::CompressFn compress_blocks = detail::compress_portable;

detail::CompressFn select_kernel() {
#if ITDOS_SHA_NI_KERNEL
  if (detail::sha_ni_available()) return detail::compress_sha_ni;
#endif
  return detail::compress_portable;
}

[[maybe_unused]] const bool kKernelSelected = (compress_blocks = select_kernel(), true);

}  // namespace

namespace detail {

CompressFn selected_kernel() { return compress_blocks; }

void compress_portable(Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(data[i * 4]) << 24) | (std::uint32_t(data[i * 4 + 1]) << 16) |
             (std::uint32_t(data[i * 4 + 2]) << 8) | std::uint32_t(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if ITDOS_SHA_NI_KERNEL

bool sha_ni_available() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx >> 9) & 1;
  const bool sse41 = (ecx >> 19) & 1;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx >> 29) & 1;
  return sha && ssse3 && sse41;
}

// The SHA extensions work on the state as two lanes, ABEF and CDGH.
// sha256rnds2 runs two rounds; its round inputs (message word plus round
// constant) come from the low 64 bits of the third operand. W[j] below is
// message words 4j..4j+3. W[0..3] are the block's 16 big-endian words;
// W[j] for j >= 4 is msg2(msg1(W[j-4], W[j-3]) + alignr(W[j-1], W[j-2]),
// W[j-1]), kept in a 4-slot ring: the msg1 half is taken three groups
// early, into the slot W[j-4] frees.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(Sha256State& state,
                                                                  const std::uint8_t* data,
                                                                  std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // Lane names run from the high lane down, as in Intel's documentation.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i& cur = w[j & 3];
      if (j < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)), byte_swap);
      }
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * j));
      const __m128i wk = _mm_add_epi32(cur, k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (j >= 3 && j <= 14) {  // W[j+1], while the rounds retire
        __m128i& next = w[(j + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(j - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (j >= 1 && j <= 12) {  // msg1 half of W[j+3]
        __m128i& prev = w[(j - 1) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool sha_ni_available() { return false; }

#endif

}  // namespace detail

Sha256::Sha256() : state_(detail::kInitialState) {}

Sha256& Sha256::update(ByteView data) {
  if (data.empty()) return *this;
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == buffer_.size()) {
      compress_blocks(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Every whole block left goes to the kernel in one call.
  const std::size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    compress_blocks(state_, data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros up to the 8-byte length field, then the message
  // length in bits, big-endian. A tail of more than 55 bytes leaves no room
  // for the length and spills into one extra block.
  constexpr std::size_t kLengthAt = kBlockSize - 8;
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kLengthAt) {
    std::memset(buffer_.data() + buffered_, 0, kBlockSize - buffered_);
    compress_blocks(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, kLengthAt - buffered_);
  detail::store_be64(buffer_.data() + kLengthAt, bit_length);
  compress_blocks(state_, buffer_.data(), 1);

  Digest out{};
  detail::store_digest(state_, out.data());
  return out;
}

Digest sha256(ByteView data) { return Sha256().update(data).finish(); }

Digest sha256(std::string_view s) { return Sha256().update(s).finish(); }

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace itdos::crypto
