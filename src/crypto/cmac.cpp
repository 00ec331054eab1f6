#include "crypto/cmac.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#if ITDOS_AES_NI_KERNEL
#include <immintrin.h>
#endif

namespace itdos::crypto {

namespace detail {
namespace {

void absorb_portable(const CmacKey* const* keys, std::size_t lanes, AesBlock* chains,
                     const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kAesBlockSize) {
    for (std::size_t i = 0; i < lanes; ++i) {
      for (std::size_t j = 0; j < kAesBlockSize; ++j) chains[i][j] ^= data[j];
      aes256_encrypt_block(keys[i]->round_keys(), chains[i].data(), chains[i].data());
    }
  }
}

#if ITDOS_AES_NI_KERNEL

#define ITDOS_AES_NI_TARGET __attribute__((target("aes")))

/// A CBC chain's rounds depend on each other, so one chain leaves the AES
/// unit idle between them; `Lanes` chains issue their rounds in turn.
template <std::size_t Lanes>
ITDOS_AES_NI_TARGET void absorb_lanes(const CmacKey* const* keys, AesBlock* chains,
                                      const std::uint8_t* data, std::size_t blocks) {
  const __m128i* rk[Lanes];
  __m128i c[Lanes];
#pragma GCC unroll 4
  for (std::size_t i = 0; i < Lanes; ++i) {
    rk[i] = reinterpret_cast<const __m128i*>(keys[i]->round_keys());
    c[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(chains[i].data()));
  }
  for (; blocks > 0; --blocks, data += kAesBlockSize) {
    const __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data));
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Lanes; ++i) {
      c[i] = _mm_xor_si128(c[i], _mm_xor_si128(m, _mm_load_si128(rk[i])));
    }
#pragma GCC unroll 13
    for (int r = 1; r < kAes256Rounds; ++r) {
#pragma GCC unroll 4
      for (std::size_t i = 0; i < Lanes; ++i) {
        c[i] = _mm_aesenc_si128(c[i], _mm_load_si128(rk[i] + r));
      }
    }
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Lanes; ++i) {
      c[i] = _mm_aesenclast_si128(c[i], _mm_load_si128(rk[i] + kAes256Rounds));
    }
  }
#pragma GCC unroll 4
  for (std::size_t i = 0; i < Lanes; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(chains[i].data()), c[i]);
  }
}

void absorb_aes_ni(const CmacKey* const* keys, std::size_t lanes, AesBlock* chains,
                   const std::uint8_t* data, std::size_t blocks) {
  static_assert(kCmacLanes == 4);
  switch (lanes) {
    case 1: absorb_lanes<1>(keys, chains, data, blocks); break;
    case 2: absorb_lanes<2>(keys, chains, data, blocks); break;
    case 3: absorb_lanes<3>(keys, chains, data, blocks); break;
    default: absorb_lanes<4>(keys, chains, data, blocks); break;
  }
}

#undef ITDOS_AES_NI_TARGET

#endif  // ITDOS_AES_NI_KERNEL

/// Constant-initialised to the portable kernel, then switched once from
/// CPUID by this file's dynamic initialisation; both give identical tags.
constinit const CmacKernel* selected = &kCmacPortable;

const CmacKernel* select_kernel() {
#if ITDOS_AES_NI_KERNEL
  if (aes_ni_available()) return &kCmacAesNi;
#endif
  return &kCmacPortable;
}

[[maybe_unused]] const bool kKernelSelected = (selected = select_kernel(), true);

/// Multiplication by x in GF(2^128) on a big-endian block (SP 800-38B
/// §6.1): shift left one bit, folding a carry out of the top into 0x87.
AesBlock times_x(const AesBlock& in) {
  AesBlock out{};
  for (std::size_t i = 0; i + 1 < kAesBlockSize; ++i) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | (in[i + 1] >> 7));
  }
  const std::uint8_t carry = static_cast<std::uint8_t>(0 - (in[0] >> 7));
  out[kAesBlockSize - 1] = static_cast<std::uint8_t>((in[kAesBlockSize - 1] << 1) ^ (carry & 0x87));
  return out;
}

/// The tags of `lanes` (at most kCmacLanes) keys over the concatenation of
/// `segments`. The message passes through a stack buffer, so blocks that
/// straddle segments need no special case; the buffer goes to the kernel
/// whenever it is full and more bytes follow, so what is left at the end
/// holds the last block, which first takes its subkey.
void tags_of_group(const CmacKernel& kernel, const CmacKey* const* keys, std::size_t lanes,
                   std::span<const ByteView> segments, MacTag* out) {
  constexpr std::size_t kBufferBlocks = 16;
  alignas(16) std::uint8_t buffer[kBufferBlocks * kAesBlockSize] = {};
  std::array<AesBlock, kCmacLanes> chains{};
  std::size_t buffered = 0;
  for (ByteView seg : segments) {
    const std::uint8_t* data = seg.data();
    std::size_t size = seg.size();
    while (size > 0) {
      if (buffered == sizeof(buffer)) {
        kernel.absorb(keys, lanes, chains.data(), buffer, kBufferBlocks);
        buffered = 0;
      }
      const std::size_t take = std::min(size, sizeof(buffer) - buffered);
      std::memcpy(buffer + buffered, data, take);
      buffered += take;
      data += take;
      size -= take;
    }
  }
  const std::size_t last = buffered == 0 ? 0 : (buffered - 1) / kAesBlockSize * kAesBlockSize;
  if (last > 0) kernel.absorb(keys, lanes, chains.data(), buffer, last / kAesBlockSize);
  const bool whole = buffered - last == kAesBlockSize;
  if (!whole) {
    buffer[buffered] = 0x80;
    std::memset(buffer + buffered + 1, 0, last + kAesBlockSize - buffered - 1);
  }
  for (std::size_t i = 0; i < lanes; ++i) {
    const AesBlock& subkey = whole ? keys[i]->k1() : keys[i]->k2();
    for (std::size_t j = 0; j < kAesBlockSize; ++j) chains[i][j] ^= subkey[j];
  }
  kernel.absorb(keys, lanes, chains.data(), buffer + last, 1);
  for (std::size_t i = 0; i < lanes; ++i) std::memcpy(out[i].data(), chains[i].data(), kMacTagSize);
}

}  // namespace

constinit const CmacKernel kCmacPortable = {absorb_portable};

#if ITDOS_AES_NI_KERNEL
constinit const CmacKernel kCmacAesNi = {absorb_aes_ni};
#endif

const CmacKernel& selected_cmac_kernel() { return *selected; }

void cmac_tags_with(const CmacKernel& kernel, std::span<const CmacKey* const> keys,
                    std::span<const ByteView> segments, std::span<MacTag> out) {
  assert(out.size() == keys.size());
  for (std::size_t first = 0; first < keys.size(); first += kCmacLanes) {
    const std::size_t lanes = std::min(kCmacLanes, keys.size() - first);
    tags_of_group(kernel, keys.data() + first, lanes, segments, out.data() + first);
  }
}

}  // namespace detail

CmacKey::CmacKey(ByteView key) {
  detail::expand_aes256_key(key, round_keys_.data());
  // L = AES(0^128): one chain step from a zero chain over a zero block.
  const CmacKey* self = this;
  const detail::AesBlock zero{};
  detail::AesBlock l{};
  detail::selected_cmac_kernel().absorb(&self, 1, &l, zero.data(), 1);
  k1_ = detail::times_x(l);
  k2_ = detail::times_x(k1_);
}

MacTag CmacKey::tag(ByteView data) const { return tag(std::span(&data, 1)); }

MacTag CmacKey::tag(std::span<const ByteView> segments) const {
  const CmacKey* self = this;
  MacTag out{};
  cmac_tags(std::span(&self, 1), segments, std::span(&out, 1));
  return out;
}

bool CmacKey::verify(std::span<const ByteView> segments, const MacTag& tag) const {
  const MacTag expected = this->tag(segments);
  return constant_time_equal(ByteView(expected.data(), expected.size()),
                             ByteView(tag.data(), tag.size()));
}

void cmac_tags(std::span<const CmacKey* const> keys, std::span<const ByteView> segments,
               std::span<MacTag> out) {
  detail::cmac_tags_with(detail::selected_cmac_kernel(), keys, segments, out);
}

}  // namespace itdos::crypto
