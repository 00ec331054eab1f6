// AES-256-GCM kernels (internal to src/crypto: cipher.cpp runs seal and
// open on them, and the GCM kernel tests call each kernel by name).
//
// GCM (NIST SP 800-38D) makes two passes over a message: CTR mode under
// the AES-256 round keys, and GHASH under the hash key H = AES(0^128). A
// kernel provides both. Every kernel produces the same bytes for the same
// input; they differ only in speed. The portable kernel (FIPS-197 AES on a
// byte-wise state, the spec's bitwise GF(2^128) multiply) runs everywhere
// and is the test reference. On x86-64 the AES-NI kernel (AES, PCLMULQDQ,
// SSSE3, SSE4.1) runs CTR eight blocks at a time and GHASH four blocks per
// reduction, and the VAES kernel (AVX-512 VAES and VPCLMULQDQ) runs CTR 32
// blocks at a time in eight zmm registers and GHASH sixteen blocks per
// reduction, handing shorter tails to the AES-NI kernel. One kernel is
// picked at static initialisation from CPUID, and selected_gcm_kernel()
// returns it (DESIGN.md §6j).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ITDOS_AES_NI_KERNEL 1
#else
#define ITDOS_AES_NI_KERNEL 0
#endif

namespace itdos::crypto::detail {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAes256KeySize = 32;
inline constexpr int kAes256Rounds = 14;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

/// What one GCM key caches: the AES-256 round keys in FIPS-197 byte order
/// (round r at bytes 16r..16r+15, which is also the order AES-NI loads),
/// and H, H^2, ..., H^16 in GCM's byte order.
struct GcmKey {
  alignas(16) std::array<std::uint8_t, (kAes256Rounds + 1) * kAesBlockSize> round_keys{};
  std::array<AesBlock, 16> h_powers{};
};

/// Expands a 32-byte AES key (FIPS-197 KeyExpansion) into the
/// (kAes256Rounds + 1) * 16 bytes at `round_keys`, in the layout above.
void expand_aes256_key(ByteView aes_key, std::uint8_t* round_keys);

/// FIPS-197 Cipher() on one block, portable: the reference every AES
/// kernel (GCM's here, CMAC's in cmac.cpp) is tested against.
void aes256_encrypt_block(const std::uint8_t* round_keys, const std::uint8_t* in,
                          std::uint8_t* out);

/// Expands a 32-byte AES key and computes H and its powers on the selected
/// kernel.
GcmKey make_gcm_key(ByteView aes_key);

struct GcmKernel {
  /// out = in XOR the CTR keystream that starts at `counter`, whose last
  /// four bytes step as a big-endian 32-bit counter (SP 800-38D inc32).
  /// `out` is either `in` itself or does not overlap it.
  void (*ctr)(const GcmKey& key, const AesBlock& counter, const std::uint8_t* in,
              std::uint8_t* out, std::size_t size);
  /// Absorbs `blocks` 16-byte blocks into the GHASH accumulator:
  /// y = (y XOR block) * H for each block in turn.
  void (*ghash)(const GcmKey& key, AesBlock& y, const std::uint8_t* data,
                std::size_t blocks);
};

/// FIPS-197 AES and the SP 800-38D bitwise multiply, in plain C++.
extern const GcmKernel kGcmPortable;

#if ITDOS_AES_NI_KERNEL
/// AES-NI CTR and PCLMULQDQ GHASH. Use it only when aes_ni_available().
extern const GcmKernel kGcmAesNi;

/// VAES CTR and VPCLMULQDQ GHASH on zmm registers, over kGcmAesNi for what
/// is shorter than one wide step. Use it only when vaes_available().
extern const GcmKernel kGcmVaes;
#endif

/// Whether this CPU runs kGcmAesNi: CPUID leaf 1 ECX bits 25 (AES), 1
/// (PCLMULQDQ), 9 (SSSE3) and 19 (SSE4.1). Always false on builds without
/// the kernel.
bool aes_ni_available();

/// Whether this CPU runs kGcmVaes: aes_ni_available(), CPUID leaf 7 EBX
/// bits 16 (AVX512F), 30 (AVX512BW) and 31 (AVX512VL) and ECX bits 9
/// (VAES) and 10 (VPCLMULQDQ), and an OS that saves the zmm state (leaf 1
/// ECX bit 27, OSXSAVE, then XCR0 bits 1, 2, 5, 6 and 7). Always false on
/// builds without the kernel.
bool vaes_available();

/// The kernel seal and open run on: the portable one until gcm.cpp's
/// static initialisation has run, then the fastest this CPU supports.
const GcmKernel& selected_gcm_kernel();

}  // namespace itdos::crypto::detail
