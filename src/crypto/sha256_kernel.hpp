// SHA-256 compression kernels (internal to src/crypto: sha256.cpp runs
// Sha256 on them, hmac.cpp runs HmacKey on them, and the kernel and HMAC
// cross-check tests call each kernel by name).
//
// A kernel absorbs `blocks` consecutive 64-byte blocks into `state`, in
// order. Every kernel produces the same state for the same input; they
// differ only in speed. The portable loop runs everywhere and is the test
// reference. On x86-64 the SHA-NI kernel (SHA extensions, SSSE3, SSE4.1)
// keeps the working state in two registers across all blocks. One kernel
// is picked at static initialisation from CPUID, and selected_kernel()
// returns it (DESIGN.md §6j).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ITDOS_SHA_NI_KERNEL 1
#else
#define ITDOS_SHA_NI_KERNEL 0
#endif

namespace itdos::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;
using CompressFn = void (*)(Sha256State& state, const std::uint8_t* data, std::size_t blocks);

/// FIPS 180-4 initial hash value H(0).
inline constexpr Sha256State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// The FIPS 180-4 round loop in plain C++.
void compress_portable(Sha256State& state, const std::uint8_t* data, std::size_t blocks);

#if ITDOS_SHA_NI_KERNEL
/// The SHA-NI kernel. Call it only when sha_ni_available() is true.
void compress_sha_ni(Sha256State& state, const std::uint8_t* data, std::size_t blocks);
#endif

/// Stores `v` in 8 bytes, most significant first: SHA-256's length field.
inline void store_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (56 - i * 8));
}

/// Writes `state` out as a digest, each word big-endian.
inline void store_digest(const Sha256State& state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Whether this CPU runs compress_sha_ni: CPUID leaf 7 EBX bit 29 (SHA)
/// plus leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1). Always false on builds
/// without the kernel.
bool sha_ni_available();

/// The kernel Sha256 runs on: the portable loop until sha256.cpp's static
/// initialisation has run, then the fastest kernel this CPU supports.
CompressFn selected_kernel();

}  // namespace itdos::crypto::detail
