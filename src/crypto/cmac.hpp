// AES-256-CMAC (NIST SP 800-38B): the pairwise message authenticators of
// the agreement protocol (bft::SessionKeys, DESIGN.md §6j).
//
// CMAC is a CBC-MAC over the message whose last block is first XORed with
// a subkey: K1 when the block is whole, K2 when it is padded with 0x80 and
// zeros. It is a deterministic PRF, so unlike GMAC or Poly1305 it needs no
// nonce. A replica multicasting a message needs one tag per receiver, all
// over the same bytes; cmac_tags runs those CBC chains side by side, so the
// AES unit's pipeline stays full and the message is assembled into blocks
// once. The kernel is picked once from CPUID, as GCM's is: AES-NI where the
// CPU has it, else the portable FIPS-197 AES, which is the test reference.
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "crypto/gcm_kernel.hpp"
#include "crypto/hmac.hpp"

namespace itdos::crypto {

/// An AES-256-CMAC key: its expanded round keys and the subkeys K1, K2,
/// computed once, when the key is made.
class CmacKey {
 public:
  explicit CmacKey(ByteView key);  // 32 bytes

  /// The tag over `data`, or over the concatenation of `segments`.
  MacTag tag(ByteView data) const;
  MacTag tag(std::span<const ByteView> segments) const;

  /// Constant-time check of `tag` over the concatenation of `segments`.
  bool verify(std::span<const ByteView> segments, const MacTag& tag) const;

  const std::uint8_t* round_keys() const { return round_keys_.data(); }
  const detail::AesBlock& k1() const { return k1_; }
  const detail::AesBlock& k2() const { return k2_; }

 private:
  alignas(16) std::array<std::uint8_t, (detail::kAes256Rounds + 1) * detail::kAesBlockSize>
      round_keys_{};
  detail::AesBlock k1_{};
  detail::AesBlock k2_{};
};

namespace detail {

/// CBC chains one kernel call advances side by side.
inline constexpr std::size_t kCmacLanes = 4;

struct CmacKernel {
  /// Advances `lanes` (1 to kCmacLanes) CBC-MAC chains over the same
  /// `blocks` 16-byte blocks at `data`: for each block in turn,
  /// chains[i] = AES(keys[i], chains[i] XOR block).
  void (*absorb)(const CmacKey* const* keys, std::size_t lanes, AesBlock* chains,
                 const std::uint8_t* data, std::size_t blocks);
};

/// FIPS-197 AES one block at a time, in plain C++.
extern const CmacKernel kCmacPortable;

#if ITDOS_AES_NI_KERNEL
/// AES-NI, the lanes' rounds interleaved. Use it only when
/// aes_ni_available().
extern const CmacKernel kCmacAesNi;
#endif

/// The kernel cmac_tags runs on: the portable one until cmac.cpp's static
/// initialisation has run, then the fastest this CPU supports.
const CmacKernel& selected_cmac_kernel();

/// cmac_tags on a given kernel; the kernel tests pass each by name.
void cmac_tags_with(const CmacKernel& kernel, std::span<const CmacKey* const> keys,
                    std::span<const ByteView> segments, std::span<MacTag> out);

}  // namespace detail

/// out[i] = the tag of keys[i] over the concatenation of `segments`, for
/// any number of keys: the message is cut into blocks once per group of
/// kCmacLanes keys, and each group's chains run side by side.
void cmac_tags(std::span<const CmacKey* const> keys, std::span<const ByteView> segments,
               std::span<MacTag> out);

}  // namespace itdos::crypto
