// Zero-copy buffer vocabulary for the message path (CDR → SMIOP → BFT → net).
//
// Every layer of the stack used to own its payload as a `Bytes`
// (std::vector<uint8_t>) and re-copy it at each hop; large-message benches
// measured memcpy more than protocol. This header is the replacement
// contract:
//
//   * BufView     — immutable refcounted (pointer, len) into a sealed chunk.
//                   A message is marshalled once, by a cdr::Encoder whose
//                   buffer is reserved to the message's size bound (a BFT
//                   frame also takes its MACs there), and the view adopts
//                   that buffer as its chunk. Copying a BufView bumps a
//                   refcount; slicing shares the chunk. This is what the
//                   network delivers, what BFT logs and re-broadcasts, and
//                   what the queue and its checkpoints hold. The chunk is
//                   freed when the last view over it drops.
//
// Ownership model (DESIGN.md §6e has the long form):
//   - The SENDER marshals into its own buffer and seals it into a view.
//   - Everything downstream holds views; nobody mutates sealed bytes.
//   - A mutation (fault-injection corruption, Byzantine equivocation) must
//     go through clone_bytes() — copy-on-write, counted in BufStats.
//   - Explicit copies are the ONLY copies: BufView is not constructible
//     from an lvalue Bytes; use copy_of() (counted) or adopt an rvalue.
//
// Determinism: nothing here consults addresses, clocks or hash order, and
// all accounting is plain integers, so same-seed runs remain byte-stable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/bytes.hpp"

namespace itdos {

/// Global copy accounting for the message path. The simulator is
/// single-threaded, so plain integers suffice; benches mirror these into the
/// telemetry registry as `buf.copies` / `buf.bytes_copied`.
struct BufStats {
  static std::uint64_t copies;
  static std::uint64_t bytes_copied;

  static void note_copy(std::size_t n) {
    ++copies;
    bytes_copied += n;
  }
  static void reset() { copies = 0, bytes_copied = 0; }
};

/// Immutable, refcounted view over sealed bytes. Copying/slicing never
/// copies payload. Default-constructed views are empty and valid.
class BufView {
 public:
  BufView() = default;

  /// Adopts owned storage without copying (the moved-from vector's heap
  /// block becomes the sealed chunk). Implicit on purpose: a `Bytes`
  /// rvalue (a decoded copy, a sealed ciphertext, a gathered buffer) flows
  /// straight into view-taking APIs at zero cost.
  BufView(Bytes&& owned);  // NOLINT(google-explicit-constructor)

  /// Lvalue Bytes would silently copy — forbidden; use copy_of().
  BufView(const Bytes&) = delete;

  /// Explicit counted copy (BufStats) of arbitrary bytes.
  static BufView copy_of(ByteView b);

  /// Non-owning view over storage the CALLER keeps alive for the view's
  /// whole lifetime (scoped decodes of borrowed buffers, e.g. tests and
  /// validation probes). Never store a borrowed view in long-lived state.
  static BufView borrow(ByteView b);

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  ByteView bytes() const { return ByteView(data_, len_); }
  operator ByteView() const { return bytes(); }  // NOLINT

  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }

  /// Sub-view sharing the same chunk (zero-copy). Clamped to bounds.
  BufView slice(std::size_t offset, std::size_t length) const;

  /// Explicit counted copy out (the copy-on-write seam: mutate the clone,
  /// then adopt it into a fresh view).
  Bytes clone_bytes() const;

  /// Whether this view (transitively) owns its storage. False only for
  /// borrow()ed views and the empty default.
  bool owning() const { return chunk_ != nullptr; }

  /// Views (incl. slices) sharing this view's chunk; 0 for non-owning.
  long use_count() const { return chunk_ ? chunk_.use_count() : 0; }

  /// Bytes reserved for the chunk this view shares; 0 for non-owning.
  std::size_t chunk_capacity() const { return chunk_ ? chunk_->capacity() : 0; }

  /// Byte-wise equality (the container, not the identity, compares).
  bool operator==(const BufView& other) const;
  bool operator==(ByteView other) const {
    return bytes().size() == other.size() &&
           std::equal(other.begin(), other.end(), data());
  }
  bool operator==(const Bytes& other) const { return *this == ByteView(other); }

 private:
  BufView(std::shared_ptr<const Bytes> chunk, const std::uint8_t* data, std::size_t len)
      : chunk_(std::move(chunk)), data_(data), len_(len) {}

  std::shared_ptr<const Bytes> chunk_;  // null for borrowed/empty views
  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
};

}  // namespace itdos
