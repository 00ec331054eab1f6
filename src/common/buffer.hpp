// Zero-copy buffer vocabulary for the message path (CDR → SMIOP → BFT → net).
//
// Every layer of the stack used to own its payload as a `Bytes`
// (std::vector<uint8_t>) and re-copy it at each hop; large-message benches
// measured memcpy more than protocol. This header is the replacement
// contract:
//
//   * Arena       — deterministic, refcounted pool of reusable byte chunks.
//                   Chunk storage returns to the pool when the LAST view
//                   over it drops, so steady-state traffic allocates ~zero.
//                   A message is marshalled once, by a cdr::Encoder that
//                   writes into a chunk acquired here (a BFT frame also
//                   takes its MACs there), then sealed into a view.
//   * BufView     — immutable refcounted (pointer, len) into a sealed chunk.
//                   Copying a BufView bumps a refcount; slicing shares the
//                   chunk. This is what the network delivers, what BFT logs
//                   and re-broadcasts, and what fragmentation splits.
//
// Ownership model (DESIGN.md §6e has the long form):
//   - The SENDER acquires a chunk from an Arena, writes into it and seals.
//   - Everything downstream holds views; nobody mutates sealed bytes.
//   - A mutation (fault-injection corruption, Byzantine equivocation) must
//     go through clone_bytes() — copy-on-write, counted in BufStats.
//   - Explicit copies are the ONLY copies: BufView is not constructible
//     from an lvalue Bytes; use copy_of() (counted) or adopt an rvalue.
//
// Determinism: nothing here consults addresses, clocks or hash order; the
// arena's pool is LIFO and all accounting is plain integers, so same-seed
// runs remain byte-stable.
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

class BufView;

/// Deterministic chunk pool. Not a bump allocator: each sealed message owns
/// one chunk (a recycled `Bytes`), and the chunk's CAPACITY returns to the
/// pool when the last BufView over it is destroyed — even if that happens
/// after the Arena itself is gone (the pool state is refcounted).
class Arena {
 public:
  /// `chunk_reserve` is the capacity un-hinted acquires start with;
  /// `max_pooled` bounds how many idle chunks the pool retains.
  explicit Arena(std::size_t chunk_reserve = 4096, std::size_t max_pooled = 64);

  /// A chunk with at least `reserve_hint` capacity: a pooled one of at most
  /// twice that plus 128 bytes if there is one, else a fresh one of exactly
  /// `reserve_hint`, or `chunk_reserve` when the hint is 0. Encoders that
  /// know their size pass it, so a 150-byte message holds a 150-byte chunk
  /// rather than a 4 KiB one.
  Bytes acquire(std::size_t reserve_hint = 0);

  /// Seals `storage` into an immutable refcounted view spanning all of it.
  /// When the last view drops, the storage's capacity returns to this pool.
  BufView seal(Bytes&& storage);

  std::size_t pooled() const { return state_->pool.size(); }
  std::uint64_t reuses() const { return state_->reuses; }

 private:
  friend class BufView;
  struct State {
    std::size_t chunk_reserve;
    std::size_t max_pooled;
    std::vector<Bytes> pool;  // idle chunk storage, LIFO
    std::uint64_t reuses = 0;
  };
  std::shared_ptr<State> state_;
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
  bool owning() const { return slab_ != nullptr; }

  /// Views (incl. slices) sharing this view's chunk; 0 for non-owning.
  long use_count() const { return slab_ ? slab_.use_count() : 0; }

  /// Byte-wise equality (the container, not the identity, compares).
  bool operator==(const BufView& other) const;
  bool operator==(ByteView other) const {
    return bytes().size() == other.size() &&
           std::equal(other.begin(), other.end(), data());
  }
  bool operator==(const Bytes& other) const { return *this == ByteView(other); }

 private:
  struct Slab;
  BufView(std::shared_ptr<const Slab> slab, const std::uint8_t* data, std::size_t len)
      : slab_(std::move(slab)), data_(data), len_(len) {}
  friend class Arena;

  std::shared_ptr<const Slab> slab_;  // null for borrowed/empty views
  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
};

}  // namespace itdos
