// Batch wire format: one pre-prepare slot carrying many client requests.
//
// A batch is a counted sequence of entries, each an encoded
// bft::RequestMsg frame and the authenticator entries its client sent
// with it, so every backup can check that the client asked for it. The
// primary marshals it ONCE into one chunk sized to it (each entry's bytes
// are written into that chunk); everything downstream — MAC'ing,
// multicast, the replicas' logs, view-change re-proposal and execution —
// holds views into that sealed chunk. decode() hands back zero-copy sub-views per entry.
//
// The batch commits or is re-proposed as a unit: the pre-prepare digest
// covers every entry (bft::proposal_digest), so no partial entry can
// survive a view change (DESIGN.md §6i's atomic re-proposal rule).
#pragma once

#include <vector>

#include "cdr/codec.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace itdos::batch {

/// Upper bound on entries one batch may claim. A hostile entry_count in a
/// decoded batch is rejected before any allocation is sized from it.
inline constexpr std::uint32_t kMaxBatchEntries = 4096;

/// Bytes of one authenticator entry: the receiver's node id (little-endian
/// u64) and its 16-byte MAC tag, bft::AuthVector's wire form.
inline constexpr std::size_t kAuthEntrySize = 24;

/// One client request of a batch.
struct BatchEntry {
  BufView request;  // an encoded bft::RequestMsg
  BufView auth;     // its client's authenticator entries, kAuthEntrySize each

  bool operator==(const BatchEntry&) const = default;
};

/// Wire layout (little-endian CDR, offsets from the batch's start): the
/// entry count, then per entry its 4-aligned request length and request
/// bytes, its 4-aligned authenticator count and, 8-aligned when there are
/// any, the authenticator entries. Every pad is zero.
struct BatchMsg {
  std::vector<BatchEntry> entries;

  bool operator==(const BatchMsg&) const = default;

  /// Upper bound on the encoded size: the entry count, then per entry at
  /// most 3 pad + 4 length + the request, 3 pad + 4 count and 7 pad + the
  /// authenticators.
  std::size_t size_hint() const;

  /// One marshal into a chunk of size_hint() bytes.
  BufView encode() const;

  /// Zero-copy: every request and authenticator view shares `data`'s
  /// chunk. Rejects hostile counts (entry or authenticator counts the
  /// remaining bytes cannot hold, entry counts above kMaxBatchEntries),
  /// empty batches, non-zero pads and trailing bytes.
  static Result<BatchMsg> decode(const BufView& data);
};

}  // namespace itdos::batch
