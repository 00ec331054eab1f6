// Batch wire format: one pre-prepare slot carrying many client requests.
//
// A batch is a counted sequence of encoded bft::RequestMsg frames. The
// primary marshals it ONCE into the arena (each entry's bytes are written
// into the shared chunk); everything downstream — MAC'ing, multicast, the
// replicas' logs, view-change re-proposal and execution — holds views into
// that sealed chunk. decode() hands back zero-copy sub-views per entry.
//
// The batch commits or is re-proposed as a unit: the pre-prepare digest
// covers the whole encoded batch, so no partial entry can survive a view
// change (DESIGN.md §6i's atomic re-proposal rule).
#pragma once

#include <vector>

#include "cdr/codec.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace itdos::batch {

/// Upper bound on entries one batch may claim. A hostile entry_count in a
/// decoded batch is rejected before any allocation is sized from it.
inline constexpr std::uint32_t kMaxBatchEntries = 4096;

struct BatchMsg {
  std::vector<BufView> entries;  // each an encoded bft::RequestMsg

  bool operator==(const BatchMsg&) const = default;

  /// One marshal into a recycled arena chunk.
  BufView encode_into(Arena& arena) const;

  /// Zero-copy: every entry is a sub-view sharing `data`'s chunk. Rejects
  /// hostile counts (entry_count > remaining bytes or > kMaxBatchEntries),
  /// empty batches and trailing bytes.
  static Result<BatchMsg> decode(const BufView& data);
};

}  // namespace itdos::batch
