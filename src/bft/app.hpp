// The replicated state machine interface (Schneider [37]): the application a
// bft::Replica drives. Implementations must be deterministic — the paper's
// §2 assumption "Correct servers exhibit deterministic behavior" is what
// makes f+1 matching replies meaningful.
#pragma once

#include <vector>

#include "batch/former.hpp"
#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {

/// Bytes an application state holds by reference (the ITDOS queue's
/// entries), with the SHA-256 the replica computed when it ordered them.
struct HeldBytes {
  BufView bytes;
  crypto::Digest digest{};

  bool operator==(const HeldBytes&) const = default;
};

/// A checkpoint of the application state. The checkpoint digest covers
/// `state` and each held entry's digest, never the held bytes, so a
/// checkpoint costs per entry, not per byte. Held entries are views: taking
/// a snapshot copies none of them. A replica that receives a snapshot in a
/// state transfer hashes every held entry again before restore() sees it.
struct AppSnapshot {
  Bytes state;
  std::vector<HeldBytes> held;

  bool operator==(const AppSnapshot&) const = default;
};

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Executes one totally-ordered request and returns the reply payload.
  /// `digest` is the request's SHA-256, computed once by the replica when it
  /// verified the request (bft::payload_digest); `seq` is the agreed
  /// sequence number (deterministic across replicas). The request is a
  /// refcounted view: implementations that log requests (e.g. the ITDOS
  /// message queue) retain it, and its digest, without copying or hashing.
  virtual Bytes execute(const BufView& request, const crypto::Digest& digest, NodeId client,
                        SeqNum seq) = 0;

  /// The full application state (Castro-Liskov keeps state "in a contiguous
  /// block of memory"; this is our equivalent, with large retained entries
  /// held by reference).
  virtual AppSnapshot snapshot() const = 0;

  /// Replaces the application state with a snapshot from a correct replica.
  /// Every held entry's bytes match its digest.
  virtual Status restore(const AppSnapshot& snapshot) = 0;

  /// Telemetry hook: the request-scoped trace id carried by an application
  /// payload (0 = untraced). Lets the BFT layer tag its ordering events with
  /// the originating ITDOS request without understanding the payload format.
  virtual std::uint64_t trace_of(ByteView) const { return 0; }

  /// Formation hook: how a payload takes part in the primary's batch
  /// former (src/batch). ITDOS classes queue-management acks as riders —
  /// they ride in the next client slot instead of taking one of their own —
  /// and replacement sync points as urgent, never held behind a hold timer.
  /// Backups apply the same classes when they check a batch against the
  /// formation policy. Default: every payload is a client entry.
  virtual batch::EntryClass classify(ByteView) const { return batch::EntryClass::kClient; }
};

}  // namespace itdos::bft
