// The replicated state machine interface (Schneider [37]): the application a
// bft::Replica drives. Implementations must be deterministic — the paper's
// §2 assumption "Correct servers exhibit deterministic behavior" is what
// makes f+1 matching replies meaningful.
#pragma once

#include "batch/former.hpp"
#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"

namespace itdos::bft {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Executes one totally-ordered request and returns the reply payload.
  /// `seq` is the agreed sequence number (deterministic across replicas).
  /// The request is a refcounted view: implementations that log requests
  /// (e.g. the ITDOS message queue) retain it without copying.
  virtual Bytes execute(const BufView& request, NodeId client, SeqNum seq) = 0;

  /// Serializes the full application state (Castro-Liskov keeps state "in a
  /// contiguous block of memory"; this is our equivalent).
  virtual Bytes snapshot() const = 0;

  /// Replaces the application state with a snapshot from a correct replica.
  virtual Status restore(ByteView snapshot) = 0;

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
