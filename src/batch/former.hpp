// Request formation (the cortx-motr "formation" idea adapted to BFT
// ordering): the primary parks incoming client requests here and cuts a
// batch when one of the dual caps trips —
//
//   * count cap:   max_entries queued requests,
//   * byte cap:    max_bytes of queued request frames,
//   * hold cap:    the oldest queued request has waited max_hold_ns of
//                  simulated time,
//   * urgency:     an urgent-class request (replacement sync points —
//                  traffic other protocol machinery is waiting on) is
//                  pending; urgent traffic is never held.
//
// Riders (queue-management acks) sit outside the count and byte caps: they
// ride in the next slot a client entry starts, so a parked rider makes a
// parked client entry ripe at once, and a rider alone starts a slot only
// when its hold cap trips. A batch carries at most max_riders of them.
//
// The former is passive and deterministic: it never consults a clock or
// timer itself — the owning replica feeds it the simulation time and arms
// the hold timer from deadline(). Same arrival order + same clock ⇒ same
// batches on every run (the formation-determinism test relies on this).
#pragma once

#include <cassert>
#include <deque>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/time.hpp"
#include "crypto/sha256.hpp"

namespace itdos::batch {

/// Formation knobs. The default (max_entries = 1) makes every request ripe
/// on arrival, so the owning replica proposes one request per slot at once,
/// the classic PBFT schedule, through the same former.
struct Policy {
  int max_entries = 1;
  std::size_t max_bytes = 64 * 1024;
  std::int64_t max_hold_ns = micros(200);
};

/// How a parked request takes part in formation.
enum class EntryClass : std::uint8_t {
  kClient,  // counts toward the caps; held until a cap trips
  kUrgent,  // a client entry that is never held
  kRider,   // outside the caps; rides in the next client entry's slot
};

/// One parked request awaiting formation.
struct PendingEntry {
  BufView encoded;          // encoded bft::RequestMsg (shared chunk, no copy)
  EntryClass cls = EntryClass::kClient;
  std::uint64_t trace = 0;  // request-scoped trace id (0 = untraced)
  SimTime enqueued_at{};
  // The client's authenticator entries, as they arrived with the request (a
  // view of its REQUEST envelope): they ride in the batch entry, and a
  // demoted primary rebuilds the REQUEST from them and `encoded` to relay
  // it to the next primary.
  BufView auth;
  // SHA-256 of the request's payload, computed once when its envelope was
  // verified: the proposal digest reads it instead of the payload.
  crypto::Digest payload_digest{};
};

class Former {
 public:
  /// `max_riders` bounds the riders one batch carries. It must be at least
  /// one, or form() would return nothing while a rider heads the queue.
  Former(Policy policy, std::size_t max_riders) : policy_(policy), max_riders_(max_riders) {
    assert(max_riders_ >= 1);
  }

  const Policy& policy() const { return policy_; }

  void enqueue(BufView encoded, EntryClass cls, std::uint64_t trace, SimTime now, BufView auth,
               const crypto::Digest& payload_digest);

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  /// Bytes of the parked entries that count toward the byte cap (riders
  /// excluded).
  std::size_t pending_bytes() const { return pending_bytes_; }

  /// True when a batch should be cut now (any cap tripped, urgency, or a
  /// rider waiting beside a client entry).
  bool ripe(SimTime now) const;

  /// When the hold cap will trip for the oldest parked entry; nullopt when
  /// nothing is parked. The owner arms its flush timer from this.
  std::optional<SimTime> deadline() const;

  /// Pops the next batch: entries in arrival order, greedily up to the
  /// count/byte caps and max_riders (always at least one entry).
  std::vector<PendingEntry> form();

  /// Removes and returns everything parked, in arrival order (view change:
  /// the demoted primary keeps the entries to relay to the next primary).
  std::deque<PendingEntry> take_all();

 private:
  Policy policy_;
  std::size_t max_riders_;
  std::deque<PendingEntry> pending_;
  std::size_t pending_bytes_ = 0;
  std::size_t capped_pending_ = 0;  // parked client and urgent entries
  std::size_t urgent_pending_ = 0;
};

}  // namespace itdos::batch
