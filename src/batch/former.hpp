// Request formation (the cortx-motr "formation" idea adapted to BFT
// ordering): the primary parks incoming client requests here and cuts a
// batch when one of the dual caps trips —
//
//   * count cap:   max_entries queued requests,
//   * byte cap:    max_bytes of queued request frames,
//   * hold cap:    the oldest queued request has waited max_hold_ns of
//                  simulated time,
//   * urgency:     an urgent-class request (queue-management acks, sync
//                  points — traffic other protocol machinery is waiting on)
//                  is pending; urgent traffic is never held.
//
// The former is passive and deterministic: it never consults a clock or
// timer itself — the owning replica feeds it the simulation time and arms
// the hold timer from deadline(). Same arrival order + same clock ⇒ same
// batches on every run (the formation-determinism test relies on this).
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/time.hpp"

namespace itdos::batch {

/// Formation knobs. The default (max_entries = 1) makes every request ripe
/// on arrival, so the owning replica proposes one request per slot at once,
/// the classic PBFT schedule, through the same former.
struct Policy {
  int max_entries = 1;
  std::size_t max_bytes = 64 * 1024;
  std::int64_t max_hold_ns = micros(200);
};

/// One parked request awaiting formation.
struct PendingEntry {
  BufView encoded;          // encoded bft::RequestMsg (shared chunk, no copy)
  bool urgent = false;
  std::uint64_t trace = 0;  // request-scoped trace id (0 = untraced)
  SimTime enqueued_at{};
};

class Former {
 public:
  explicit Former(Policy policy) : policy_(policy) {}

  const Policy& policy() const { return policy_; }

  void enqueue(BufView encoded, bool urgent, std::uint64_t trace, SimTime now);

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  std::size_t pending_bytes() const { return pending_bytes_; }

  /// True when a batch should be cut now (any cap tripped, or urgency).
  bool ripe(SimTime now) const;

  /// When the hold cap will trip for the oldest parked entry; nullopt when
  /// nothing is parked. The owner arms its flush timer from this.
  std::optional<SimTime> deadline() const;

  /// Pops the next batch: entries in arrival order, greedily up to the
  /// count/byte caps (always at least one entry).
  std::vector<PendingEntry> form();

  /// Drops everything parked (view change: clients will retransmit to the
  /// new primary, whose dedup horizons are reset by the new-view rules).
  void clear();

 private:
  Policy policy_;
  std::deque<PendingEntry> pending_;
  std::size_t pending_bytes_ = 0;
  std::size_t urgent_pending_ = 0;
};

}  // namespace itdos::batch
