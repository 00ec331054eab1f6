// The message-queue state machine (§3.1).
//
// "An ITDOS server implements a message queue that is the state machine.
// Whenever Castro-Liskov synchronizes the replica state, the message queue
// is synchronized. Each replication domain element maintains equivalent
// object state since each processes messages in the same order as delivered
// by the Castro-Liskov transport."
//
// The BFT-ordered side (execute/snapshot/restore) is strictly deterministic:
// checkpoint digests must agree across elements, so nothing element-local
// (like how far the local ORB actor has consumed) is part of the state.
// Garbage collection is itself agreed through ordered QueueAck entries: when
// n-f elements have acked index X, the base advances to X deterministically.
// An element whose un-consumed entries get collected can no longer proceed —
// the virtual synchrony the paper says this step re-introduces ("replicas
// that do not participate according to the queue management protocol must be
// expelled"); `broken()` reports that condition and on_laggard flags peers
// that fall behind the lag window.
//
// The paper's scalability claim (E3) lives here: snapshots carry the queue
// window, never the servant state, so synchronization cost is independent of
// how large the hosted objects are. Each entry is kept with the digest the
// BFT replica computed when it ordered it; a checkpoint holds the entries by
// reference and its digest covers theirs, so taking one neither copies nor
// hashes an entry's bytes.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "bft/app.hpp"
#include "itdos/smiop_msg.hpp"
#include "telemetry/telemetry.hpp"

namespace itdos::core {

struct QueueOptions {
  int n = 4;                      // domain size (3f+1)
  int f = 1;
  std::uint64_t lag_window = 64;  // acks this far behind base flag a laggard

  /// Admission control (DESIGN.md §6f): when > 0, data entries arriving
  /// while the replicated depth (next_index - base) is at or past this bound
  /// are shed deterministically — every correct element makes the identical
  /// decision because it is a function of replicated state and static
  /// config only. 0 = unbounded (the paper's baseline).
  std::uint64_t max_depth = 0;

  /// The domain's element identities (SMIOP nodes). Acks from anyone else
  /// are ignored — otherwise a rogue could fabricate n-f acks and force GC
  /// past every correct element's cursor. Empty means "accept any" (only
  /// unit tests use that).
  std::vector<NodeId> members;

  /// Binds an ack to its element: true when `client` is a BFT client the
  /// element `element` orders its own queue traffic through. An ack ordered
  /// by any other client is rejected, so no client can move another
  /// element's GC cursor. The answer must never change from true to false
  /// for a pair, or an ack ordered around the change would be judged
  /// differently by different elements. Null accepts any client (only unit
  /// tests use that).
  std::function<bool(NodeId element, NodeId client)> orders_acks_for;

  /// Telemetry seam (optional; unit tests leave it null). `self` is the
  /// owning element's SMIOP node, used as the event emitter.
  telemetry::Hub* telemetry = nullptr;
  NodeId self{};

  bool is_member(NodeId node) const {
    return members.empty() ||
           std::find(members.begin(), members.end(), node) != members.end();
  }
};

class QueueStateMachine : public bft::StateMachine {
 public:
  explicit QueueStateMachine(QueueOptions options);

  /// Fires (element-locally) whenever a new data entry becomes consumable.
  void set_delivery_hook(std::function<void()> hook) { on_delivery_ = std::move(hook); }

  /// Fires when an element's ack lags more than lag_window behind the most
  /// recent agreed index (a virtual-synchrony expulsion candidate).
  void set_laggard_hook(std::function<void(NodeId)> hook) {
    on_laggard_ = std::move(hook);
  }

  /// Fires (element-locally) when admission control sheds a data entry; the
  /// element uses it to send the requester an explicit OVERLOAD reply. The
  /// view is the shed entry (still tagged with its QueueEntryKind).
  void set_shed_hook(std::function<void(const BufView&)> hook) {
    on_shed_ = std::move(hook);
  }

  std::uint64_t sheds() const { return sheds_; }

  // --- bft::StateMachine (deterministic, identical on every element) ---
  Bytes execute(const BufView& request, const crypto::Digest& digest, NodeId client,
                SeqNum seq) override;
  /// `state` is the base and next index and the acks; `held` is the
  /// retained entries in index order, each with its digest.
  bft::AppSnapshot snapshot() const override;
  Status restore(const bft::AppSnapshot& snapshot) override;
  /// Derives the request-scoped trace id from an ordered queue entry (the
  /// BFT layer tags its pre-prepare/prepare/commit events with it).
  std::uint64_t trace_of(ByteView request) const override;
  /// Formation class (src/batch): queue-management acks are riders — GC
  /// needs them ordered, not ordered at once — and replacement sync points
  /// are urgent, since a replacement element blocks on its sync point.
  batch::EntryClass classify(ByteView request) const override;

  // --- element-local consumption (the ORB actor side) ---
  bool has_next() const { return !broken_ && !bootstrap_ && consumed_ < next_index_; }
  /// Returns the entry at the consumption cursor and advances it. The view
  /// shares the retained entry's chunk (no copy).
  std::optional<BufView> next();
  /// Returns the entry at the cursor without advancing (the consumer may
  /// need to stall on it, e.g. while its communication key is in flight).
  std::optional<BufView> peek() const;
  /// Advances past the current entry (after a successful peek).
  void pop();
  std::uint64_t consumed_index() const { return consumed_; }

  std::uint64_t base_index() const { return base_; }
  std::uint64_t next_index() const { return next_index_; }
  std::uint64_t size() const { return next_index_ - base_; }

  /// True if GC collected entries this element had not consumed yet — the
  /// element violated the queue-management protocol and must be expelled.
  bool broken() const { return broken_; }

  /// The ack this element should submit (ordered) to advance GC.
  QueueAckMsg make_ack(NodeId element) const { return {element, consumed_}; }

  // --- element replacement (§4 future work) ---

  /// Puts the queue in bootstrap mode: restore() accepts any snapshot (the
  /// fresh element has no history to be consistent with) and consumption is
  /// held until complete_bootstrap() installs the peer-certified state.
  void begin_bootstrap() { bootstrap_ = true; }
  bool bootstrapping() const { return bootstrap_; }

  /// Finishes bootstrap: the replacement element's servant state captures
  /// everything up to `consumed_index`, so consumption resumes there.
  /// kFailedPrecondition if GC already passed that point (the sync must be
  /// re-run — peers will snapshot at a fresh sync point).
  Status complete_bootstrap(std::uint64_t consumed_index);

 private:
  void advance_base();
  void trace(telemetry::TraceKind kind, std::uint64_t trace_id, std::uint64_t a = 0,
             std::uint64_t b = 0) const;
  void update_depth() const;

  QueueOptions options_;
  telemetry::Gauge* depth_gauge_ = nullptr;        // queue.<self>.depth
  telemetry::Gauge* shed_gauge_ = nullptr;         // admission.<self>.shed (cumulative)
  telemetry::Counter* collected_counter_ = nullptr;  // queue.<self>.entries_collected
  std::function<void()> on_delivery_;
  std::function<void(NodeId)> on_laggard_;
  std::function<void(const BufView&)> on_shed_;
  std::uint64_t sheds_ = 0;  // element-local mirror of the shed gauge

  // Ordered (replicated) state:
  std::deque<bft::HeldBytes> entries_;    // indices [base_, next_index_), retained views
  std::uint64_t next_index_ = 0;          // next index to assign
  std::uint64_t base_ = 0;                // lowest retained index (GC floor)
  std::map<NodeId, std::uint64_t> acks_;  // element -> consumed index

  // Element-local state:
  std::uint64_t consumed_ = 0;
  bool broken_ = false;
  bool bootstrap_ = false;
};

}  // namespace itdos::core
