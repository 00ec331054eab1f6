// One replication domain element: a complete ITDOS server process (Figure 2,
// right-hand stack): the Castro-Liskov replica running the message-queue
// state machine, the ORB actor consuming that queue, the object adapter with
// the hosted servants, the SMIOP endpoint for key shares and direct replies,
// and the client-side party used for nested invocations.
//
// The paper's two-thread model (§3.1: one thread for Castro-Liskov message
// delivery, one for ORB execution) maps to two actors on the simulator: the
// BFT replica appends to the queue (delivery), and the consume loop runs as
// separately scheduled events (ORB execution), pausing while a nested
// invocation is outstanding.
#pragma once

#include "bft/replica.hpp"
#include "itdos/queue.hpp"
#include "itdos/smiop.hpp"
#include "orb/orb.hpp"

namespace itdos::core {

class DomainElement {
 public:
  /// Installs this element's servants. `rank` lets heterogeneous deployments
  /// install *different implementations* of the same service per element
  /// (§1: "greater diversity in implementation and greater survivability").
  using ServantInstaller = std::function<void(orb::ObjectAdapter& adapter, int rank)>;

  DomainElement(net::Network& net, std::shared_ptr<const SystemDirectory> directory,
                DomainId domain, int rank, const bft::SessionKeys& keys,
                crypto::SigningKey bft_key, crypto::SigningKey smiop_key,
                std::shared_ptr<const crypto::Keystore> keystore,
                std::shared_ptr<NodeAllocator> allocator,
                const ServantInstaller& install);
  ~DomainElement();

  DomainId domain() const { return domain_; }
  int rank() const { return rank_; }
  NodeId smiop_node() const { return info_.smiop_node; }

  orb::Orb& orb() { return *orb_; }
  orb::ObjectAdapter& adapter() { return orb_->adapter(); }
  bft::Replica& replica() { return *replica_; }
  const QueueStateMachine& queue() const { return *queue_; }
  SmiopParty& party() { return *party_; }

  /// Test hook: a Byzantine element that alters every reply it produces
  /// (value corruption that survives MACs — the voter must catch it).
  void set_reply_mutator(std::function<cdr::ReplyMessage(cdr::ReplyMessage)> mutator) {
    reply_mutator_ = std::move(mutator);
  }

  /// Test hook: a Byzantine peer that corrupts the state bundles it serves
  /// to a joining replacement (MAC-valid wrong content over the pairwise
  /// channel — only the f+1 byte-identical-offers rule can mask it).
  void set_bundle_corruptor(std::function<Bytes(Bytes)> corruptor) {
    bundle_corruptor_ = std::move(corruptor);
  }

  /// Starts this element as a REPLACEMENT for a crashed/wiped predecessor
  /// (the paper's §4 future-work item). The element catches up its BFT-level
  /// queue, orders a sync point, and installs servant state certified by
  /// f+1 byte-identical peer bundles before consuming anything.
  void begin_replacement();

  /// True once a replacement element has installed peer state and resumed.
  bool replacement_complete() const {
    return !queue_->bootstrapping();
  }

 private:
  class Endpoint;
  class UpcallContext;
  friend class UpcallContext;

  void schedule_consume();
  void consume_step();
  /// Handles the entry at the queue cursor. Returns true if the cursor
  /// advanced (continue consuming), false if consumption must stall.
  bool process_head(const BufView& entry);
  bool process_sealed_request(const OrderedMsg& msg);
  void execute_request(const OrderedMsg& meta, cdr::RequestMessage request);
  void finish_request(OrderedMsg meta, cdr::ReplyMessage reply);
  /// Seals `reply`, signs its digest and sends the DirectReplyMsg back to the
  /// requester (singleton client or every element of the calling domain).
  void seal_and_send_reply(ConnectionId conn, RequestId rid, KeyEpoch epoch,
                           cdr::ReplyMessage reply);
  /// Admission-shed hook: sends the requester an explicit OVERLOAD system
  /// exception so open-loop overload degrades gracefully (DESIGN.md §6f).
  void handle_shed(const BufView& entry);
  void begin_key_wait(ConnectionId conn);
  void maybe_send_ack();

  // --- element replacement ---
  void send_state_bundle(NodeId requester);
  void handle_state_bundle(const StateBundleMsg& msg);
  Result<Bytes> make_bundle_plain() const;
  Status install_bundle_plain(ByteView plain, std::uint64_t consumed_index);
  void submit_sync_point();
  void try_finish_replacement();

  net::Network& net_;
  std::shared_ptr<const SystemDirectory> directory_;
  DomainId domain_;
  int rank_;
  ElementInfo info_;
  const bft::SessionKeys& keys_;
  crypto::SigningKey smiop_key_;
  std::shared_ptr<const crypto::Keystore> keystore_;

  std::unique_ptr<SmiopParty> party_;   // client role (nested invocations)
  std::unique_ptr<orb::Orb> orb_;
  std::unique_ptr<Endpoint> endpoint_;
  QueueStateMachine* queue_ = nullptr;  // owned by replica_
  std::unique_ptr<bft::Replica> replica_;
  std::unique_ptr<bft::Client> self_client_;  // queue-management acks
  std::unique_ptr<UpcallContext> context_;

  // The `element.<smiop node>.*` counters, resolved once at construction. A
  // crash replacement keeps its identity, so it counts on from its
  // predecessor's totals.
  struct {
    telemetry::Counter* entries_consumed;
    telemetry::Counter* entries_discarded;     // malformed / unsealable / stale rid
    telemetry::Counter* requests_executed;
    telemetry::Counter* request_vote_copies;   // ordered copies fed to request votes
    telemetry::Counter* replies_sent;
    telemetry::Counter* key_waits;             // stalls on a not-yet-keyed connection
    telemetry::Counter* acks_sent;
    telemetry::Counter* bundles_sent;          // replacement sync bundles produced
    telemetry::Counter* bundles_received;
    telemetry::Counter* requests_shed;         // admission control sheds (§6f)
  } metrics_{};
  std::function<cdr::ReplyMessage(cdr::ReplyMessage)> reply_mutator_;
  std::function<Bytes(Bytes)> bundle_corruptor_;

  bool consume_scheduled_ = false;
  bool executing_ = false;              // upcall in progress (maybe nested)
  std::optional<ConnectionId> waiting_key_;  // stalled on this connection
  std::map<std::uint64_t, std::uint64_t> last_rid_;  // conn -> last executed rid
  std::map<std::pair<std::uint64_t, std::uint64_t>, Vote> request_votes_;
  std::uint64_t consumed_since_ack_ = 0;

  // Replacement bootstrap: bundle tallies keyed by (consumed index, bundle
  // digest); installed at f+1 matching senders (weak certificate).
  struct BundleOffer {
    std::set<NodeId> senders;
    Bytes plain;
  };
  std::map<std::pair<std::uint64_t, crypto::Digest>, BundleOffer> bundle_offers_;
  std::optional<std::pair<std::uint64_t, Bytes>> pending_install_;  // awaiting queue
};

}  // namespace itdos::core
