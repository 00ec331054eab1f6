// The Group Manager (§2, §3.3, §3.5, §3.6).
//
// "The Group Manager handles replication domain membership and virtual
// connection management in ITDOS. The Group Manager consists of a
// replication domain of Group Manager processes" — here, a BFT group whose
// state machine is the membership/connection logic. Each GM element is NOT a
// CORBA server (§2): commands arrive as ordered BFT requests, not GIOP.
//
// Responsibilities implemented:
//   * open_request (Figure 3): validate client and target, allocate a
//     connection id, and have every GM element send its DPRF key share to
//     the target elements (step 2) and the client (step 3) over pairwise
//     secure channels (footnote 2);
//   * change_request (§3.6): expel a faulty element — on a singleton
//     client's signed-message proof (the GM re-votes the disputed replies on
//     unmarshalled data using the standalone marshalling engine), or on f+1
//     matching requests from a replication domain (trustworthy source, no
//     proof needed);
//   * rekey on expulsion (§3.5): bump the epoch of every connection the
//     expelled element's domain participates in and redistribute shares to
//     everyone except the expelled element — "keying them out of all
//     communication groups of which they are part".
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "itdos/smiop_msg.hpp"
#include "itdos/system_directory.hpp"
#include "telemetry/telemetry.hpp"

namespace itdos::core {

/// A virtual connection the GM manages.
struct ConnRecord {
  ConnectionId conn;
  NodeId client_node;      // SMIOP node of the client party
  DomainId client_domain;  // 0 for singleton clients
  DomainId target;
  KeyEpoch epoch;
  std::uint64_t member_epoch = 0;  // membership generation whose refreshed
                                   // DPRF keys seal this conn's epoch
  // Generation history over the retained-epoch window (epoch -> membership
  // generation), newest last. A resend re-serves shares for every entry, so
  // a fresh replacement element can still unseal queue entries sealed just
  // before its admission rekey; pruned in lockstep with ConnTable.
  std::map<std::uint64_t, std::uint64_t> epoch_generations;

  bool operator==(const ConnRecord&) const = default;
};

/// One slot of a domain's replicated membership view: the identities that
/// currently hold the rank (fresh identities replace retired ones via
/// ordered membership_update commands — DESIGN.md §6d).
struct MemberIdentity {
  NodeId smiop;
  NodeId gm_client;

  bool operator==(const MemberIdentity&) const = default;
};

/// The GM's replicated view of one replication domain's membership. Seeded
/// from the (startup) system directory at the first ordered command and from
/// then on evolved ONLY by ordered membership_update commands, so every GM
/// replica sees identical membership at identical sequence numbers even
/// while the deployment layer is mutating the live directory.
struct MembershipView {
  std::uint64_t epoch = 0;              // bumped once per admitted replacement
  std::vector<MemberIdentity> members;  // by rank

  bool operator==(const MembershipView&) const = default;
};

/// The common non-repeating DPRF input for a connection epoch (§3.5).
Bytes dprf_input(ConnectionId conn, KeyEpoch epoch);

/// Element-specific side-effect hook: when the ordered GM state machine
/// creates or rekeys a connection, each GM element distributes *its own*
/// key share to the given recipients.
class ShareDistributor {
 public:
  virtual ~ShareDistributor() = default;
  virtual void distribute(const ConnRecord& record,
                          const std::vector<NodeId>& recipients) = 0;
};

/// The deterministic, BFT-ordered core of the Group Manager.
class GmStateMachine : public bft::StateMachine {
 public:
  /// `telemetry`/`self` are optional (unit tests leave them null): when set,
  /// GM decisions are traced and counted under `gm.<self>.*`.
  GmStateMachine(std::shared_ptr<const SystemDirectory> directory,
                 std::shared_ptr<const crypto::Keystore> keystore,
                 ShareDistributor* distributor,
                 telemetry::Hub* telemetry = nullptr, NodeId self = {});

  Bytes execute(const BufView& request, const crypto::Digest& digest, NodeId client,
                SeqNum seq) override;
  bft::AppSnapshot snapshot() const override;
  Status restore(const bft::AppSnapshot& snapshot) override;

  // Observers.
  bool is_expelled(DomainId domain, NodeId element_smiop) const;
  const std::map<ConnectionId, ConnRecord>& connections() const { return conns_; }
  std::uint64_t expulsions() const { return expulsions_; }

  /// The replicated membership view of a domain, or null before the first
  /// ordered command referenced it.
  const MembershipView* membership_view(DomainId domain) const;

  /// A domain's membership epoch (0 while still at startup membership).
  std::uint64_t membership_epoch(DomainId domain) const;

  /// Global membership generation: bumped once per applied membership_update;
  /// keys distributed afterwards derive from proactively refreshed DPRF
  /// sub-keys of this generation.
  std::uint64_t membership_generation() const { return membership_generation_; }

  /// Suspicion-expulsion aggressiveness currently in force (DESIGN.md §6f):
  /// completed f+1 quorum tallies required before a no-proof expulsion.
  std::uint64_t laggard_strikes() const { return policy_strikes_; }

  /// Observer fired whenever an identity leaves a communication group — via
  /// expulsion or via membership_update retirement (the fault oracle asserts
  /// retired identities never rejoin; the recovery manager reacts to
  /// expulsions by minting replacements).
  using ExpulsionObserver = std::function<void(DomainId, NodeId)>;
  void add_expulsion_observer(ExpulsionObserver observer) {
    expulsion_observers_.push_back(std::move(observer));
  }

  /// Active (non-expelled) SMIOP nodes of a domain.
  std::vector<NodeId> active_elements(const DomainInfo& info) const;

 private:
  GmCommandResult handle_open(const OpenRequestMsg& msg);
  GmCommandResult handle_resend(const ResendSharesMsg& msg);
  GmCommandResult handle_change(const ChangeRequestMsg& msg, NodeId submitter);
  GmCommandResult handle_membership(const MembershipUpdateMsg& msg, NodeId submitter);
  GmCommandResult handle_policy(const SetResponsePolicyMsg& msg, NodeId submitter);
  Status verify_proof(const ChangeRequestMsg& msg) const;
  void expel(DomainId domain, NodeId element_smiop);
  void retire(DomainId domain, NodeId element_smiop, bool count_expulsion);
  void rekey_domain(DomainId domain);
  void ensure_views_seeded();
  /// Rank an SMIOP identity holds in the domain's current membership (view
  /// when seeded, startup directory otherwise), or -1.
  int member_rank(const DomainInfo& info, NodeId smiop) const;
  /// The GM-client identity of the given rank under current membership.
  NodeId member_gm_client(const DomainInfo& info, int rank) const;
  std::vector<NodeId> recipients_for(const ConnRecord& record) const;
  void trace(telemetry::TraceKind kind, std::uint64_t trace_id, std::uint64_t a = 0,
             std::uint64_t b = 0) const;

  std::shared_ptr<const SystemDirectory> directory_;
  std::shared_ptr<const crypto::Keystore> keystore_;
  ShareDistributor* distributor_;  // may be null (unit tests)
  telemetry::Hub* tel_;            // may be null (unit tests)
  NodeId self_;
  struct {
    telemetry::Counter* opens;
    telemetry::Counter* resends;
    telemetry::Counter* change_requests;
    telemetry::Counter* expulsions;
    telemetry::Counter* rekeys;
    telemetry::Counter* membership_updates;
  } metrics_{};

  // Replicated deterministic state.
  std::uint64_t next_conn_ = 1;
  std::map<ConnectionId, ConnRecord> conns_;
  std::map<DomainId, std::set<NodeId>> expelled_;
  std::map<DomainId, MembershipView> views_;
  std::uint64_t membership_generation_ = 0;
  // Domain-quorum change_request tallies: (accused, conn, rid) -> reporters.
  std::map<std::tuple<NodeId, std::uint64_t, std::uint64_t>, std::set<NodeId>> tallies_;
  std::uint64_t expulsions_ = 0;
  // Intrusion-response policy (§6f): quorum strikes before a suspicion-based
  // expulsion, and completed strikes per accused element. Replicated — the
  // feedback controller only changes it via ordered SetResponsePolicy
  // commands submitted by the recovery authority.
  std::uint64_t policy_strikes_ = 1;
  std::map<NodeId, std::uint64_t> strike_counts_;
  std::vector<ExpulsionObserver> expulsion_observers_;  // not replicated state
};

/// One Group Manager replication domain element: the BFT replica running the
/// GmStateMachine plus the share-distribution side effects.
class GmElement {
 public:
  GmElement(net::Network& net, std::shared_ptr<const SystemDirectory> directory,
            int index, const bft::SessionKeys& keys, crypto::SigningKey bft_key,
            std::shared_ptr<const crypto::Keystore> keystore,
            crypto::DprfElementKeys dprf_keys);
  ~GmElement();

  int index() const { return index_; }
  const GmStateMachine& state() const { return *state_; }
  bft::Replica& replica() { return *replica_; }

  /// Forwards to the owned GmStateMachine (fault oracle + recovery wiring).
  void add_expulsion_observer(GmStateMachine::ExpulsionObserver observer) {
    state_->add_expulsion_observer(std::move(observer));
  }

  /// Test hook: make this element stop distributing shares (a crashed or
  /// withholding GM element; parties must still combine from the rest).
  void set_withhold_shares(bool withhold);

  /// Test hook: make this element distribute corrupted shares (a Byzantine
  /// GM element; combiners must flag it and still derive the right key).
  void set_corrupt_shares(bool corrupt);

 private:
  class Distributor;

  net::Network& net_;
  std::shared_ptr<const SystemDirectory> directory_;
  int index_;
  std::unique_ptr<Distributor> distributor_;
  GmStateMachine* state_ = nullptr;  // owned by replica_
  std::unique_ptr<bft::Replica> replica_;
};

}  // namespace itdos::core
