// SMIOP client-side machinery (§3.3, Figure 3): virtual connections over the
// BFT transport, communication-key handling, per-connection reply voting and
// fault reporting. Used by singleton clients AND by replication domain
// elements acting as clients (nested invocations) — the same code path, as
// the paper's architecture implies.
#pragma once

#include <array>
#include <memory>

#include "bft/client.hpp"
#include "itdos/key_agent.hpp"
#include "orb/transport.hpp"

namespace itdos::core {

/// Communication keys this party holds, all epochs (§3.5 rekey keeps old
/// epochs decryptable so in-flight traffic is not lost; new traffic uses the
/// newest epoch, which expelled elements never receive).
class ConnTable {
 public:
  struct Entry {
    ConnRecord record;                                   // newest epoch
    std::map<std::uint64_t, crypto::SymmetricKey> keys;  // epoch -> key
  };
  using Listener = std::function<void(const Entry&)>;

  void install(const ConnRecord& record, const crypto::SymmetricKey& key);
  const Entry* find(ConnectionId conn) const;
  const crypto::SymmetricKey* key_for(ConnectionId conn, KeyEpoch epoch) const;
  void subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::uint64_t, Entry> entries_;
  std::vector<Listener> listeners_;
};

/// Additional authenticated data binding sealed GIOP payloads to their
/// connection, request and direction (prevents cross-connection splicing and
/// request/reply reflection): the little-endian CDR of conn | rid | epoch |
/// is_reply, built on the stack.
struct SealAad {
  std::array<std::uint8_t, 25> bytes{};

  operator ByteView() const { return bytes; }  // NOLINT(google-explicit-constructor)
  /// A heap copy, for a caller that keeps the AAD.
  operator Bytes() const { return Bytes(bytes.begin(), bytes.end()); }  // NOLINT
  bool operator==(const SealAad&) const = default;
};
SealAad seal_aad(ConnectionId conn, RequestId rid, KeyEpoch epoch, bool is_reply);

struct PartyConfig {
  NodeId smiop_node;            // where shares and replies arrive
  NodeId gm_client_node;        // BFT-client endpoint toward the GM group
  DomainId my_domain;           // 0 for singleton clients
  cdr::ByteOrder byte_order = cdr::native_byte_order();
  bool auto_report = true;      // file change_requests for detected faults
  std::optional<VotePolicy> policy_override;  // else the target domain's policy
};

/// The client half of an ITDOS party. Owns the GM/ordering BFT clients, the
/// connection table and the voters. The owner feeds it raw SMIOP packets
/// from its endpoint process.
class SmiopParty {
 public:
  SmiopParty(net::Network& net, std::shared_ptr<const SystemDirectory> directory,
             PartyConfig config, const bft::SessionKeys& keys,
             std::shared_ptr<const crypto::Keystore> keystore,
             std::shared_ptr<NodeAllocator> allocator);
  ~SmiopParty();

  /// A PluggableProtocol for an Orb; the party must outlive the Orb.
  std::unique_ptr<orb::PluggableProtocol> make_protocol();

  /// Feeds one SMIOP datagram (key share or direct reply) from the endpoint.
  /// The decoded payload fields share the datagram's chunk (no copy).
  void handle_smiop_packet(const BufView& payload);

  /// Shared with the server role of a domain element.
  ConnTable& conn_table() { return table_; }

  /// Asks the GM to resend the shares of `conn` to this party.
  void request_resend(ConnectionId conn,
                      std::function<void(GmCommandResult)> done = nullptr);

  /// Files a change_request (used internally on detected faults; public so
  /// the server role can report queue-management laggards, §3.1).
  void send_change_request(ChangeRequestMsg msg);

  const PartyConfig& config() const { return config_; }
  bft::Client& gm_client() { return *gm_client_; }

  /// Every transport endpoint this party currently owns: its SMIOP node,
  /// its GM client node, and the lazily created per-target ordering client
  /// nodes. Fault plans that partition "everything this party says" need
  /// the dynamic ones too — an inter-domain cut that misses the ordering
  /// client node lets sealed requests tunnel through the partition.
  std::vector<NodeId> transport_nodes() const;

  /// Installs a vote audit (fault::Oracle) on every current and future
  /// connection voter of this party.
  void set_vote_audit(ConnectionVoter::DecisionAudit audit);

  /// Test hook: a compromised client party. `duplicate` submits every
  /// ordered request twice; `replay` resubmits the previously sealed frame
  /// alongside each new request. Both must be discarded identically at every
  /// element (stale rid, §3.6) — the fault scenarios assert exactly that.
  void set_misbehavior(bool duplicate, bool replay) {
    // Sticky and cumulative: arming one behavior never disarms another, so a
    // fault plan can schedule both kinds independently.
    duplicate_submits_ |= duplicate;
    replay_stale_frames_ |= replay;
  }

 private:
  class Protocol;
  class Connection;
  friend class Protocol;
  friend class Connection;

  struct RequestRound {
    RequestId rid;
    orb::ClientConnection::Completion done;  // null once completed/timed out
    net::EventHandle timer{};
    bool timer_armed = false;
    SimTime sent_at{};               // request send time (latency histogram)
    std::vector<ProofEntry> proof;   // signed plaintexts collected this round
    std::set<NodeId> reported;       // dissenters already reported
  };

  struct ConnState {
    ConnectionId conn;
    DomainId target;
    int target_f = 1;
    std::unique_ptr<ConnectionVoter> voter;
    std::optional<RequestRound> round;
  };

  void connect_to(const orb::ObjectRef& ref,
                  orb::PluggableProtocol::ConnectCompletion done);
  void send_on(ConnState& state, cdr::RequestMessage request,
               orb::ClientConnection::Completion done);
  void handle_direct_reply(const DirectReplyMsg& msg);
  void complete_round(ConnState& state, Result<cdr::ReplyMessage> result);
  void maybe_report_dissenters(ConnState& state);
  bft::Client& target_client(DomainId domain);
  VotePolicy policy_for(const DomainInfo& target) const;

  net::Network& net_;
  std::shared_ptr<const SystemDirectory> directory_;
  PartyConfig config_;
  const bft::SessionKeys& keys_;
  std::shared_ptr<const crypto::Keystore> keystore_;
  std::shared_ptr<NodeAllocator> allocator_;

  KeyAgent agent_;
  ConnTable table_;
  std::unique_ptr<bft::Client> gm_client_;
  std::map<DomainId, std::unique_ptr<bft::Client>> target_clients_;
  std::map<std::uint64_t, std::shared_ptr<ConnState>> conns_;
  ConnectionVoter::DecisionAudit vote_audit_;  // applied to every voter

  // Compromised-client test hooks (see set_misbehavior).
  bool duplicate_submits_ = false;
  bool replay_stale_frames_ = false;
  BufView last_sealed_frame_;     // previously submitted ordered entry
  DomainId last_frame_target_{};  // domain it was submitted to

  // Connects waiting for their key shares: conn -> completions + timer.
  struct PendingConnect {
    DomainId target;
    std::vector<orb::PluggableProtocol::ConnectCompletion> waiting;
    net::EventHandle timer{};
    SimTime started{};               // connect start (latency histogram)
  };
  std::map<std::uint64_t, PendingConnect> pending_connects_;

  // Registry-backed counters (stable addresses, resolved once) plus the
  // request/connect latency histograms.
  telemetry::Hub* tel_ = nullptr;
  struct {
    telemetry::Counter* opens_sent;
    telemetry::Counter* requests_sent;
    telemetry::Counter* replies_received;
    telemetry::Counter* replies_rejected;      // bad seal/signature/shape
    telemetry::Counter* votes_decided;
    telemetry::Counter* votes_timed_out;
    telemetry::Counter* discarded;             // wrong-request-id messages (§3.6)
    telemetry::Counter* faults_detected;       // dissenting elements observed
    telemetry::Counter* change_requests_sent;
    telemetry::Counter* overloads_observed;    // voted OVERLOAD replies (§6f sheds)
    telemetry::Histogram* request_latency_ns;  // send_on -> voted reply
    telemetry::Histogram* connect_latency_ns;  // connect_to -> key installed
  } metrics_{};
};

}  // namespace itdos::core
