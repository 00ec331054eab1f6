// SMIOP (Secure Multicast Inter-ORB Protocol) message formats — the ITDOS
// layer's wire vocabulary (Figure 2).
//
// Three message families:
//   * OrderedMsg      — entries submitted into a replication domain's BFT
//                       ordering (client GIOP requests, nested requests,
//                       queue-management acks travel as queue entries);
//   * DirectReplyMsg  — a domain element's reply, sent directly to the
//                       requester and voted there (§3.2: clients are not in
//                       the ordering group, so replies flow outward);
//   * Group Manager traffic — OpenRequest / ChangeRequest commands (ordered
//                       within the GM's own domain) and KeyShare messages
//                       (GM element -> party, over pairwise secure channels).
//
// Confidentiality and proof: the GIOP payload inside OrderedMsg/
// DirectReplyMsg is sealed with the connection's communication key. A
// DirectReplyMsg additionally carries the element's *signature over the
// plaintext digest* so a singleton client can later prove a faulty value to
// the Group Manager without the GM ever holding the communication key
// (§3.6's proof of faulty values, reconciled with §3.5's threshold keying:
// the reporter reveals the disputed plaintexts; signatures bind them to
// their senders).
//
// Each message marshals once, with encode(), into a chunk sized to it: the
// chunk it is sent, ordered or sealed from.
#pragma once

#include <array>
#include <optional>
#include <variant>
#include <vector>

#include "cdr/codec.hpp"
#include "common/buffer.hpp"
#include "common/ids.hpp"
#include "crypto/signing.hpp"
#include "itdos/voting.hpp"

namespace itdos::core {

/// Old key epochs retained per connection beyond the newest one, by BOTH
/// sides of the key path: ConnTable prunes installed keys to this window
/// (bounding the replay horizon a compromised party can hoard frames
/// across), and the GM keeps per-epoch DPRF generation history over the
/// same window so a resend can re-serve every epoch a correct element might
/// still legitimately need (a fresh replacement element consuming queue
/// entries sealed before its admission rekey).
inline constexpr std::size_t kMaxRetainedEpochs = 4;

enum class SmiopType : std::uint8_t {
  kDirectReply = 1,
  kKeyShare = 2,
  kStateBundle = 3,  // element replacement: peer state at a sync point
};

/// Kinds of entries in a replication domain's ordered queue.
enum class QueueEntryKind : std::uint8_t {
  kRequest = 1,    // a (sealed) GIOP request on some connection
  kAck = 2,        // queue-management ack (virtual-synchrony GC, §3.1)
  kSyncPoint = 3,  // replacement sync point: peers snapshot here (§4)
};

/// A request entry ordered into a server domain's queue: one entry per
/// request, whatever its size (§4 large messages).
struct OrderedMsg {
  ConnectionId conn;
  RequestId rid;
  NodeId origin;           // SMIOP node of the sender (client or element)
  DomainId origin_domain;  // 0 for singleton clients
  KeyEpoch epoch;          // communication-key epoch the payload is sealed under
  BufView sealed_giop;

  bool operator==(const OrderedMsg&) const = default;
  BufView encode() const;  // includes the QueueEntryKind tag
  /// Zero-copy: `sealed_giop` is a sub-view sharing `data`'s chunk.
  static Result<OrderedMsg> decode(const BufView& data);
};

/// A queue-management ack: "element has consumed entries up to `index`".
struct QueueAckMsg {
  NodeId element;
  std::uint64_t consumed_index = 0;

  bool operator==(const QueueAckMsg&) const = default;
  BufView encode() const;  // includes the QueueEntryKind tag
  static Result<QueueAckMsg> decode(ByteView data);
};

/// Reads the kind tag of a queue entry.
Result<QueueEntryKind> queue_entry_kind(ByteView data);

/// A domain element's reply, unicast to the requester.
struct DirectReplyMsg {
  ConnectionId conn;
  RequestId rid;
  NodeId element;          // SMIOP node of the replying element
  KeyEpoch epoch;
  BufView sealed_giop;     // plaintext GIOP reply sealed with the conn key
  crypto::Signature plain_signature{};  // over signed_region(plain_digest)

  /// The byte string plain_signature covers: conn | rid | element | epoch |
  /// sha256(plaintext GIOP), the ids little-endian, built on the stack.
  /// Request id + connection id double as the replay protection the paper
  /// requires of proof messages.
  using SignedRegion = std::array<std::uint8_t, 32 + crypto::kDigestSize>;
  static SignedRegion signed_region(ConnectionId conn, RequestId rid, NodeId element,
                                    KeyEpoch epoch, const crypto::Digest& plain_digest);

  bool operator==(const DirectReplyMsg&) const = default;
  BufView encode() const;  // includes the SmiopType tag
  static Result<DirectReplyMsg> decode(const BufView& data);
};

/// One GM element's DPRF key share for (conn, epoch), sealed with the
/// pairwise key between that GM element and the receiving party.
struct KeyShareMsg {
  ConnectionId conn;
  KeyEpoch epoch;
  DomainId target_domain;   // the server domain of the connection
  NodeId client_node;       // SMIOP node of the client party
  DomainId client_domain;   // 0 for singleton clients
  std::uint32_t gm_index = 0;  // which GM element sent this
  std::uint64_t member_epoch = 0;  // membership epoch the DPRF keys were
                                   // refreshed to (0 = deal-time keys)
  BufView sealed_share;     // crypto::seal(pairwise key, a DprfShare's bytes)

  bool operator==(const KeyShareMsg&) const = default;
  BufView encode() const;  // includes the SmiopType tag
  /// AAD binding the framing fields into the share's seal: a share sealed
  /// for one (conn, epoch, domain, sender) context cannot be replayed under
  /// spliced framing, because open() then fails authentication.
  Bytes framing_aad() const;
  static Result<KeyShareMsg> decode(const BufView& data);
};

/// A replacement sync point ordered into the queue: every element, upon
/// consuming it, snapshots its servant state and sends a StateBundle to the
/// requesting (replacement) element.
struct SyncPointMsg {
  NodeId requester;  // SMIOP node of the replacement element

  bool operator==(const SyncPointMsg&) const = default;
  BufView encode() const;  // includes the QueueEntryKind tag
  static Result<SyncPointMsg> decode(ByteView data);
};

/// A peer's servant state at a sync point, sealed over the pairwise channel
/// between the sending element and the replacement element. The replacement
/// installs the state once f+1 distinct peers sent byte-identical bundles
/// for the same consumed index (a weak certificate: one of them is correct).
struct StateBundleMsg {
  DomainId domain;
  NodeId element;                 // sender
  std::uint64_t consumed_index = 0;  // queue cursor the bundle captures
  BufView sealed_bundle;

  bool operator==(const StateBundleMsg&) const = default;
  BufView encode() const;  // includes the SmiopType tag
  static Result<StateBundleMsg> decode(const BufView& data);
};

/// Reads the SmiopType tag of a direct (non-queue) SMIOP message.
Result<SmiopType> smiop_type(ByteView data);

/// Full structural validation: the bytes parse as a complete SMIOP message
/// of their tagged type (used by the firewall proxy, which must not be
/// fooled by tag collisions with other protocols).
bool parses_as_smiop(ByteView data);

// ---------------------------------------------------------------------------
// Group Manager commands (ordered through the GM domain's own BFT group)
// ---------------------------------------------------------------------------

/// Figure 3 step 1: open a connection to `target`.
struct OpenRequestMsg {
  NodeId client_node;      // SMIOP node the key shares should go to
  DomainId client_domain;  // 0 for singleton
  DomainId target;

  bool operator==(const OpenRequestMsg&) const = default;
};

/// One entry of a change_request proof: a disputed plaintext reply plus the
/// signature that binds it to its sender. The reporter's entry shares its
/// plaintext with the reply's ballot.
struct ProofEntry {
  NodeId element;
  KeyEpoch epoch;
  BufView plain_giop;
  crypto::Signature signature{};

  bool operator==(const ProofEntry&) const = default;
};

/// §3.6: ask the GM to expel faulty element(s). Singleton reporters must
/// attach proof; replicated reporters are believed at f+1 matching requests.
struct ChangeRequestMsg {
  NodeId reporter;
  DomainId reporter_domain;  // 0 for singleton (proof required)
  DomainId accused_domain;
  NodeId accused_element;    // SMIOP node of the accused element
  ConnectionId conn;
  RequestId rid;
  std::vector<ProofEntry> proof;

  bool operator==(const ChangeRequestMsg&) const = default;
};

/// Ask the GM elements to resend the key shares for a connection to the
/// requesting party (used when an ordered entry references a connection the
/// consuming element has no key for yet: the BFT-agreed answer — resent
/// shares or a rejection — is authoritative and identical for every element,
/// which keeps the consume/discard decision deterministic).
struct ResendSharesMsg {
  ConnectionId conn;
  NodeId requester;  // SMIOP node to resend to

  bool operator==(const ResendSharesMsg&) const = default;
};

/// Totally-ordered membership update: retire one element identity of a
/// replication domain and admit a fresh identity in its place (proactive
/// recovery / replacement of an *expelled* element — DESIGN.md §6d). Only
/// the system's recovery authority may submit one; the GM validates against
/// its replicated membership view and bumps the domain's membership epoch,
/// so stale identities are rejected deterministically by every element.
struct MembershipUpdateMsg {
  DomainId domain;
  std::uint32_t rank = 0;          // slot being replaced
  NodeId retired_element;          // SMIOP node currently holding the slot
  NodeId admitted_element;         // fresh SMIOP identity taking the slot
  NodeId admitted_gm_client;       // fresh GM-client identity of the element
  NodeId admitted_self_client;     // fresh self-client identity of the element
  std::uint64_t expected_epoch = 0;  // CAS: current membership epoch

  bool operator==(const MembershipUpdateMsg&) const = default;
};

/// Totally-ordered intrusion-response policy update (DESIGN.md §6f): sets how
/// aggressively the GM acts on suspicion-based (no-proof, f+1-tally) change
/// requests. `laggard_strikes` is the number of DISTINCT completed quorum
/// tallies against one element before it is expelled: 1 = expel on the first
/// quorum (the baseline), higher values demand repeated independent evidence
/// (conservative mode the feedback controller uses when suspicion is low).
/// Proof-carrying change requests always expel immediately — cryptographic
/// evidence is not policy-tunable. Only the recovery authority may submit
/// one; replicated like every other GM decision.
struct SetResponsePolicyMsg {
  std::uint64_t laggard_strikes = 1;

  bool operator==(const SetResponsePolicyMsg&) const = default;
};

using GmCommand = std::variant<OpenRequestMsg, ChangeRequestMsg, ResendSharesMsg,
                               MembershipUpdateMsg, SetResponsePolicyMsg>;

Bytes encode_gm_command(const GmCommand& cmd);
Result<GmCommand> decode_gm_command(ByteView data);

/// The deterministic reply a GM command execution produces (every GM element
/// computes the same bytes, so the BFT client's f+1 matching rule applies).
struct GmCommandResult {
  bool accepted = false;
  ConnectionId conn;   // assigned/affected connection (open requests)
  KeyEpoch epoch;      // epoch the shares will carry
  std::string detail;  // human-readable rejection reason

  bool operator==(const GmCommandResult&) const = default;
  /// Upper bound on what write() appends.
  std::size_t size_hint() const { return 24 + 4 + detail.size() + 1; }
  /// The one marshal: appends the result to `enc` (a GM state machine's
  /// reply, which the replica caches and writes into each REPLY frame).
  void write(cdr::Encoder& enc) const;
  static Result<GmCommandResult> decode(ByteView data);
};

}  // namespace itdos::core
