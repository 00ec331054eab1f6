// Castro-Liskov protocol messages and their wire codecs.
//
// The BFT layer has its own fixed little-endian wire format (it sits below
// GIOP; heterogeneity concerns live above it). Every message travels inside
// an Envelope carrying either an authenticator vector (pairwise MAC per
// receiver — the Castro-Liskov MAC optimization [8]) or a signature (view
// changes, whose certificates are relayed to third parties).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "batch/batch_msg.hpp"
#include "cdr/codec.hpp"
#include "common/ids.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signing.hpp"

namespace itdos::bft {

using crypto::Digest;

enum class MsgType : std::uint8_t {
  kRequest = 1,
  kPrePrepare = 2,
  kPrepare = 3,
  kCommit = 4,
  kReply = 5,
  kCheckpoint = 6,
  kViewChange = 7,
  kNewView = 8,
  kStateRequest = 9,
  kStateResponse = 10,
};

std::string_view msg_type_name(MsgType t);

/// Client request. `timestamp` is the client's strictly-increasing request
/// counter; replicas use it to deduplicate retransmissions. The payload is
/// a view: relaying, logging and re-proposing share one sealed chunk.
/// Wire layout: client at 0, timestamp at 8, payload length at 16, then
/// the payload at kRequestHeaderSize.
struct RequestMsg {
  NodeId client;
  std::uint64_t timestamp = 0;
  BufView payload;

  bool operator==(const RequestMsg&) const = default;
  Bytes encode() const;
  static Result<RequestMsg> decode(const BufView& data);
};

/// A REQUEST body's fixed header: client, timestamp and payload length.
inline constexpr std::size_t kRequestHeaderSize = 20;

/// SHA-256 of what follows a REQUEST body's header: for a well-formed body,
/// the payload. A request's authenticators and its batch's proposal digest
/// cover this digest in place of the payload, so each replica hashes a
/// payload once.
Digest payload_digest(ByteView request);

/// Primary's ordering proposal; carries the formed batch (piggybacked):
/// `request` is an encoded batch::BatchMsg of one or more client requests
/// agreed as one slot. An empty `request` with the null digest is a null
/// request (view-change filler that executes as a no-op).
struct PrePrepareMsg {
  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  BufView request;  // encoded batch::BatchMsg; empty for null requests

  bool is_null_request() const { return request.empty(); }
  bool operator==(const PrePrepareMsg&) const = default;
  Bytes encode() const;
  static Result<PrePrepareMsg> decode(const BufView& data);
};

/// A PRE-PREPARE body's fixed header: view at 0, seq at 8, req_digest at
/// 16 and the request length at 48. The batch bytes follow it.
inline constexpr std::size_t kPrePrepareHeaderSize = 52;

/// The digest binding a proposal: SHA-256 over the batch's entry count,
/// then per entry its request length, its first kRequestHeaderSize bytes
/// (the header of a well-formed request) and its payload_digest. It covers
/// every byte a replica executes but reads no payload, so the primary
/// feeds it the digests it computed when it verified each request. The
/// authenticator entries are not covered: they decide whether a backup
/// prepares, not what a slot executes. The walk allocates nothing.
class ProposalDigest {
 public:
  explicit ProposalDigest(std::size_t entries);
  /// Adds the next entry: its request frame and that frame's
  /// payload_digest.
  void add(ByteView request, const Digest& payload_digest);
  Digest finish();

 private:
  crypto::Sha256 sha_;
};

/// The proposal digest of `batch`, hashing every entry's payload.
Digest proposal_digest(const batch::BatchMsg& batch);

/// The part of a `type` body that its MAC authenticators cover. For a
/// PRE-PREPARE that is the fixed header, the Castro-Liskov authenticator
/// over <v, n, d>: the piggybacked request is bound by req_digest, which
/// the receiving replica checks once against the decoded request. For a
/// REQUEST it is the header, and request_mac_input adds the payload's
/// digest. Every other body is covered whole. Senders, receivers and tests
/// all MAC through this.
ByteView authenticated_region(MsgType type, ByteView body);

/// The input of a `type` message's MAC authenticators: the type byte, then
/// authenticated_region(type, body). The type byte keeps a message of one
/// kind from passing as another kind with the same body layout under the
/// same pairwise key: a PREPARE as a COMMIT, a REQUEST as a REPLY. The
/// type byte is read where `type` lives (pass the Envelope's own field), so
/// `type` must outlive the views, and a temporary is refused. A REQUEST
/// authenticates through request_mac_input instead.
std::array<ByteView, 2> mac_input(const MsgType& type, ByteView body);
std::array<ByteView, 2> mac_input(MsgType&& type, ByteView body) = delete;

/// The input of a REQUEST's authenticators: the REQUEST type byte, the
/// body's header and `payload_digest`, which must be payload_digest(body).
/// About 53 bytes however large the payload: a client tags them for every
/// replica, and a replica checks its tag, whether the request reaches it
/// as a REQUEST or as a batch entry, after hashing the payload once.
/// `payload_digest` must outlive the views.
std::array<ByteView, 3> request_mac_input(ByteView body, const Digest& payload_digest);
std::array<ByteView, 3> request_mac_input(ByteView body, Digest&& payload_digest) = delete;

struct PrepareMsg {
  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  NodeId replica;

  bool operator==(const PrepareMsg&) const = default;
  Bytes encode() const;
  static Result<PrepareMsg> decode(ByteView data);
};

struct CommitMsg {
  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  NodeId replica;

  bool operator==(const CommitMsg&) const = default;
  Bytes encode() const;
  static Result<CommitMsg> decode(ByteView data);
};

struct ReplyMsg {
  ViewId view;
  std::uint64_t timestamp = 0;
  NodeId client;
  NodeId replica;
  Bytes result;

  bool operator==(const ReplyMsg&) const = default;
  Bytes encode() const;
  static Result<ReplyMsg> decode(ByteView data);
};

struct CheckpointMsg {
  SeqNum seq;
  Digest state_digest{};
  NodeId replica;

  bool operator==(const CheckpointMsg&) const = default;
  Bytes encode() const;
  static Result<CheckpointMsg> decode(ByteView data);
};

/// Evidence that a request prepared at (view, seq) — an entry of the P set
/// in a VIEW-CHANGE. (Simplified: the digest stands for the pre-prepare plus
/// 2f prepares; the view-change carrying it is signed.)
struct PreparedProof {
  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  BufView request;  // piggybacked so the new primary can re-propose it

  bool operator==(const PreparedProof&) const = default;
};

struct ViewChangeMsg {
  ViewId new_view;
  SeqNum stable_seq;        // h: last stable checkpoint
  Digest stable_digest{};   // state digest at h
  std::vector<PreparedProof> prepared;  // P: prepared above h
  NodeId replica;

  bool operator==(const ViewChangeMsg&) const = default;
  Bytes encode() const;
  static Result<ViewChangeMsg> decode(const BufView& data);
};

/// A view change plus its signature, as relayed inside NEW-VIEW.
struct SignedViewChange {
  ViewChangeMsg msg;
  crypto::Signature signature{};

  bool operator==(const SignedViewChange&) const = default;
};

struct NewViewMsg {
  ViewId view;
  std::vector<SignedViewChange> view_changes;  // V: 2f+1 view changes
  std::vector<PrePrepareMsg> pre_prepares;     // O: re-proposals for the new view
  NodeId primary;

  bool operator==(const NewViewMsg&) const = default;
  Bytes encode() const;
  static Result<NewViewMsg> decode(const BufView& data);
};

struct StateRequestMsg {
  SeqNum seq;  // requester wants the checkpoint at (or after) this seq
  NodeId requester;

  bool operator==(const StateRequestMsg&) const = default;
  Bytes encode() const;
  static Result<StateRequestMsg> decode(ByteView data);
};

struct StateResponseMsg {
  SeqNum seq;
  Digest state_digest{};
  Bytes snapshot;
  NodeId replica;
  ViewId view;  // sender's current view: lets a recovering replica rejoin
                // normal operation instead of spinning in view changes

  bool operator==(const StateResponseMsg&) const = default;
  Bytes encode() const;
  static Result<StateResponseMsg> decode(ByteView data);
};

/// An authenticator vector in its wire form: one 24-byte entry per
/// receiver, the receiver's node id (little-endian u64) then its MAC tag. A
/// decoded envelope's vector is a read-only view of the received bytes, so
/// decoding allocates nothing; a sender appends its entries.
class AuthVector {
 public:
  static constexpr std::size_t kEntrySize = 8 + crypto::kMacTagSize;
  static_assert(kEntrySize == batch::kAuthEntrySize);

  AuthVector() = default;
  /// Entries already in wire form; `wire.size()` is a multiple of kEntrySize.
  explicit AuthVector(BufView wire) : wire_(std::move(wire)) {}

  void reserve(std::size_t n) { owned_.reserve(n * kEntrySize); }
  void emplace_back(NodeId node, const crypto::MacTag& tag);

  std::size_t size() const { return bytes().size() / kEntrySize; }
  bool empty() const { return bytes().empty(); }

  /// The entries exactly as they go on the wire.
  ByteView bytes() const { return wire_.empty() ? ByteView(owned_) : wire_.bytes(); }

  /// The first entry's tag for `receiver`, if it has one.
  std::optional<crypto::MacTag> find(NodeId receiver) const;

  /// A decoded vector's entries as a view of the received bytes (what a
  /// primary carries into a batch entry); empty for a vector a sender
  /// built.
  const BufView& wire() const { return wire_; }

 private:
  Bytes owned_;   // entries a sender appended
  BufView wire_;  // entries of a decoded envelope
};

/// Authenticated wrapper. Exactly one of `auth` / `signature` is present:
/// MAC-authenticated messages carry an authenticator vector with one entry
/// per intended receiver; signed messages carry one signature.
///
/// Wire layout (little-endian CDR): type octet at 0, sender at 8, body
/// length at 16 and the body at 20; then the auth count, 4-aligned; the
/// entries, 8-aligned (no pad when there are none); the signature flag
/// octet and, when set, the signature.
struct Envelope {
  MsgType type = MsgType::kRequest;
  NodeId sender;
  BufView body;  // zero-copy sub-view of the decoded wire buffer
  AuthVector auth;
  std::optional<crypto::Signature> signature;

  /// Marshals into `arena` so the chunk's capacity recycles when the last
  /// downstream view (net queue, BFT log) drops.
  BufView encode_into(Arena& arena) const;

  /// Decodes the header at fixed offsets; the body and the authenticator
  /// entries are views of `data`, so no heap memory is allocated.
  static Result<Envelope> decode(const BufView& data);

  /// The receiver's MAC entry, if any.
  std::optional<crypto::MacTag> tag_for(NodeId receiver) const { return auth.find(receiver); }
};

}  // namespace itdos::bft
