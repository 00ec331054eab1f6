// Castro-Liskov protocol messages and their wire codecs.
//
// The BFT layer has its own fixed little-endian wire format (it sits below
// GIOP; heterogeneity concerns live above it). Every message travels inside
// an envelope carrying either an authenticator vector (pairwise MAC per
// receiver — the Castro-Liskov MAC optimization [8]) or a signature (view
// changes, whose certificates are relayed to third parties).
//
// Each body has one marshal function, write(), which appends it to an
// encoder whose alignment origin is the body's first byte, and size_hint(),
// an upper bound on what write() appends. A sender writes the body straight
// into its envelope's frame (Frame), MACs or signs it there and appends the
// tags or the signature: every byte is written once, into the chunk it is
// sent in. Envelope is the receiver's decoded view of such a frame.
#pragma once

#include <array>
#include <optional>
#include <span>
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
  static constexpr MsgType kType = MsgType::kRequest;

  NodeId client;
  std::uint64_t timestamp = 0;
  BufView payload;

  bool operator==(const RequestMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
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
  static constexpr MsgType kType = MsgType::kPrePrepare;

  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  BufView request;  // encoded batch::BatchMsg; empty for null requests

  bool is_null_request() const { return request.empty(); }
  bool operator==(const PrePrepareMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
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
  static constexpr MsgType kType = MsgType::kPrepare;

  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  NodeId replica;

  bool operator==(const PrepareMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<PrepareMsg> decode(ByteView data);
};

struct CommitMsg {
  static constexpr MsgType kType = MsgType::kCommit;

  ViewId view;
  SeqNum seq;
  Digest req_digest{};
  NodeId replica;

  bool operator==(const CommitMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<CommitMsg> decode(ByteView data);
};

struct ReplyMsg {
  static constexpr MsgType kType = MsgType::kReply;

  ViewId view;
  std::uint64_t timestamp = 0;
  NodeId client;
  NodeId replica;
  BufView result;  // a replica lends its cached result; decode slices the body

  bool operator==(const ReplyMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<ReplyMsg> decode(const BufView& data);
};

struct CheckpointMsg {
  static constexpr MsgType kType = MsgType::kCheckpoint;

  SeqNum seq;
  Digest state_digest{};
  NodeId replica;

  bool operator==(const CheckpointMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
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
  static constexpr MsgType kType = MsgType::kViewChange;

  ViewId new_view;
  SeqNum stable_seq;        // h: last stable checkpoint
  Digest stable_digest{};   // state digest at h
  std::vector<PreparedProof> prepared;  // P: prepared above h
  NodeId replica;

  bool operator==(const ViewChangeMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<ViewChangeMsg> decode(const BufView& data);
};

/// A view change plus its signature, as relayed inside NEW-VIEW: `body` is
/// the VIEW-CHANGE body exactly as its sender signed it, and `msg` its
/// decoded form.
struct SignedViewChange {
  ViewChangeMsg msg;
  BufView body;
  crypto::Signature signature{};

  bool operator==(const SignedViewChange&) const = default;
};

struct NewViewMsg {
  static constexpr MsgType kType = MsgType::kNewView;

  ViewId view;
  std::vector<SignedViewChange> view_changes;  // V: 2f+1 view changes
  std::vector<PrePrepareMsg> pre_prepares;     // O: re-proposals for the new view
  NodeId primary;

  bool operator==(const NewViewMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<NewViewMsg> decode(const BufView& data);
};

struct StateRequestMsg {
  static constexpr MsgType kType = MsgType::kStateRequest;

  SeqNum seq;  // requester wants the checkpoint at (or after) this seq
  NodeId requester;

  bool operator==(const StateRequestMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<StateRequestMsg> decode(ByteView data);
};

struct StateResponseMsg {
  static constexpr MsgType kType = MsgType::kStateResponse;

  SeqNum seq;
  Digest state_digest{};
  Bytes snapshot;
  NodeId replica;
  ViewId view;  // sender's current view: lets a recovering replica rejoin
                // normal operation instead of spinning in view changes

  bool operator==(const StateResponseMsg&) const = default;
  std::size_t size_hint() const;
  void write(cdr::Encoder& enc) const;
  static Result<StateResponseMsg> decode(ByteView data);
};

/// An authenticator vector in its wire form: one 24-byte entry per
/// receiver, the receiver's node id (little-endian u64) then its MAC tag. It
/// is a read-only view of received bytes, so decoding allocates nothing;
/// senders append their entries to the frame itself (Frame::seal_tags).
class AuthVector {
 public:
  static constexpr std::size_t kEntrySize = 8 + crypto::kMacTagSize;
  static_assert(kEntrySize == batch::kAuthEntrySize);

  AuthVector() = default;
  /// Entries already in wire form; `wire.size()` is a multiple of kEntrySize.
  explicit AuthVector(BufView wire) : wire_(std::move(wire)) {}

  std::size_t size() const { return wire_.size() / kEntrySize; }
  bool empty() const { return wire_.empty(); }

  /// The entries exactly as they are on the wire.
  ByteView bytes() const { return wire_.bytes(); }

  /// The first entry's tag for `receiver`, if it has one.
  std::optional<crypto::MacTag> find(NodeId receiver) const;

  /// The entries as a view of the received bytes (what a primary carries
  /// into a batch entry).
  const BufView& wire() const { return wire_; }

 private:
  BufView wire_;
};

/// Where an envelope's body starts: after the type octet, seven pad bytes,
/// the sender and the body length.
inline constexpr std::size_t kEnvelopeBodyAt = 20;

/// A received frame, decoded. Exactly one of `auth` / `signature` is
/// present: MAC-authenticated messages carry an authenticator vector with
/// one entry per intended receiver; signed messages carry one signature.
///
/// Wire layout (little-endian CDR): type octet at 0, sender at 8, body
/// length at 16 and the body at 20; then the auth count, 4-aligned; the
/// entries, 8-aligned (no pad when there are none); the signature flag
/// octet and, when set, the signature. Frame writes it.
struct Envelope {
  MsgType type = MsgType::kRequest;
  NodeId sender;
  BufView body;  // zero-copy sub-view of the decoded wire buffer
  AuthVector auth;
  std::optional<crypto::Signature> signature;

  /// Decodes the header at fixed offsets; the body and the authenticator
  /// entries are views of `data`, so no heap memory is allocated.
  static Result<Envelope> decode(const BufView& data);

  /// The receiver's MAC entry, if any.
  std::optional<crypto::MacTag> tag_for(NodeId receiver) const { return auth.find(receiver); }
};

/// A sender's envelope frame, written once into one chunk sized to it:
/// the header, the body (written in place by its write(), or copied when
/// it is already encoded), then the authenticator entries or the
/// signature. body() is the body in place, for the MACs or the signature
/// to cover before the frame is sealed.
class Frame {
 public:
  /// Upper bound on what follows the body: pads, the authenticator count,
  /// `tags` entries, the signature flag and, with `signature`, the
  /// signature.
  static constexpr std::size_t trailer_bound(std::size_t tags, bool signature) {
    return 3 + 4 + (tags == 0 ? 0 : 7 + tags * AuthVector::kEntrySize) + 1 +
           (signature ? crypto::kSignatureSize : 0);
  }

  /// A frame of `msg`, sent by `sender`, with room for `trailer` bytes
  /// after the body (trailer_bound).
  template <typename Msg>
  Frame(NodeId sender, const Msg& msg, std::size_t trailer)
      : Frame(Msg::kType, sender, msg.size_hint() + trailer) {
    const cdr::Encoder::Encapsulation body = enc_.begin_encapsulation();
    msg.write(enc_);
    enc_.end_encapsulation(body);
    body_size_ = enc_.size() - kEnvelopeBodyAt;
  }

  /// A frame whose body is the already-encoded `body`.
  Frame(MsgType type, NodeId sender, ByteView body, std::size_t trailer);

  /// The frame's type; MAC inputs point at it (mac_input).
  const MsgType& type() const { return type_; }

  /// The body, in place; valid until the frame is sealed.
  ByteView body() const { return ByteView(enc_.buffer()).subspan(kEnvelopeBodyAt, body_size_); }

  /// Seals the frame with one authenticator entry per receiver:
  /// `receivers[i]`'s tag is `tags[i]`.
  BufView seal_tags(std::span<const NodeId> receivers, std::span<const crypto::MacTag> tags);

  /// Seals the frame with authenticator entries already in wire form and,
  /// if given, a signature (a relayed or hand-built frame).
  BufView seal_entries(ByteView entries,
                       const std::optional<crypto::Signature>& signature = std::nullopt);

  /// Seals the frame with `signature` over its body.
  BufView seal_signature(const crypto::Signature& signature);

 private:
  /// Writes the header up to the body length; `bound` covers the rest.
  Frame(MsgType type, NodeId sender, std::size_t bound);
  /// Writes the authenticator count and the pad before `count` entries.
  void begin_entries(std::size_t count);
  /// Writes the signature flag and `signature`, if any, and seals.
  BufView finish(const crypto::Signature* signature);

  cdr::Encoder enc_;
  MsgType type_;
  std::size_t body_size_ = 0;
};

}  // namespace itdos::bft
