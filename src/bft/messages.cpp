#include "bft/messages.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256.hpp"

namespace itdos::bft {

namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

void write_digest(cdr::Encoder& enc, const Digest& d) {
  enc.write_raw(crypto::digest_view(d));
}

void write_signature(cdr::Encoder& enc, const crypto::Signature& s) {
  enc.write_raw(ByteView(s.data(), s.size()));
}

Result<Digest> read_digest(cdr::Decoder& dec) { return dec.read_array<crypto::kDigestSize>(); }

using cdr::detail::load_le32;
using cdr::detail::load_le64;
using cdr::detail::zero_pad;

/// The digest at `at` in a body whose size was checked; one copy, as a
/// Decoder read of the digest would count it.
Digest load_digest(ByteView data, std::size_t at) {
  BufStats::note_copy(crypto::kDigestSize);
  Digest d{};
  std::memcpy(d.data(), data.data() + at, d.size());
  return d;
}

Status check_exhausted(const cdr::Decoder& dec, const char* what) {
  if (!dec.exhausted()) {
    return error(Errc::kMalformedMessage, std::string("trailing bytes in ") + what);
  }
  return Status::ok();
}

/// Guards counted loops against hostile counts that exceed the buffer.
Status check_count(const cdr::Decoder& dec, std::uint32_t count, const char* what) {
  if (count > dec.remaining()) {
    return error(Errc::kMalformedMessage, std::string("hostile count in ") + what);
  }
  return Status::ok();
}

}  // namespace

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kRequest: return "REQUEST";
    case MsgType::kPrePrepare: return "PRE-PREPARE";
    case MsgType::kPrepare: return "PREPARE";
    case MsgType::kCommit: return "COMMIT";
    case MsgType::kReply: return "REPLY";
    case MsgType::kCheckpoint: return "CHECKPOINT";
    case MsgType::kViewChange: return "VIEW-CHANGE";
    case MsgType::kNewView: return "NEW-VIEW";
    case MsgType::kStateRequest: return "STATE-REQ";
    case MsgType::kStateResponse: return "STATE-RESP";
  }
  return "<?>";
}

std::size_t RequestMsg::size_hint() const { return kRequestHeaderSize + payload.size(); }

void RequestMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(client.value);
  enc.write_uint64(timestamp);
  enc.write_bytes(payload);
}

Result<RequestMsg> RequestMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  RequestMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t client, dec.read_uint64());
  msg.client = NodeId(client);
  ITDOS_ASSIGN_OR_RETURN(msg.timestamp, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(msg.payload, dec.read_bytes_view());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "REQUEST"));
  return msg;
}

std::size_t PrePrepareMsg::size_hint() const { return kPrePrepareHeaderSize + request.size(); }

void PrePrepareMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(view.value);
  enc.write_uint64(seq.value);
  write_digest(enc, req_digest);
  enc.write_bytes(request);
}

Result<PrePrepareMsg> PrePrepareMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  PrePrepareMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  msg.view = ViewId(view);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t seq, dec.read_uint64());
  msg.seq = SeqNum(seq);
  ITDOS_ASSIGN_OR_RETURN(msg.req_digest, read_digest(dec));
  ITDOS_ASSIGN_OR_RETURN(msg.request, dec.read_bytes_view());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "PRE-PREPARE"));
  return msg;
}

Digest payload_digest(ByteView request) {
  return crypto::sha256(request.subspan(std::min(request.size(), kRequestHeaderSize)));
}

ProposalDigest::ProposalDigest(std::size_t entries) {
  std::uint8_t count_le[4];
  for (int i = 0; i < 4; ++i) count_le[i] = static_cast<std::uint8_t>(entries >> (8 * i));
  sha_.update(ByteView(count_le, sizeof(count_le)));
}

void ProposalDigest::add(ByteView request, const Digest& payload_digest) {
  // The length first, so the header's extent is fixed by what precedes it
  // and no two framings of the same bytes hash alike.
  std::uint8_t length_le[4];
  for (int i = 0; i < 4; ++i) length_le[i] = static_cast<std::uint8_t>(request.size() >> (8 * i));
  sha_.update(ByteView(length_le, sizeof(length_le)))
      .update(request.first(std::min(request.size(), kRequestHeaderSize)))
      .update(crypto::digest_view(payload_digest));
}

Digest ProposalDigest::finish() { return sha_.finish(); }

Digest proposal_digest(const batch::BatchMsg& batch) {
  ProposalDigest digest(batch.entries.size());
  for (const batch::BatchEntry& entry : batch.entries) {
    digest.add(entry.request, payload_digest(entry.request));
  }
  return digest.finish();
}

ByteView authenticated_region(MsgType type, ByteView body) {
  switch (type) {
    case MsgType::kPrePrepare: return body.first(std::min(body.size(), kPrePrepareHeaderSize));
    case MsgType::kRequest: return body.first(std::min(body.size(), kRequestHeaderSize));
    case MsgType::kPrepare:
    case MsgType::kCommit:
    case MsgType::kReply:
    case MsgType::kCheckpoint:
    case MsgType::kViewChange:
    case MsgType::kNewView:
    case MsgType::kStateRequest:
    case MsgType::kStateResponse:
      break;
  }
  return body;
}

std::array<ByteView, 2> mac_input(const MsgType& type, ByteView body) {
  static_assert(sizeof(MsgType) == 1);
  assert(type != MsgType::kRequest && "a REQUEST authenticates through request_mac_input");
  return {ByteView(reinterpret_cast<const std::uint8_t*>(&type), 1),
          authenticated_region(type, body)};
}

std::array<ByteView, 3> request_mac_input(ByteView body, const Digest& payload_digest) {
  static constexpr MsgType kType = MsgType::kRequest;
  return {ByteView(reinterpret_cast<const std::uint8_t*>(&kType), 1),
          authenticated_region(kType, body), crypto::digest_view(payload_digest)};
}

namespace {
// PREPARE and COMMIT bodies have one fixed layout, every field already
// 8-aligned: view at 0, seq at 8, digest at 16, replica at 48.
constexpr std::size_t kPhaseSize = 56;

template <typename T>
void write_phase(cdr::Encoder& enc, const T& msg) {
  enc.write_uint64(msg.view.value);
  enc.write_uint64(msg.seq.value);
  write_digest(enc, msg.req_digest);
  enc.write_uint64(msg.replica.value);
}

template <typename T>
Result<T> decode_phase(ByteView data, const char* what) {
  if (data.size() != kPhaseSize) {
    return error(Errc::kMalformedMessage, std::string(what) + " body is not 56 bytes");
  }
  T msg;
  msg.view = ViewId(load_le64(data, 0));
  msg.seq = SeqNum(load_le64(data, 8));
  msg.req_digest = load_digest(data, 16);
  msg.replica = NodeId(load_le64(data, 48));
  return msg;
}
}  // namespace

std::size_t PrepareMsg::size_hint() const { return kPhaseSize; }
void PrepareMsg::write(cdr::Encoder& enc) const { write_phase(enc, *this); }
Result<PrepareMsg> PrepareMsg::decode(ByteView data) {
  return decode_phase<PrepareMsg>(data, "PREPARE");
}

std::size_t CommitMsg::size_hint() const { return kPhaseSize; }
void CommitMsg::write(cdr::Encoder& enc) const { write_phase(enc, *this); }
Result<CommitMsg> CommitMsg::decode(ByteView data) {
  return decode_phase<CommitMsg>(data, "COMMIT");
}

std::size_t ReplyMsg::size_hint() const { return 36 + result.size(); }

void ReplyMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(view.value);
  enc.write_uint64(timestamp);
  enc.write_uint64(client.value);
  enc.write_uint64(replica.value);
  enc.write_bytes(result);
}

Result<ReplyMsg> ReplyMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  ReplyMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  msg.view = ViewId(view);
  ITDOS_ASSIGN_OR_RETURN(msg.timestamp, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t client, dec.read_uint64());
  msg.client = NodeId(client);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t replica, dec.read_uint64());
  msg.replica = NodeId(replica);
  ITDOS_ASSIGN_OR_RETURN(msg.result, dec.read_bytes_view());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "REPLY"));
  return msg;
}

namespace {
// A CHECKPOINT body's fixed layout: seq at 0, digest at 8, replica at 40.
constexpr std::size_t kCheckpointSize = 48;
}  // namespace

std::size_t CheckpointMsg::size_hint() const { return kCheckpointSize; }

void CheckpointMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(seq.value);
  write_digest(enc, state_digest);
  enc.write_uint64(replica.value);
}

Result<CheckpointMsg> CheckpointMsg::decode(ByteView data) {
  if (data.size() != kCheckpointSize) {
    return error(Errc::kMalformedMessage, "CHECKPOINT body is not 48 bytes");
  }
  CheckpointMsg msg;
  msg.seq = SeqNum(load_le64(data, 0));
  msg.state_digest = load_digest(data, 8);
  msg.replica = NodeId(load_le64(data, 40));
  return msg;
}

std::optional<PhaseSlot> peek_phase_slot(ByteView body) {
  if (body.size() != kPhaseSize) return std::nullopt;
  return PhaseSlot{ViewId(load_le64(body, 0)), SeqNum(load_le64(body, 8))};
}

std::optional<SeqNum> peek_checkpoint_seq(ByteView body) {
  if (body.size() != kCheckpointSize) return std::nullopt;
  return SeqNum(load_le64(body, 0));
}

std::optional<std::uint64_t> peek_reply_timestamp(ByteView body) {
  if (body.size() < 16) return std::nullopt;
  return load_le64(body, 8);
}

namespace {
void write_prepared_proof(cdr::Encoder& enc, const PreparedProof& p) {
  enc.write_uint64(p.view.value);
  enc.write_uint64(p.seq.value);
  write_digest(enc, p.req_digest);
  enc.write_bytes(p.request);
}

Result<PreparedProof> decode_prepared_proof(cdr::Decoder& dec) {
  PreparedProof p;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  p.view = ViewId(view);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t seq, dec.read_uint64());
  p.seq = SeqNum(seq);
  ITDOS_ASSIGN_OR_RETURN(p.req_digest, read_digest(dec));
  ITDOS_ASSIGN_OR_RETURN(p.request, dec.read_bytes_view());
  return p;
}
}  // namespace

std::size_t ViewChangeMsg::size_hint() const {
  // Header and count, then each proof (padded to 8) and the replica id
  // (padded to 8).
  std::size_t bound = 52 + 7 + 8;
  for (const PreparedProof& p : prepared) bound += 7 + kPrePrepareHeaderSize + p.request.size();
  return bound;
}

void ViewChangeMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(new_view.value);
  enc.write_uint64(stable_seq.value);
  write_digest(enc, stable_digest);
  enc.write_uint32(static_cast<std::uint32_t>(prepared.size()));
  for (const PreparedProof& p : prepared) write_prepared_proof(enc, p);
  enc.write_uint64(replica.value);
}

Result<ViewChangeMsg> ViewChangeMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  ViewChangeMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  msg.new_view = ViewId(view);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t stable, dec.read_uint64());
  msg.stable_seq = SeqNum(stable);
  ITDOS_ASSIGN_OR_RETURN(msg.stable_digest, read_digest(dec));
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t count, dec.read_uint32());
  ITDOS_RETURN_IF_ERROR(check_count(dec, count, "VIEW-CHANGE"));
  msg.prepared.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(PreparedProof p, decode_prepared_proof(dec));
    msg.prepared.push_back(std::move(p));
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t replica, dec.read_uint64());
  msg.replica = NodeId(replica);
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "VIEW-CHANGE"));
  return msg;
}

std::size_t NewViewMsg::size_hint() const {
  // The view, each count with its pad, each nested body with the pad and
  // length before it, and the primary id (padded to 8).
  std::size_t bound = 8 + 4 + 3 + 4 + 7 + 8;
  for (const SignedViewChange& svc : view_changes) {
    bound += 3 + 4 + svc.body.size() + crypto::kSignatureSize;
  }
  for (const PrePrepareMsg& pp : pre_prepares) bound += 3 + 4 + pp.size_hint();
  return bound;
}

void NewViewMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(view.value);
  enc.write_uint32(static_cast<std::uint32_t>(view_changes.size()));
  for (const SignedViewChange& svc : view_changes) {
    enc.write_bytes(svc.body);  // the bytes its sender signed
    write_signature(enc, svc.signature);
  }
  enc.write_uint32(static_cast<std::uint32_t>(pre_prepares.size()));
  for (const PrePrepareMsg& pp : pre_prepares) {
    const cdr::Encoder::Encapsulation body = enc.begin_encapsulation();
    pp.write(enc);
    enc.end_encapsulation(body);
  }
  enc.write_uint64(primary.value);
}

Result<NewViewMsg> NewViewMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  NewViewMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  msg.view = ViewId(view);
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t vc_count, dec.read_uint32());
  ITDOS_RETURN_IF_ERROR(check_count(dec, vc_count, "NEW-VIEW"));
  msg.view_changes.reserve(vc_count);
  for (std::uint32_t i = 0; i < vc_count; ++i) {
    SignedViewChange svc;
    ITDOS_ASSIGN_OR_RETURN(BufView vc_body, dec.read_bytes_view());
    ITDOS_ASSIGN_OR_RETURN(svc.msg, ViewChangeMsg::decode(vc_body));
    svc.body = vc_body;
    ITDOS_ASSIGN_OR_RETURN(svc.signature, dec.read_array<crypto::kSignatureSize>());
    msg.view_changes.push_back(std::move(svc));
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t pp_count, dec.read_uint32());
  ITDOS_RETURN_IF_ERROR(check_count(dec, pp_count, "NEW-VIEW"));
  msg.pre_prepares.reserve(pp_count);
  for (std::uint32_t i = 0; i < pp_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(BufView pp_body, dec.read_bytes_view());
    ITDOS_ASSIGN_OR_RETURN(PrePrepareMsg pp, PrePrepareMsg::decode(pp_body));
    msg.pre_prepares.push_back(std::move(pp));
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t primary, dec.read_uint64());
  msg.primary = NodeId(primary);
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "NEW-VIEW"));
  return msg;
}

std::size_t StateRequestMsg::size_hint() const { return 16; }

void StateRequestMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(seq.value);
  enc.write_uint64(requester.value);
}

Result<StateRequestMsg> StateRequestMsg::decode(ByteView data) {
  cdr::Decoder dec(data, kWire);
  StateRequestMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t seq, dec.read_uint64());
  msg.seq = SeqNum(seq);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t requester, dec.read_uint64());
  msg.requester = NodeId(requester);
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "STATE-REQ"));
  return msg;
}

std::size_t StateResponseMsg::size_hint() const { return 44 + snapshot.size() + 7 + 16; }

void StateResponseMsg::write(cdr::Encoder& enc) const {
  enc.write_uint64(seq.value);
  write_digest(enc, state_digest);
  enc.write_bytes(snapshot);
  enc.write_uint64(replica.value);
  enc.write_uint64(view.value);
}

Result<StateResponseMsg> StateResponseMsg::decode(ByteView data) {
  cdr::Decoder dec(data, kWire);
  StateResponseMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t seq, dec.read_uint64());
  msg.seq = SeqNum(seq);
  ITDOS_ASSIGN_OR_RETURN(msg.state_digest, read_digest(dec));
  ITDOS_ASSIGN_OR_RETURN(msg.snapshot, dec.read_bytes());
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t replica, dec.read_uint64());
  msg.replica = NodeId(replica);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  msg.view = ViewId(view);
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "STATE-RESP"));
  return msg;
}

std::optional<crypto::MacTag> AuthVector::find(NodeId receiver) const {
  const ByteView entries = wire_.bytes();
  for (std::size_t at = 0; at + kEntrySize <= entries.size(); at += kEntrySize) {
    if (load_le64(entries, at) != receiver.value) continue;
    BufStats::note_copy(crypto::kMacTagSize);
    crypto::MacTag tag;
    std::memcpy(tag.data(), entries.data() + at + 8, tag.size());
    return tag;
  }
  return std::nullopt;
}

namespace {
// The envelope's fixed header: the type octet, seven pad bytes, the sender
// and the body length; the body follows at kEnvelopeBodyAt.
constexpr std::size_t kEnvelopeSenderAt = 8;
constexpr std::size_t kEnvelopeLengthAt = 16;
}  // namespace

Result<Envelope> Envelope::decode(const BufView& data) {
  // Accepts exactly what a cdr::Decoder walk of the layout accepts, field by
  // field at fixed offsets, and only with zero alignment pads: no MAC or
  // signature covers the pads, so one envelope has one wire form. Each
  // check names what ran out or what is wrong.
  const auto malformed = [](const char* what) { return error(Errc::kMalformedMessage, what); };
  const std::size_t size = data.size();
  if (size == 0) return malformed("truncated CDR octet");
  const std::uint8_t type = data[0];
  if (type < static_cast<std::uint8_t>(MsgType::kRequest) ||
      type > static_cast<std::uint8_t>(MsgType::kStateResponse)) {
    return malformed("unknown BFT message type");
  }
  if (size < kEnvelopeBodyAt) return malformed("truncated envelope header");
  if (!zero_pad(data, 1, kEnvelopeSenderAt)) return malformed("non-zero envelope padding");
  const std::uint32_t body_len = load_le32(data, kEnvelopeLengthAt);
  if (body_len > size - kEnvelopeBodyAt) return malformed("truncated CDR bytes");
  const std::size_t count_at = cdr::detail::align_up(kEnvelopeBodyAt + body_len, 4);
  if (count_at + 4 > size) return malformed("truncated CDR primitive");
  if (!zero_pad(data, kEnvelopeBodyAt + body_len, count_at)) {
    return malformed("non-zero envelope padding");
  }
  const std::uint32_t auth_count = load_le32(data, count_at);
  std::size_t at = count_at + 4;
  // Each entry is 24 bytes on the wire (node id, tag): bound the count by
  // the bytes left, so a claimed count is refused before anything is read.
  if (std::uint64_t{auth_count} * AuthVector::kEntrySize > size - at) {
    return malformed("hostile count in envelope");
  }
  Envelope env;
  if (auth_count > 0) {
    const std::size_t pad_at = at;
    at = cdr::detail::align_up(at, 8);
    const std::size_t auth_bytes = std::size_t{auth_count} * AuthVector::kEntrySize;
    if (at > size || auth_bytes > size - at) return malformed("truncated CDR bytes");
    if (!zero_pad(data, pad_at, at)) return malformed("non-zero envelope padding");
    env.auth = AuthVector(data.slice(at, auth_bytes));
    at += auth_bytes;
  }
  if (at >= size) return malformed("truncated CDR octet");
  const std::uint8_t has_sig = data[at++];
  if (has_sig > 1) return malformed("CDR boolean out of range");
  if (has_sig == 1) {
    if (size - at < crypto::kSignatureSize) return malformed("truncated CDR bytes");
    BufStats::note_copy(crypto::kSignatureSize);
    crypto::Signature sig;
    std::memcpy(sig.data(), data.data() + at, sig.size());
    env.signature = sig;
    at += crypto::kSignatureSize;
  }
  if (at != size) return malformed("trailing bytes in envelope");
  env.type = static_cast<MsgType>(type);
  env.sender = NodeId(load_le64(data, kEnvelopeSenderAt));
  env.body = data.slice(kEnvelopeBodyAt, body_len);
  return env;
}

Frame::Frame(MsgType type, NodeId sender, std::size_t bound)
    : enc_(kWire, kEnvelopeBodyAt + bound), type_(type) {
  enc_.write_octet(static_cast<std::uint8_t>(type));
  enc_.write_uint64(sender.value);
}

Frame::Frame(MsgType type, NodeId sender, ByteView body, std::size_t trailer)
    : Frame(type, sender, body.size() + trailer) {
  enc_.write_bytes(body);
  body_size_ = body.size();
}

BufView Frame::seal_tags(std::span<const NodeId> receivers,
                         std::span<const crypto::MacTag> tags) {
  assert(receivers.size() == tags.size());
  begin_entries(receivers.size());
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    enc_.write_uint64(receivers[i].value);
    enc_.write_raw(ByteView(tags[i].data(), tags[i].size()));
  }
  return finish(nullptr);
}

BufView Frame::seal_entries(ByteView entries,
                            const std::optional<crypto::Signature>& signature) {
  begin_entries(entries.size() / AuthVector::kEntrySize);
  enc_.write_raw(entries);
  return finish(signature ? &*signature : nullptr);
}

BufView Frame::seal_signature(const crypto::Signature& signature) {
  begin_entries(0);
  return finish(&signature);
}

void Frame::begin_entries(std::size_t count) {
  enc_.write_uint32(static_cast<std::uint32_t>(count));
  if (count > 0) enc_.align(8);
}

BufView Frame::finish(const crypto::Signature* signature) {
  enc_.write_boolean(signature != nullptr);
  if (signature != nullptr) write_signature(enc_, *signature);
  return enc_.take_view();
}

}  // namespace itdos::bft
