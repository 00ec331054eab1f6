#include "bft/messages.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.hpp"

namespace itdos::bft {

namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

// An authenticator entry: node id then MAC tag.
constexpr std::size_t kAuthEntrySize = 8 + crypto::kMacTagSize;

void write_digest(cdr::Encoder& enc, const Digest& d) {
  enc.write_raw(crypto::digest_view(d));
}

void write_mac_tag(cdr::Encoder& enc, const crypto::MacTag& t) {
  enc.write_raw(ByteView(t.data(), t.size()));
}

void write_signature(cdr::Encoder& enc, const crypto::Signature& s) {
  enc.write_raw(ByteView(s.data(), s.size()));
}

Result<Digest> read_digest(cdr::Decoder& dec) { return dec.read_array<crypto::kDigestSize>(); }

/// The little-endian u64 at `at` in a body whose size was checked.
std::uint64_t load_le64(ByteView data, std::size_t at) {
  const std::uint8_t* p = data.data() + at;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

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

Bytes RequestMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(client.value);
  enc.write_uint64(timestamp);
  enc.write_bytes(payload);
  return enc.take();
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

Bytes PrePrepareMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(view.value);
  enc.write_uint64(seq.value);
  write_digest(enc, req_digest);
  enc.write_bytes(request);
  return enc.take();
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

Digest proposal_digest(ByteView request) { return crypto::sha256(request); }

ByteView authenticated_region(MsgType type, ByteView body) {
  if (type != MsgType::kPrePrepare) return body;
  return body.first(std::min(body.size(), kPrePrepareHeaderSize));
}

std::array<ByteView, 2> mac_input(const MsgType& type, ByteView body) {
  static_assert(sizeof(MsgType) == 1);
  return {ByteView(reinterpret_cast<const std::uint8_t*>(&type), 1),
          authenticated_region(type, body)};
}

namespace {
/// PREPARE and COMMIT share a body shape.
template <typename T>
Bytes encode_phase(const T& msg) {
  cdr::Encoder enc(kWire);
  enc.write_uint64(msg.view.value);
  enc.write_uint64(msg.seq.value);
  write_digest(enc, msg.req_digest);
  enc.write_uint64(msg.replica.value);
  return enc.take();
}

// PREPARE and COMMIT bodies have one fixed layout, every field already
// 8-aligned: view at 0, seq at 8, digest at 16, replica at 48.
constexpr std::size_t kPhaseSize = 56;

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

Bytes PrepareMsg::encode() const { return encode_phase(*this); }
Result<PrepareMsg> PrepareMsg::decode(ByteView data) {
  return decode_phase<PrepareMsg>(data, "PREPARE");
}

Bytes CommitMsg::encode() const { return encode_phase(*this); }
Result<CommitMsg> CommitMsg::decode(ByteView data) {
  return decode_phase<CommitMsg>(data, "COMMIT");
}

Bytes ReplyMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(view.value);
  enc.write_uint64(timestamp);
  enc.write_uint64(client.value);
  enc.write_uint64(replica.value);
  enc.write_bytes(result);
  return enc.take();
}

Result<ReplyMsg> ReplyMsg::decode(ByteView data) {
  cdr::Decoder dec(data, kWire);
  ReplyMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t view, dec.read_uint64());
  msg.view = ViewId(view);
  ITDOS_ASSIGN_OR_RETURN(msg.timestamp, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t client, dec.read_uint64());
  msg.client = NodeId(client);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t replica, dec.read_uint64());
  msg.replica = NodeId(replica);
  ITDOS_ASSIGN_OR_RETURN(msg.result, dec.read_bytes());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "REPLY"));
  return msg;
}

Bytes CheckpointMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(seq.value);
  write_digest(enc, state_digest);
  enc.write_uint64(replica.value);
  return enc.take();
}

Result<CheckpointMsg> CheckpointMsg::decode(ByteView data) {
  // Fixed layout: seq at 0, digest at 8, replica at 40.
  constexpr std::size_t kCheckpointSize = 48;
  if (data.size() != kCheckpointSize) {
    return error(Errc::kMalformedMessage, "CHECKPOINT body is not 48 bytes");
  }
  CheckpointMsg msg;
  msg.seq = SeqNum(load_le64(data, 0));
  msg.state_digest = load_digest(data, 8);
  msg.replica = NodeId(load_le64(data, 40));
  return msg;
}

namespace {
void encode_prepared_proof(cdr::Encoder& enc, const PreparedProof& p) {
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

Bytes ViewChangeMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(new_view.value);
  enc.write_uint64(stable_seq.value);
  write_digest(enc, stable_digest);
  enc.write_uint32(static_cast<std::uint32_t>(prepared.size()));
  for (const PreparedProof& p : prepared) encode_prepared_proof(enc, p);
  enc.write_uint64(replica.value);
  return enc.take();
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

Bytes NewViewMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(view.value);
  enc.write_uint32(static_cast<std::uint32_t>(view_changes.size()));
  for (const SignedViewChange& svc : view_changes) {
    enc.write_bytes(svc.msg.encode());
    write_signature(enc, svc.signature);
  }
  enc.write_uint32(static_cast<std::uint32_t>(pre_prepares.size()));
  for (const PrePrepareMsg& pp : pre_prepares) {
    enc.write_bytes(pp.encode());
  }
  enc.write_uint64(primary.value);
  return enc.take();
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

Bytes StateRequestMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(seq.value);
  enc.write_uint64(requester.value);
  return enc.take();
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

Bytes StateResponseMsg::encode() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(seq.value);
  write_digest(enc, state_digest);
  enc.write_bytes(snapshot);
  enc.write_uint64(replica.value);
  enc.write_uint64(view.value);
  return enc.take();
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

BufView Envelope::encode_into(Arena& arena) const {
  // Upper bound on the encoded size, with every alignment pad at its worst:
  // type, pad, sender, body length (pad), body, auth count (pad), then the
  // auth entries of node + tag, whose first node pads to 8 and whose 24-byte
  // stride keeps the rest aligned; the signature flag and signature last.
  const std::size_t auth_bytes = auth.empty() ? 0 : 7 + auth.size() * kAuthEntrySize;
  const std::size_t bound = 1 + 7 + 8 + 3 + 4 + body.size() + 3 + 4 + auth_bytes + 1 +
                            (signature ? crypto::kSignatureSize : 0);
  cdr::Encoder enc(kWire, &arena, bound);
  enc.write_octet(static_cast<std::uint8_t>(type));
  enc.write_uint64(sender.value);
  enc.write_bytes(body);
  enc.write_uint32(static_cast<std::uint32_t>(auth.size()));
  for (const auto& [node, tag] : auth) {
    enc.write_uint64(node.value);
    write_mac_tag(enc, tag);
  }
  enc.write_boolean(signature.has_value());
  if (signature) write_signature(enc, *signature);
  return enc.take_view();
}

Result<Envelope> Envelope::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  Envelope env;
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t type, dec.read_octet());
  if (type < static_cast<std::uint8_t>(MsgType::kRequest) ||
      type > static_cast<std::uint8_t>(MsgType::kStateResponse)) {
    return error(Errc::kMalformedMessage, "unknown BFT message type");
  }
  env.type = static_cast<MsgType>(type);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t sender, dec.read_uint64());
  env.sender = NodeId(sender);
  ITDOS_ASSIGN_OR_RETURN(env.body, dec.read_bytes_view());
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t auth_count, dec.read_uint32());
  // Each entry is 24 bytes on the wire (node id, tag): bound the count by
  // the bytes left before reserving, so a claimed count cannot make an
  // unauthenticated sender's envelope allocate more than it sent.
  if (std::uint64_t{auth_count} * kAuthEntrySize > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile count in envelope");
  }
  env.auth.reserve(auth_count);
  for (std::uint32_t i = 0; i < auth_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t node, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(crypto::MacTag tag, dec.read_array<crypto::kMacTagSize>());
    env.auth.emplace_back(NodeId(node), tag);
  }
  ITDOS_ASSIGN_OR_RETURN(bool has_sig, dec.read_boolean());
  if (has_sig) {
    ITDOS_ASSIGN_OR_RETURN(env.signature, dec.read_array<crypto::kSignatureSize>());
  }
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "envelope"));
  return env;
}

const crypto::MacTag* Envelope::tag_for(NodeId receiver) const {
  for (const auto& [node, tag] : auth) {
    if (node == receiver) return &tag;
  }
  return nullptr;
}

}  // namespace itdos::bft
