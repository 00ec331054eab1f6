#include "itdos/smiop_msg.hpp"

#include "crypto/sha256.hpp"

namespace itdos::core {

namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

void write_signature(cdr::Encoder& enc, const crypto::Signature& s) {
  enc.write_raw(ByteView(s.data(), s.size()));
}

Status check_exhausted(const cdr::Decoder& dec, const char* what) {
  if (!dec.exhausted()) {
    return error(Errc::kMalformedMessage, std::string("trailing bytes in ") + what);
  }
  return Status::ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Queue entries
// ---------------------------------------------------------------------------

Result<QueueEntryKind> queue_entry_kind(ByteView data) {
  if (data.empty()) return error(Errc::kMalformedMessage, "empty queue entry");
  if (data[0] < static_cast<std::uint8_t>(QueueEntryKind::kRequest) ||
      data[0] > static_cast<std::uint8_t>(QueueEntryKind::kSyncPoint)) {
    return error(Errc::kMalformedMessage, "unknown queue entry kind");
  }
  return static_cast<QueueEntryKind>(data[0]);
}

BufView SyncPointMsg::encode() const {
  cdr::Encoder enc(kWire, 16);
  enc.write_octet(static_cast<std::uint8_t>(QueueEntryKind::kSyncPoint));
  enc.write_uint64(requester.value);
  return enc.take_view();
}

Result<SyncPointMsg> SyncPointMsg::decode(ByteView data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t kind, dec.read_octet());
  if (kind != static_cast<std::uint8_t>(QueueEntryKind::kSyncPoint)) {
    return error(Errc::kMalformedMessage, "not a sync point entry");
  }
  SyncPointMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t requester, dec.read_uint64());
  msg.requester = NodeId(requester);
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "SyncPointMsg"));
  return msg;
}

BufView OrderedMsg::encode() const {
  cdr::Encoder enc(kWire, 52 + sealed_giop.size());
  enc.write_octet(static_cast<std::uint8_t>(QueueEntryKind::kRequest));
  enc.write_uint64(conn.value);
  enc.write_uint64(rid.value);
  enc.write_uint64(origin.value);
  enc.write_uint64(origin_domain.value);
  enc.write_uint64(epoch.value);
  enc.write_bytes(sealed_giop);
  return enc.take_view();
}

Result<OrderedMsg> OrderedMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t kind, dec.read_octet());
  if (kind != static_cast<std::uint8_t>(QueueEntryKind::kRequest)) {
    return error(Errc::kMalformedMessage, "not a request queue entry");
  }
  OrderedMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
  msg.conn = ConnectionId(conn);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
  msg.rid = RequestId(rid);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t origin, dec.read_uint64());
  msg.origin = NodeId(origin);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t origin_domain, dec.read_uint64());
  msg.origin_domain = DomainId(origin_domain);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t epoch, dec.read_uint64());
  msg.epoch = KeyEpoch(epoch);
  ITDOS_ASSIGN_OR_RETURN(msg.sealed_giop, dec.read_bytes_view());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "OrderedMsg"));
  return msg;
}

BufView QueueAckMsg::encode() const {
  cdr::Encoder enc(kWire, 24);
  enc.write_octet(static_cast<std::uint8_t>(QueueEntryKind::kAck));
  enc.write_uint64(element.value);
  enc.write_uint64(consumed_index);
  return enc.take_view();
}

Result<QueueAckMsg> QueueAckMsg::decode(ByteView data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t kind, dec.read_octet());
  if (kind != static_cast<std::uint8_t>(QueueEntryKind::kAck)) {
    return error(Errc::kMalformedMessage, "not an ack queue entry");
  }
  QueueAckMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
  msg.element = NodeId(element);
  ITDOS_ASSIGN_OR_RETURN(msg.consumed_index, dec.read_uint64());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "QueueAckMsg"));
  return msg;
}

// ---------------------------------------------------------------------------
// Direct SMIOP messages
// ---------------------------------------------------------------------------

Result<SmiopType> smiop_type(ByteView data) {
  if (data.empty()) return error(Errc::kMalformedMessage, "empty SMIOP message");
  if (data[0] != static_cast<std::uint8_t>(SmiopType::kDirectReply) &&
      data[0] != static_cast<std::uint8_t>(SmiopType::kKeyShare) &&
      data[0] != static_cast<std::uint8_t>(SmiopType::kStateBundle)) {
    return error(Errc::kMalformedMessage, "unknown SMIOP message type");
  }
  return static_cast<SmiopType>(data[0]);
}

bool parses_as_smiop(ByteView data) {
  const Result<SmiopType> type = smiop_type(data);
  if (!type.is_ok()) return false;
  // Validation only: the decoded views never outlive this scope, so a
  // non-owning borrow avoids copying the payload.
  const BufView scoped = BufView::borrow(data);
  switch (type.value()) {
    case SmiopType::kDirectReply: return DirectReplyMsg::decode(scoped).is_ok();
    case SmiopType::kKeyShare: return KeyShareMsg::decode(scoped).is_ok();
    case SmiopType::kStateBundle: return StateBundleMsg::decode(scoped).is_ok();
  }
  return false;
}

BufView StateBundleMsg::encode() const {
  cdr::Encoder enc(kWire, 36 + sealed_bundle.size());
  enc.write_octet(static_cast<std::uint8_t>(SmiopType::kStateBundle));
  enc.write_uint64(domain.value);
  enc.write_uint64(element.value);
  enc.write_uint64(consumed_index);
  enc.write_bytes(sealed_bundle);
  return enc.take_view();
}

Result<StateBundleMsg> StateBundleMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t type, dec.read_octet());
  if (type != static_cast<std::uint8_t>(SmiopType::kStateBundle)) {
    return error(Errc::kMalformedMessage, "not a StateBundle");
  }
  StateBundleMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t domain, dec.read_uint64());
  msg.domain = DomainId(domain);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
  msg.element = NodeId(element);
  ITDOS_ASSIGN_OR_RETURN(msg.consumed_index, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(msg.sealed_bundle, dec.read_bytes_view());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "StateBundleMsg"));
  return msg;
}

DirectReplyMsg::SignedRegion DirectReplyMsg::signed_region(ConnectionId conn, RequestId rid,
                                                           NodeId element, KeyEpoch epoch,
                                                           const crypto::Digest& plain_digest) {
  SignedRegion region;
  cdr::detail::store_le64(region.data(), conn.value);
  cdr::detail::store_le64(region.data() + 8, rid.value);
  cdr::detail::store_le64(region.data() + 16, element.value);
  cdr::detail::store_le64(region.data() + 24, epoch.value);
  std::copy(plain_digest.begin(), plain_digest.end(), region.begin() + 32);
  return region;
}

BufView DirectReplyMsg::encode() const {
  cdr::Encoder enc(kWire, 44 + sealed_giop.size() + crypto::kSignatureSize);
  enc.write_octet(static_cast<std::uint8_t>(SmiopType::kDirectReply));
  enc.write_uint64(conn.value);
  enc.write_uint64(rid.value);
  enc.write_uint64(element.value);
  enc.write_uint64(epoch.value);
  enc.write_bytes(sealed_giop);
  write_signature(enc, plain_signature);
  return enc.take_view();
}

Result<DirectReplyMsg> DirectReplyMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t type, dec.read_octet());
  if (type != static_cast<std::uint8_t>(SmiopType::kDirectReply)) {
    return error(Errc::kMalformedMessage, "not a DirectReply");
  }
  DirectReplyMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
  msg.conn = ConnectionId(conn);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
  msg.rid = RequestId(rid);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
  msg.element = NodeId(element);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t epoch, dec.read_uint64());
  msg.epoch = KeyEpoch(epoch);
  ITDOS_ASSIGN_OR_RETURN(msg.sealed_giop, dec.read_bytes_view());
  ITDOS_ASSIGN_OR_RETURN(msg.plain_signature, dec.read_array<crypto::kSignatureSize>());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "DirectReplyMsg"));
  return msg;
}

BufView KeyShareMsg::encode() const {
  cdr::Encoder enc(kWire, 68 + sealed_share.size());
  enc.write_octet(static_cast<std::uint8_t>(SmiopType::kKeyShare));
  enc.write_uint64(conn.value);
  enc.write_uint64(epoch.value);
  enc.write_uint64(target_domain.value);
  enc.write_uint64(client_node.value);
  enc.write_uint64(client_domain.value);
  enc.write_uint32(gm_index);
  enc.write_uint64(member_epoch);
  enc.write_bytes(sealed_share);
  return enc.take_view();
}

Bytes KeyShareMsg::framing_aad() const {
  cdr::Encoder enc(kWire);
  enc.write_uint64(conn.value);
  enc.write_uint64(epoch.value);
  enc.write_uint64(target_domain.value);
  enc.write_uint64(client_node.value);
  enc.write_uint64(client_domain.value);
  enc.write_uint32(gm_index);
  enc.write_uint64(member_epoch);
  return enc.take();
}

Result<KeyShareMsg> KeyShareMsg::decode(const BufView& data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t type, dec.read_octet());
  if (type != static_cast<std::uint8_t>(SmiopType::kKeyShare)) {
    return error(Errc::kMalformedMessage, "not a KeyShare");
  }
  KeyShareMsg msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
  msg.conn = ConnectionId(conn);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t epoch, dec.read_uint64());
  msg.epoch = KeyEpoch(epoch);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t target, dec.read_uint64());
  msg.target_domain = DomainId(target);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t client_node, dec.read_uint64());
  msg.client_node = NodeId(client_node);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t client_domain, dec.read_uint64());
  msg.client_domain = DomainId(client_domain);
  ITDOS_ASSIGN_OR_RETURN(msg.gm_index, dec.read_uint32());
  ITDOS_ASSIGN_OR_RETURN(msg.member_epoch, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(msg.sealed_share, dec.read_bytes_view());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "KeyShareMsg"));
  return msg;
}

// ---------------------------------------------------------------------------
// Group Manager commands
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint8_t kCmdOpen = 1;
constexpr std::uint8_t kCmdChange = 2;
constexpr std::uint8_t kCmdResend = 3;
constexpr std::uint8_t kCmdMembership = 4;
constexpr std::uint8_t kCmdSetPolicy = 5;
}  // namespace

Bytes encode_gm_command(const GmCommand& cmd) {
  // 64 bytes hold every fixed-size command; a change request adds its
  // proof entries (pad, element, epoch, length, reply bytes, signature).
  std::size_t bound = 64;
  if (const auto* change = std::get_if<ChangeRequestMsg>(&cmd)) {
    for (const ProofEntry& entry : change->proof) {
      bound += 7 + 20 + entry.plain_giop.size() + crypto::kSignatureSize;
    }
  }
  cdr::Encoder enc(kWire, bound);
  if (std::holds_alternative<OpenRequestMsg>(cmd)) {
    const auto& open = std::get<OpenRequestMsg>(cmd);
    enc.write_octet(kCmdOpen);
    enc.write_uint64(open.client_node.value);
    enc.write_uint64(open.client_domain.value);
    enc.write_uint64(open.target.value);
  } else if (std::holds_alternative<ResendSharesMsg>(cmd)) {
    const auto& resend = std::get<ResendSharesMsg>(cmd);
    enc.write_octet(kCmdResend);
    enc.write_uint64(resend.conn.value);
    enc.write_uint64(resend.requester.value);
  } else if (std::holds_alternative<MembershipUpdateMsg>(cmd)) {
    const auto& update = std::get<MembershipUpdateMsg>(cmd);
    enc.write_octet(kCmdMembership);
    enc.write_uint64(update.domain.value);
    enc.write_uint32(update.rank);
    enc.write_uint64(update.retired_element.value);
    enc.write_uint64(update.admitted_element.value);
    enc.write_uint64(update.admitted_gm_client.value);
    enc.write_uint64(update.admitted_self_client.value);
    enc.write_uint64(update.expected_epoch);
  } else if (std::holds_alternative<SetResponsePolicyMsg>(cmd)) {
    const auto& policy = std::get<SetResponsePolicyMsg>(cmd);
    enc.write_octet(kCmdSetPolicy);
    enc.write_uint64(policy.laggard_strikes);
  } else {
    const auto& change = std::get<ChangeRequestMsg>(cmd);
    enc.write_octet(kCmdChange);
    enc.write_uint64(change.reporter.value);
    enc.write_uint64(change.reporter_domain.value);
    enc.write_uint64(change.accused_domain.value);
    enc.write_uint64(change.accused_element.value);
    enc.write_uint64(change.conn.value);
    enc.write_uint64(change.rid.value);
    enc.write_uint32(static_cast<std::uint32_t>(change.proof.size()));
    for (const ProofEntry& entry : change.proof) {
      enc.write_uint64(entry.element.value);
      enc.write_uint64(entry.epoch.value);
      enc.write_bytes(entry.plain_giop);
      write_signature(enc, entry.signature);
    }
  }
  return enc.take();
}

Result<GmCommand> decode_gm_command(ByteView data) {
  cdr::Decoder dec(data, kWire);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t tag, dec.read_octet());
  if (tag == kCmdOpen) {
    OpenRequestMsg open;
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t client_node, dec.read_uint64());
    open.client_node = NodeId(client_node);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t client_domain, dec.read_uint64());
    open.client_domain = DomainId(client_domain);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t target, dec.read_uint64());
    open.target = DomainId(target);
    ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "OpenRequestMsg"));
    return GmCommand(open);
  }
  if (tag == kCmdChange) {
    ChangeRequestMsg change;
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t reporter, dec.read_uint64());
    change.reporter = NodeId(reporter);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t reporter_domain, dec.read_uint64());
    change.reporter_domain = DomainId(reporter_domain);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t accused_domain, dec.read_uint64());
    change.accused_domain = DomainId(accused_domain);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t accused_element, dec.read_uint64());
    change.accused_element = NodeId(accused_element);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
    change.conn = ConnectionId(conn);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
    change.rid = RequestId(rid);
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t count, dec.read_uint32());
    if (count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile proof count");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      ProofEntry entry;
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
      entry.element = NodeId(element);
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t epoch, dec.read_uint64());
      entry.epoch = KeyEpoch(epoch);
      ITDOS_ASSIGN_OR_RETURN(entry.plain_giop, dec.read_bytes());
      ITDOS_ASSIGN_OR_RETURN(entry.signature, dec.read_array<crypto::kSignatureSize>());
      change.proof.push_back(std::move(entry));
    }
    ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "ChangeRequestMsg"));
    return GmCommand(std::move(change));
  }
  if (tag == kCmdResend) {
    ResendSharesMsg resend;
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
    resend.conn = ConnectionId(conn);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t requester, dec.read_uint64());
    resend.requester = NodeId(requester);
    ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "ResendSharesMsg"));
    return GmCommand(resend);
  }
  if (tag == kCmdMembership) {
    MembershipUpdateMsg update;
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t domain, dec.read_uint64());
    update.domain = DomainId(domain);
    ITDOS_ASSIGN_OR_RETURN(update.rank, dec.read_uint32());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t retired, dec.read_uint64());
    update.retired_element = NodeId(retired);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t admitted, dec.read_uint64());
    update.admitted_element = NodeId(admitted);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t gm_client, dec.read_uint64());
    update.admitted_gm_client = NodeId(gm_client);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t self_client, dec.read_uint64());
    update.admitted_self_client = NodeId(self_client);
    ITDOS_ASSIGN_OR_RETURN(update.expected_epoch, dec.read_uint64());
    ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "MembershipUpdateMsg"));
    return GmCommand(update);
  }
  if (tag == kCmdSetPolicy) {
    SetResponsePolicyMsg policy;
    ITDOS_ASSIGN_OR_RETURN(policy.laggard_strikes, dec.read_uint64());
    ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "SetResponsePolicyMsg"));
    return GmCommand(policy);
  }
  return error(Errc::kMalformedMessage, "unknown GM command tag");
}

void GmCommandResult::write(cdr::Encoder& enc) const {
  enc.write_boolean(accepted);
  enc.write_uint64(conn.value);
  enc.write_uint64(epoch.value);
  enc.write_string(detail);
}

Result<GmCommandResult> GmCommandResult::decode(ByteView data) {
  cdr::Decoder dec(data, kWire);
  GmCommandResult result;
  ITDOS_ASSIGN_OR_RETURN(result.accepted, dec.read_boolean());
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
  result.conn = ConnectionId(conn);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t epoch, dec.read_uint64());
  result.epoch = KeyEpoch(epoch);
  ITDOS_ASSIGN_OR_RETURN(result.detail, dec.read_string());
  ITDOS_RETURN_IF_ERROR(check_exhausted(dec, "GmCommandResult"));
  return result;
}

}  // namespace itdos::core
