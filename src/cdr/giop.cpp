#include "cdr/giop.hpp"

namespace itdos::cdr {

namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};
constexpr std::uint8_t kFlagLittleEndian = 0x01;

void encode_request_body(Encoder& enc, const RequestMessage& msg) {
  enc.write_uint64(msg.request_id.value);
  enc.write_boolean(msg.response_expected);
  enc.write_uint64(msg.object_key.value);
  enc.write_string(msg.operation);
  enc.write_string(msg.interface_name);
  msg.arguments.marshal(enc);
}

void encode_reply_body(Encoder& enc, const ReplyMessage& msg) {
  enc.write_uint64(msg.request_id.value);
  enc.write_octet(static_cast<std::uint8_t>(msg.status));
  enc.write_string(msg.exception_detail);
  msg.result.marshal(enc);
}

Result<RequestMessage> parse_request_body(Decoder& dec) {
  RequestMessage msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
  msg.request_id = RequestId(rid);
  ITDOS_ASSIGN_OR_RETURN(msg.response_expected, dec.read_boolean());
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t key, dec.read_uint64());
  msg.object_key = ObjectId(key);
  ITDOS_ASSIGN_OR_RETURN(msg.operation, dec.read_string());
  ITDOS_ASSIGN_OR_RETURN(msg.interface_name, dec.read_string());
  ITDOS_ASSIGN_OR_RETURN(msg.arguments, Value::unmarshal(dec));
  return msg;
}

Result<ReplyMessage> parse_reply_body(Decoder& dec) {
  ReplyMessage msg;
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
  msg.request_id = RequestId(rid);
  ITDOS_ASSIGN_OR_RETURN(std::uint8_t status, dec.read_octet());
  if (status > static_cast<std::uint8_t>(ReplyStatus::kSystemException)) {
    return error(Errc::kMalformedMessage, "bad GIOP reply status");
  }
  msg.status = static_cast<ReplyStatus>(status);
  ITDOS_ASSIGN_OR_RETURN(msg.exception_detail, dec.read_string());
  ITDOS_ASSIGN_OR_RETURN(msg.result, Value::unmarshal(dec));
  return msg;
}

}  // namespace

GiopMsgType giop_type(const GiopMessage& msg) {
  switch (msg.index()) {
    case 0: return GiopMsgType::kRequest;
    case 1: return GiopMsgType::kReply;
    case 2: return GiopMsgType::kCancelRequest;
    default: return GiopMsgType::kCloseConnection;
  }
}

std::string_view giop_type_name(GiopMsgType t) {
  switch (t) {
    case GiopMsgType::kRequest: return "Request";
    case GiopMsgType::kReply: return "Reply";
    case GiopMsgType::kCancelRequest: return "CancelRequest";
    case GiopMsgType::kCloseConnection: return "CloseConnection";
    case GiopMsgType::kMessageError: return "MessageError";
  }
  return "<?>";
}

Bytes encode_giop(const GiopMessage& msg, ByteOrder order) {
  Encoder body(order);
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RequestMessage>) {
          encode_request_body(body, m);
        } else if constexpr (std::is_same_v<T, ReplyMessage>) {
          encode_reply_body(body, m);
        } else if constexpr (std::is_same_v<T, CancelRequestMessage>) {
          body.write_uint64(m.request_id.value);
        } else {
          // CloseConnection has an empty body.
        }
      },
      msg);

  Encoder out(order, kGiopHeaderSize + body.size());
  out.write_raw(ByteView(kMagic, 4));
  out.write_octet(kGiopVersionMajor);
  out.write_octet(kGiopVersionMinor);
  out.write_octet(order == ByteOrder::kLittleEndian ? kFlagLittleEndian : 0);
  out.write_octet(static_cast<std::uint8_t>(giop_type(msg)));
  out.write_uint32(static_cast<std::uint32_t>(body.size()));
  out.write_raw(body.buffer());
  return out.take();
}

Result<ByteOrder> giop_byte_order(ByteView data) {
  if (data.size() < kGiopHeaderSize) {
    return error(Errc::kMalformedMessage, "GIOP message shorter than header");
  }
  return (data[6] & kFlagLittleEndian) ? ByteOrder::kLittleEndian
                                       : ByteOrder::kBigEndian;
}

Result<GiopMessage> parse_giop(ByteView data) {
  if (data.size() < kGiopHeaderSize) {
    return error(Errc::kMalformedMessage, "GIOP message shorter than header");
  }
  for (int i = 0; i < 4; ++i) {
    if (data[i] != kMagic[i]) {
      return error(Errc::kMalformedMessage, "bad GIOP magic");
    }
  }
  if (data[4] != kGiopVersionMajor || data[5] != kGiopVersionMinor) {
    return error(Errc::kMalformedMessage, "unsupported GIOP version");
  }
  const ByteOrder order =
      (data[6] & kFlagLittleEndian) ? ByteOrder::kLittleEndian : ByteOrder::kBigEndian;
  const std::uint8_t msg_type = data[7];

  Decoder header_size_dec(data.subspan(8, 4), order);
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t body_size, header_size_dec.read_uint32());
  if (data.size() != kGiopHeaderSize + body_size) {
    return error(Errc::kMalformedMessage, "GIOP size field mismatch");
  }
  Decoder body(data.subspan(kGiopHeaderSize), order);

  switch (static_cast<GiopMsgType>(msg_type)) {
    case GiopMsgType::kRequest: {
      ITDOS_ASSIGN_OR_RETURN(RequestMessage msg, parse_request_body(body));
      if (!body.exhausted()) {
        return error(Errc::kMalformedMessage, "trailing bytes after GIOP request");
      }
      return GiopMessage(std::move(msg));
    }
    case GiopMsgType::kReply: {
      ITDOS_ASSIGN_OR_RETURN(ReplyMessage msg, parse_reply_body(body));
      if (!body.exhausted()) {
        return error(Errc::kMalformedMessage, "trailing bytes after GIOP reply");
      }
      return GiopMessage(std::move(msg));
    }
    case GiopMsgType::kCancelRequest: {
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, body.read_uint64());
      if (!body.exhausted()) {
        return error(Errc::kMalformedMessage, "trailing bytes after GIOP cancel");
      }
      return GiopMessage(CancelRequestMessage{RequestId(rid)});
    }
    case GiopMsgType::kCloseConnection: {
      if (!body.exhausted()) {
        return error(Errc::kMalformedMessage, "trailing bytes after GIOP close");
      }
      return GiopMessage(CloseConnectionMessage{});
    }
    case GiopMsgType::kMessageError:
      // A peer reporting a protocol error; there is no body to act on and
      // replicated servants never originate one, so surface it as malformed.
      return error(Errc::kMalformedMessage, "peer sent GIOP MessageError");
    default:
      return error(Errc::kMalformedMessage, "unknown GIOP message type");
  }
}

}  // namespace itdos::cdr
