#include "itdos/smiop_msg.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "itdos/smiop.hpp"  // seal_aad

namespace itdos::core {
namespace {

TEST(SmiopMsgTest, OrderedRoundTrip) {
  OrderedMsg msg;
  msg.conn = ConnectionId(7);
  msg.rid = RequestId(3);
  msg.origin = NodeId(100);
  msg.origin_domain = DomainId(20);
  msg.epoch = KeyEpoch(2);
  msg.sealed_giop = to_bytes("sealed-bytes");
  const auto back = OrderedMsg::decode(msg.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), msg);
  EXPECT_EQ(queue_entry_kind(msg.encode()).value(), QueueEntryKind::kRequest);
}

TEST(SmiopMsgTest, QueueAckRoundTrip) {
  const QueueAckMsg msg{NodeId(4), 123};
  EXPECT_EQ(QueueAckMsg::decode(msg.encode()).value(), msg);
  EXPECT_EQ(queue_entry_kind(msg.encode()).value(), QueueEntryKind::kAck);
}

TEST(SmiopMsgTest, SyncPointRoundTrip) {
  const SyncPointMsg msg{NodeId(55)};
  EXPECT_EQ(SyncPointMsg::decode(msg.encode()).value(), msg);
  EXPECT_EQ(queue_entry_kind(msg.encode()).value(), QueueEntryKind::kSyncPoint);
}

TEST(SmiopMsgTest, CrossKindDecodeRejected) {
  const OrderedMsg ordered{ConnectionId(1), RequestId(1), NodeId(1), DomainId(0),
                           KeyEpoch(1), to_bytes("x")};
  EXPECT_FALSE(QueueAckMsg::decode(ordered.encode()).is_ok());
  EXPECT_FALSE(SyncPointMsg::decode(ordered.encode()).is_ok());
  EXPECT_FALSE(OrderedMsg::decode(QueueAckMsg{NodeId(1), 0}.encode()).is_ok());
}

TEST(SmiopMsgTest, DirectReplyRoundTrip) {
  DirectReplyMsg msg;
  msg.conn = ConnectionId(9);
  msg.rid = RequestId(2);
  msg.element = NodeId(42);
  msg.epoch = KeyEpoch(1);
  msg.sealed_giop = to_bytes("sealed-reply");
  msg.plain_signature.fill(0xbe);
  const auto back = DirectReplyMsg::decode(msg.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), msg);
  EXPECT_EQ(smiop_type(msg.encode()).value(), SmiopType::kDirectReply);
}

TEST(SmiopMsgTest, SignedRegionBindsAllFields) {
  const crypto::Digest digest = crypto::sha256("plain");
  const auto base = DirectReplyMsg::signed_region(ConnectionId(1), RequestId(2),
                                                   NodeId(3), KeyEpoch(4), digest);
  EXPECT_NE(base, DirectReplyMsg::signed_region(ConnectionId(9), RequestId(2),
                                                NodeId(3), KeyEpoch(4), digest));
  EXPECT_NE(base, DirectReplyMsg::signed_region(ConnectionId(1), RequestId(9),
                                                NodeId(3), KeyEpoch(4), digest));
  EXPECT_NE(base, DirectReplyMsg::signed_region(ConnectionId(1), RequestId(2),
                                                NodeId(9), KeyEpoch(4), digest));
  EXPECT_NE(base, DirectReplyMsg::signed_region(ConnectionId(1), RequestId(2),
                                                NodeId(3), KeyEpoch(9), digest));
  EXPECT_NE(base, DirectReplyMsg::signed_region(ConnectionId(1), RequestId(2),
                                                NodeId(3), KeyEpoch(4),
                                                crypto::sha256("other")));
}

TEST(SmiopMsgTest, KeyShareRoundTrip) {
  KeyShareMsg msg;
  msg.conn = ConnectionId(5);
  msg.epoch = KeyEpoch(3);
  msg.target_domain = DomainId(10);
  msg.client_node = NodeId(900);
  msg.client_domain = DomainId(0);
  msg.gm_index = 2;
  msg.sealed_share = to_bytes("sealed-share");
  EXPECT_EQ(KeyShareMsg::decode(msg.encode()).value(), msg);
  EXPECT_EQ(smiop_type(msg.encode()).value(), SmiopType::kKeyShare);
}

TEST(SmiopMsgTest, StateBundleRoundTrip) {
  StateBundleMsg msg;
  msg.domain = DomainId(10);
  msg.element = NodeId(42);
  msg.consumed_index = 77;
  msg.sealed_bundle = to_bytes("sealed-bundle");
  EXPECT_EQ(StateBundleMsg::decode(msg.encode()).value(), msg);
  EXPECT_EQ(smiop_type(msg.encode()).value(), SmiopType::kStateBundle);
}

TEST(SmiopMsgTest, ParsesAsSmiopRejectsBftEnvelopeTags) {
  // bft::MsgType::kPrepare == 3 == SmiopType::kStateBundle: a shallow tag
  // check would confuse them; full parsing must not.
  Bytes fake{0x03, 0xff, 0xff};
  EXPECT_TRUE(smiop_type(fake).is_ok());       // tag alone looks plausible
  EXPECT_FALSE(parses_as_smiop(fake));          // structure does not
  StateBundleMsg real;
  real.domain = DomainId(1);
  real.element = NodeId(1);
  real.sealed_bundle = to_bytes("x");
  EXPECT_TRUE(parses_as_smiop(real.encode()));
}

TEST(SmiopMsgTest, GmCommandRoundTrips) {
  OpenRequestMsg open;
  open.client_node = NodeId(900);
  open.client_domain = DomainId(0);
  open.target = DomainId(10);
  auto open_back = decode_gm_command(encode_gm_command(GmCommand(open)));
  ASSERT_TRUE(open_back.is_ok());
  EXPECT_EQ(std::get<OpenRequestMsg>(open_back.value()), open);

  ResendSharesMsg resend;
  resend.conn = ConnectionId(3);
  resend.requester = NodeId(901);
  auto resend_back = decode_gm_command(encode_gm_command(GmCommand(resend)));
  ASSERT_TRUE(resend_back.is_ok());
  EXPECT_EQ(std::get<ResendSharesMsg>(resend_back.value()), resend);

  ChangeRequestMsg change;
  change.reporter = NodeId(900);
  change.reporter_domain = DomainId(0);
  change.accused_domain = DomainId(10);
  change.accused_element = NodeId(42);
  change.conn = ConnectionId(3);
  change.rid = RequestId(8);
  ProofEntry entry;
  entry.element = NodeId(42);
  entry.epoch = KeyEpoch(1);
  entry.plain_giop = to_bytes("giop-reply");
  entry.signature.fill(0x1a);
  change.proof.push_back(entry);
  auto change_back = decode_gm_command(encode_gm_command(GmCommand(change)));
  ASSERT_TRUE(change_back.is_ok());
  EXPECT_EQ(std::get<ChangeRequestMsg>(change_back.value()), change);
}

TEST(SmiopMsgTest, GmCommandResultRoundTrip) {
  GmCommandResult result;
  result.accepted = true;
  result.conn = ConnectionId(12);
  result.epoch = KeyEpoch(2);
  result.detail = "expelled";
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, result.size_hint());
  result.write(enc);
  EXPECT_EQ(enc.size(), result.size_hint());
  EXPECT_EQ(GmCommandResult::decode(enc.buffer()).value(), result);
}

TEST(SmiopMsgTest, FuzzedMessagesNeverCrash) {
  OrderedMsg ordered;
  ordered.conn = ConnectionId(1);
  ordered.rid = RequestId(1);
  ordered.origin = NodeId(1);
  ordered.epoch = KeyEpoch(1);
  ordered.sealed_giop = to_bytes("payload-bytes-here");
  DirectReplyMsg reply;
  reply.conn = ConnectionId(1);
  reply.rid = RequestId(1);
  reply.element = NodeId(1);
  reply.epoch = KeyEpoch(1);
  reply.sealed_giop = to_bytes("reply-bytes");
  const std::vector<Bytes> bases = {ordered.encode().clone_bytes(), reply.encode().clone_bytes(),
                                    encode_gm_command(GmCommand(OpenRequestMsg{}))};
  Rng rng(404);
  for (const Bytes& base : bases) {
    for (int trial = 0; trial < 500; ++trial) {
      Bytes mutated = base;
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
      if (rng.chance(0.3) && mutated.size() > 1) mutated.pop_back();
      const BufView view(std::move(mutated));
      (void)OrderedMsg::decode(view);
      (void)DirectReplyMsg::decode(view);
      (void)decode_gm_command(view);
      (void)parses_as_smiop(view);
    }
  }
}

TEST(SmiopMsgTest, SealAadDirectionality) {
  const SealAad request_aad = seal_aad(ConnectionId(1), RequestId(1), KeyEpoch(1), false);
  const SealAad reply_aad = seal_aad(ConnectionId(1), RequestId(1), KeyEpoch(1), true);
  EXPECT_NE(request_aad, reply_aad);  // reflection protection
  EXPECT_NE(request_aad, seal_aad(ConnectionId(2), RequestId(1), KeyEpoch(1), false));
  EXPECT_NE(request_aad, seal_aad(ConnectionId(1), RequestId(2), KeyEpoch(1), false));
  EXPECT_NE(request_aad, seal_aad(ConnectionId(1), RequestId(1), KeyEpoch(2), false));
}

TEST(SmiopMsgTest, StackLayoutsAreTheirCdrEncodings) {
  // The AAD and the signed region are built on the stack; their bytes are
  // the little-endian CDR of their fields, as every sealed frame and reply
  // signature so far was computed over.
  cdr::Encoder aad(cdr::ByteOrder::kLittleEndian);
  aad.write_uint64(0x0102030405060708);
  aad.write_uint64(0x1112131415161718);
  aad.write_uint64(0x2122232425262728);
  aad.write_boolean(true);
  const SealAad stack_aad = seal_aad(ConnectionId(0x0102030405060708),
                                     RequestId(0x1112131415161718),
                                     KeyEpoch(0x2122232425262728), true);
  EXPECT_EQ(Bytes(stack_aad), aad.take());

  const crypto::Digest digest = crypto::sha256("plain");
  cdr::Encoder region(cdr::ByteOrder::kLittleEndian);
  region.write_uint64(1);
  region.write_uint64(0x0a0b0c0d0e0f1011);
  region.write_uint64(3);
  region.write_uint64(4);
  region.write_raw(crypto::digest_view(digest));
  const auto stack_region = DirectReplyMsg::signed_region(
      ConnectionId(1), RequestId(0x0a0b0c0d0e0f1011), NodeId(3), KeyEpoch(4), digest);
  EXPECT_EQ(Bytes(stack_region.begin(), stack_region.end()), region.take());
}

}  // namespace
}  // namespace itdos::core
