// Pins the wire bytes of every message kind, not just their round trips:
// each case builds one message from fixed fields, marshals it the way a
// sender does and compares the bytes with hex captured from an earlier
// build. A marshal path that moves a field, a pad or an alignment origin
// fails here even when its own decoder still reads it back.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "batch/batch_msg.hpp"
#include "bft/messages.hpp"
#include "crypto/cmac.hpp"
#include "crypto/dprf.hpp"
#include "itdos/smiop_msg.hpp"

namespace itdos::bft {
namespace {

constexpr std::array<NodeId, 2> kReceivers{NodeId(2), NodeId(3)};

Digest filled(std::uint8_t fill) {
  Digest d;
  d.fill(fill);
  return d;
}

crypto::MacTag tag_for(const Frame& frame, std::size_t receiver) {
  const crypto::CmacKey key(Bytes(32, static_cast<std::uint8_t>(0x11 + receiver)));
  if (frame.type() == MsgType::kRequest) {
    const Digest payload = payload_digest(frame.body());
    return key.tag(request_mac_input(frame.body(), payload));
  }
  return key.tag(mac_input(frame.type(), frame.body()));
}

/// `msg` from `sender`, MAC'd for nodes 2 and 3.
template <typename Msg>
BufView mac_frame(const Msg& msg, NodeId sender = NodeId(1)) {
  Frame frame(sender, msg, Frame::trailer_bound(kReceivers.size(), false));
  const std::array<crypto::MacTag, 2> tags{tag_for(frame, 0), tag_for(frame, 1)};
  return frame.seal_tags(kReceivers, tags);
}

/// `msg` from `sender`, signed.
template <typename Msg>
BufView signed_frame(const Msg& msg, NodeId sender = NodeId(1)) {
  Frame frame(sender, msg, Frame::trailer_bound(0, true));
  const crypto::SigningKey key(sender, Bytes(32, 0x22));
  return frame.seal_signature(key.sign(frame.body()));
}

Envelope decoded(const BufView& wire) {
  Result<Envelope> env = Envelope::decode(wire);
  EXPECT_TRUE(env.is_ok());
  return std::move(env).take();
}

RequestMsg request(std::uint64_t timestamp) {
  RequestMsg msg;
  msg.client = NodeId(1000);
  msg.timestamp = timestamp;
  msg.payload = to_bytes("golden-payload-" + std::to_string(timestamp));
  return msg;
}

/// Two client requests, each with its client's tags for nodes 2 and 3.
batch::BatchMsg two_entry_batch() {
  batch::BatchMsg batch;
  for (std::uint64_t ts : {7, 8}) {
    const Envelope env = decoded(mac_frame(request(ts), NodeId(1000)));
    batch.entries.push_back(batch::BatchEntry{env.body, env.auth.wire()});
  }
  return batch;
}

PrePrepareMsg pre_prepare() {
  const batch::BatchMsg batch = two_entry_batch();
  PrePrepareMsg msg;
  msg.view = ViewId(2);
  msg.seq = SeqNum(17);
  msg.req_digest = proposal_digest(batch);
  msg.request = batch.encode();
  return msg;
}

ViewChangeMsg view_change(NodeId replica, bool with_proof) {
  ViewChangeMsg msg;
  msg.new_view = ViewId(3);
  msg.stable_seq = SeqNum(16);
  msg.stable_digest = filled(0x5d);
  msg.replica = replica;
  if (with_proof) {
    const PrePrepareMsg pp = pre_prepare();
    msg.prepared.push_back(PreparedProof{pp.view, pp.seq, pp.req_digest, pp.request});
  }
  return msg;
}

SignedViewChange signed_view_change(NodeId replica, bool with_proof) {
  const Envelope env =
      decoded(signed_frame(view_change(replica, with_proof), replica));
  SignedViewChange svc;
  Result<ViewChangeMsg> msg = ViewChangeMsg::decode(env.body);
  EXPECT_TRUE(msg.is_ok());
  svc.msg = std::move(msg).take();
  svc.body = env.body;
  svc.signature = *env.signature;
  return svc;
}

NewViewMsg new_view() {
  NewViewMsg msg;
  msg.view = ViewId(3);
  msg.primary = NodeId(4);
  msg.view_changes.push_back(signed_view_change(NodeId(2), true));
  msg.view_changes.push_back(signed_view_change(NodeId(4), false));
  PrePrepareMsg carried = pre_prepare();
  carried.view = ViewId(3);
  msg.pre_prepares.push_back(carried);
  PrePrepareMsg null_request;
  null_request.view = ViewId(3);
  null_request.seq = SeqNum(18);
  msg.pre_prepares.push_back(null_request);
  return msg;
}

/// Each body MAC'd and signed, by name.
std::vector<std::pair<std::string, BufView>> bft_frames() {
  std::vector<std::pair<std::string, BufView>> out;
  const auto add = [&](const std::string& name, const auto& msg) {
    out.emplace_back(name + ".mac", mac_frame(msg));
    out.emplace_back(name + ".signed", signed_frame(msg));
  };
  add("request", request(7));
  add("pre_prepare", pre_prepare());
  add("prepare", PrepareMsg{ViewId(2), SeqNum(17), filled(0xd1), NodeId(3)});
  add("commit", CommitMsg{ViewId(2), SeqNum(17), filled(0xc1), NodeId(3)});
  add("reply", ReplyMsg{ViewId(2), 7, NodeId(1000), NodeId(3), to_bytes("OK:1")});
  add("checkpoint", CheckpointMsg{SeqNum(16), filled(0xcc), NodeId(2)});
  add("view_change", view_change(NodeId(1), true));
  add("new_view", new_view());
  add("state_request", StateRequestMsg{SeqNum(17), NodeId(2)});
  add("state_response",
      StateResponseMsg{SeqNum(16), filled(0x5e), to_bytes("snapshot"), NodeId(3), ViewId(2)});
  return out;
}

std::vector<std::pair<std::string, BufView>> smiop_frames() {
  using namespace core;
  std::vector<std::pair<std::string, BufView>> out;
  out.emplace_back("ordered", OrderedMsg{ConnectionId(5), RequestId(6), NodeId(1000),
                                         DomainId(0), KeyEpoch(1), to_bytes("sealed-giop")}
                                  .encode());
  out.emplace_back("queue_ack", QueueAckMsg{NodeId(101), 42}.encode());
  crypto::Signature signature;
  signature.fill(0x5f);
  out.emplace_back("direct_reply", DirectReplyMsg{ConnectionId(5), RequestId(6), NodeId(101),
                                                  KeyEpoch(1), to_bytes("sealed-reply"),
                                                  signature}
                                       .encode());
  out.emplace_back("key_share",
                   KeyShareMsg{ConnectionId(5), KeyEpoch(1), DomainId(2), NodeId(1000),
                               DomainId(0), 1, 3, to_bytes("sealed-share")}
                       .encode());
  out.emplace_back("sync_point", SyncPointMsg{NodeId(105)}.encode());
  out.emplace_back("state_bundle",
                   StateBundleMsg{DomainId(2), NodeId(101), 42, to_bytes("sealed-bundle")}
                       .encode());
  cdr::Encoder result(cdr::ByteOrder::kLittleEndian);
  GmCommandResult{true, ConnectionId(5), KeyEpoch(1), "ok"}.write(result);
  out.emplace_back("gm_result", BufView(result.take()));
  crypto::DprfShare share;
  share.element = 2;
  share.evaluations[1] = filled(0x31);
  share.evaluations[4] = filled(0x34);
  out.emplace_back("dprf_share", share.encode());
  ChangeRequestMsg change{NodeId(1000), DomainId(0), DomainId(2), NodeId(101),
                          ConnectionId(5), RequestId(6), {}};
  change.proof.push_back(ProofEntry{NodeId(101), KeyEpoch(1), to_bytes("plain"), signature});
  const std::vector<std::pair<std::string, GmCommand>> commands{
      {"gm_open", OpenRequestMsg{NodeId(1000), DomainId(0), DomainId(2)}},
      {"gm_change", change},
      {"gm_resend", ResendSharesMsg{ConnectionId(5), NodeId(1000)}},
      {"gm_membership", MembershipUpdateMsg{DomainId(2), 1, NodeId(101), NodeId(201),
                                            NodeId(202), NodeId(203), 3}},
      {"gm_policy", SetResponsePolicyMsg{2}},
  };
  for (const auto& [name, command] : commands) {
    out.emplace_back(name, BufView(encode_gm_command(command)));
  }
  return out;
}

void expect_golden(const std::vector<std::pair<std::string, BufView>>& frames,
                   const std::vector<std::pair<std::string, std::string>>& golden) {
  ASSERT_EQ(frames.size(), golden.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].first, golden[i].first);
    EXPECT_EQ(hex_encode(frames[i].second), golden[i].second) << frames[i].first;
  }
}

TEST(GoldenFramesTest, BftFramesMatchPinnedBytes) {
  expect_golden(bft_frames(), {
      {"request.mac",
       "0100000000000000010000000000000024000000e803000000000000070000000000000010000000"
       "676f6c64656e2d7061796c6f61642d37020000000000000002000000000000007fb5059740e55a21"
       "adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a38d6f2f79bc910c100"},
      {"request.signed",
       "0100000000000000010000000000000024000000e803000000000000070000000000000010000000"
       "676f6c64656e2d7061796c6f61642d3700000000010c5b3f9ccbcdf288c83311a5e9f5bd5d312a0d"
       "531636ca2156a02ca11be16ddd"},
      {"pre_prepare.mac",
       "02000000000000000100000000000000f40000000200000000000000110000000000000075afd951"
       "d353c73093d2919982e4954f4ba8356c0c8333f4aacc4e0a5dfba26fc00000000200000024000000"
       "e803000000000000070000000000000010000000676f6c64656e2d7061796c6f61642d3702000000"
       "02000000000000007fb5059740e55a21adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a"
       "38d6f2f79bc910c124000000e803000000000000080000000000000010000000676f6c64656e2d70"
       "61796c6f61642d3802000000000000000200000000000000ff025aa34470997e40fec5c647a07eac"
       "0300000000000000462fefd0075facf126f1cd572e2e93d002000000000000000200000000000000"
       "0a5719f161b55de3a52f97b620423b550300000000000000e4a8ae3709fa9ca3f754ae11edf2b7f4"
       "00"},
      {"pre_prepare.signed",
       "02000000000000000100000000000000f40000000200000000000000110000000000000075afd951"
       "d353c73093d2919982e4954f4ba8356c0c8333f4aacc4e0a5dfba26fc00000000200000024000000"
       "e803000000000000070000000000000010000000676f6c64656e2d7061796c6f61642d3702000000"
       "02000000000000007fb5059740e55a21adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a"
       "38d6f2f79bc910c124000000e803000000000000080000000000000010000000676f6c64656e2d70"
       "61796c6f61642d3802000000000000000200000000000000ff025aa34470997e40fec5c647a07eac"
       "0300000000000000462fefd0075facf126f1cd572e2e93d000000000012368854847d03bffa1d910"
       "38476ecadc21e5a77562f2b5fa94834cd7839384c4"},
      {"prepare.mac",
       "030000000000000001000000000000003800000002000000000000001100000000000000d1d1d1d1"
       "d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1030000000000000002000000"
       "02000000000000004e8079c0d9bf6901ec9b469f3a4c7e69030000000000000046b2c25f7415183c"
       "d5de8862d707e29200"},
      {"prepare.signed",
       "030000000000000001000000000000003800000002000000000000001100000000000000d1d1d1d1"
       "d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1030000000000000000000000"
       "01d2584a2bfd325ddb64dc8ce33d3746b0126c2de9b595544f9b5ce2e0b817e640"},
      {"commit.mac",
       "040000000000000001000000000000003800000002000000000000001100000000000000c1c1c1c1"
       "c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1030000000000000002000000"
       "020000000000000078768505be05dea874c246a83509327c0300000000000000498710a0c19f0531"
       "46b89977bd89a6ca00"},
      {"commit.signed",
       "040000000000000001000000000000003800000002000000000000001100000000000000c1c1c1c1"
       "c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1030000000000000000000000"
       "01967fa7c2a6b41579de4b65891410be0cd4eafb23609a2c5aa513eb9d7ce3da64"},
      {"reply.mac",
       "050000000000000001000000000000002800000002000000000000000700000000000000e8030000"
       "000000000300000000000000040000004f4b3a3102000000020000000000000024d333aecd38de14"
       "3f7433a9406d2f410300000000000000bc6049dda51523654e2ebcffe88b9d8200"},
      {"reply.signed",
       "050000000000000001000000000000002800000002000000000000000700000000000000e8030000"
       "000000000300000000000000040000004f4b3a310000000001e0558e9dbf0c05448290f280322c70"
       "8d4db043d753c490f6dd5d05aa4ac82339"},
      {"checkpoint.mac",
       "06000000000000000100000000000000300000001000000000000000cccccccccccccccccccccccc"
       "cccccccccccccccccccccccccccccccccccccccc0200000000000000020000000200000000000000"
       "f22b60d1d6194ff3b5e00e5173cc1af0030000000000000061a6a03d1e7786f20d32d90586eb6bed"
       "00"},
      {"checkpoint.signed",
       "06000000000000000100000000000000300000001000000000000000cccccccccccccccccccccccc"
       "cccccccccccccccccccccccccccccccccccccccc02000000000000000000000001b03483642ca1c8"
       "a990f8e018c7fa0c6cf2ce598357220ff534e5a158b6572e0d"},
      {"view_change.mac",
       "0700000000000000010000000000000038010000030000000000000010000000000000005d5d5d5d"
       "5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d010000000000000002000000"
       "00000000110000000000000075afd951d353c73093d2919982e4954f4ba8356c0c8333f4aacc4e0a"
       "5dfba26fc00000000200000024000000e803000000000000070000000000000010000000676f6c64"
       "656e2d7061796c6f61642d370200000002000000000000007fb5059740e55a21adc9fafc37d8ebd4"
       "0300000000000000ff7d66ded393fc1a38d6f2f79bc910c124000000e80300000000000008000000"
       "0000000010000000676f6c64656e2d7061796c6f61642d3802000000000000000200000000000000"
       "ff025aa34470997e40fec5c647a07eac0300000000000000462fefd0075facf126f1cd572e2e93d0"
       "0000000001000000000000000200000002000000000000005b249bb431a57bc26e56932d7f563af3"
       "030000000000000065c506660199184cdfe7f0fcc4db522200"},
      {"view_change.signed",
       "0700000000000000010000000000000038010000030000000000000010000000000000005d5d5d5d"
       "5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d010000000000000002000000"
       "00000000110000000000000075afd951d353c73093d2919982e4954f4ba8356c0c8333f4aacc4e0a"
       "5dfba26fc00000000200000024000000e803000000000000070000000000000010000000676f6c64"
       "656e2d7061796c6f61642d370200000002000000000000007fb5059740e55a21adc9fafc37d8ebd4"
       "0300000000000000ff7d66ded393fc1a38d6f2f79bc910c124000000e80300000000000008000000"
       "0000000010000000676f6c64656e2d7061796c6f61642d3802000000000000000200000000000000"
       "ff025aa34470997e40fec5c647a07eac0300000000000000462fefd0075facf126f1cd572e2e93d0"
       "00000000010000000000000000000000016681052654cd3ebef4e51b98b23a31aa7929ab0f04d924"
       "d241e6af5d138d21b8"},
      {"new_view.mac",
       "08000000000000000100000000000000080300000300000000000000020000003801000003000000"
       "0000000010000000000000005d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d"
       "5d5d5d5d01000000000000000200000000000000110000000000000075afd951d353c73093d29199"
       "82e4954f4ba8356c0c8333f4aacc4e0a5dfba26fc00000000200000024000000e803000000000000"
       "070000000000000010000000676f6c64656e2d7061796c6f61642d37020000000200000000000000"
       "7fb5059740e55a21adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a38d6f2f79bc910c1"
       "24000000e803000000000000080000000000000010000000676f6c64656e2d7061796c6f61642d38"
       "02000000000000000200000000000000ff025aa34470997e40fec5c647a07eac0300000000000000"
       "462fefd0075facf126f1cd572e2e93d00000000002000000000000009b5fc6d0e7bd769b9aa9d431"
       "369f50350f7296ba74d5c8c13bec9862364d61924000000003000000000000001000000000000000"
       "5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d0000000000000000"
       "040000000000000039b73e539bac8d51fb6cf90160cce835a7c17abb57c7dbaf5dd690faa06a40b0"
       "02000000f40000000300000000000000110000000000000075afd951d353c73093d2919982e4954f"
       "4ba8356c0c8333f4aacc4e0a5dfba26fc00000000200000024000000e80300000000000007000000"
       "0000000010000000676f6c64656e2d7061796c6f61642d370200000002000000000000007fb50597"
       "40e55a21adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a38d6f2f79bc910c124000000"
       "e803000000000000080000000000000010000000676f6c64656e2d7061796c6f61642d3802000000"
       "000000000200000000000000ff025aa34470997e40fec5c647a07eac0300000000000000462fefd0"
       "075facf126f1cd572e2e93d034000000030000000000000012000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000040000000000000002000000"
       "0200000000000000d8e52a9c35765db02ac343cd9eeac25b0300000000000000595dc369fdcbac5a"
       "0f19ba30b8f4af1800"},
      {"new_view.signed",
       "08000000000000000100000000000000080300000300000000000000020000003801000003000000"
       "0000000010000000000000005d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d"
       "5d5d5d5d01000000000000000200000000000000110000000000000075afd951d353c73093d29199"
       "82e4954f4ba8356c0c8333f4aacc4e0a5dfba26fc00000000200000024000000e803000000000000"
       "070000000000000010000000676f6c64656e2d7061796c6f61642d37020000000200000000000000"
       "7fb5059740e55a21adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a38d6f2f79bc910c1"
       "24000000e803000000000000080000000000000010000000676f6c64656e2d7061796c6f61642d38"
       "02000000000000000200000000000000ff025aa34470997e40fec5c647a07eac0300000000000000"
       "462fefd0075facf126f1cd572e2e93d00000000002000000000000009b5fc6d0e7bd769b9aa9d431"
       "369f50350f7296ba74d5c8c13bec9862364d61924000000003000000000000001000000000000000"
       "5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d5d0000000000000000"
       "040000000000000039b73e539bac8d51fb6cf90160cce835a7c17abb57c7dbaf5dd690faa06a40b0"
       "02000000f40000000300000000000000110000000000000075afd951d353c73093d2919982e4954f"
       "4ba8356c0c8333f4aacc4e0a5dfba26fc00000000200000024000000e80300000000000007000000"
       "0000000010000000676f6c64656e2d7061796c6f61642d370200000002000000000000007fb50597"
       "40e55a21adc9fafc37d8ebd40300000000000000ff7d66ded393fc1a38d6f2f79bc910c124000000"
       "e803000000000000080000000000000010000000676f6c64656e2d7061796c6f61642d3802000000"
       "000000000200000000000000ff025aa34470997e40fec5c647a07eac0300000000000000462fefd0"
       "075facf126f1cd572e2e93d034000000030000000000000012000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000040000000000000000000000"
       "01450e4fbed4fbe0bef9120c40109efb327c30acd842e4baf0807f2ceabec768bd"},
      {"state_request.mac",
       "09000000000000000100000000000000100000001100000000000000020000000000000002000000"
       "02000000000000005ea16e0ab13cdf791608acf9f25af7e703000000000000008351176f76aa9bc4"
       "3188bb2e390d6f8200"},
      {"state_request.signed",
       "09000000000000000100000000000000100000001100000000000000020000000000000000000000"
       "014c12f1ca2d06981b1588e59eae12f67877ce9c832b48c6687d7658d352d045a2"},
      {"state_response.mac",
       "0a0000000000000001000000000000004800000010000000000000005e5e5e5e5e5e5e5e5e5e5e5e"
       "5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e08000000736e617073686f740000000003000000"
       "00000000020000000000000002000000020000000000000050b5675129dd206f2c3823c0cb25c1e6"
       "0300000000000000148eee3f4f6e553d513353f3e0be1b4500"},
      {"state_response.signed",
       "0a0000000000000001000000000000004800000010000000000000005e5e5e5e5e5e5e5e5e5e5e5e"
       "5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e08000000736e617073686f740000000003000000"
       "00000000020000000000000000000000016fc47e337d3b53d3594be68b448272b84d09faa9cc2c88"
       "f9ce86bad87aa9ceb7"},
  });
}

TEST(GoldenFramesTest, SmiopMessagesMatchPinnedBytes) {
  expect_golden(smiop_frames(), {
      {"ordered",
       "010000000000000005000000000000000600000000000000e8030000000000000000000000000000"
       "01000000000000000b0000007365616c65642d67696f70"},
      {"queue_ack",
       "020000000000000065000000000000002a00000000000000"},
      {"direct_reply",
       "01000000000000000500000000000000060000000000000065000000000000000100000000000000"
       "0c0000007365616c65642d7265706c795f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f"
       "5f5f5f5f5f5f5f5f"},
      {"key_share",
       "0200000000000000050000000000000001000000000000000200000000000000e803000000000000"
       "0000000000000000010000000000000003000000000000000c0000007365616c65642d7368617265"},
      {"sync_point",
       "03000000000000006900000000000000"},
      {"state_bundle",
       "0300000000000000020000000000000065000000000000002a000000000000000d0000007365616c"
       "65642d62756e646c65"},
      {"gm_result",
       "010000000000000005000000000000000100000000000000030000006f6b00"},
      {"dprf_share",
       "02020000000100000031313131313131313131313131313131313131313131313131313131313131"
       "31040000003434343434343434343434343434343434343434343434343434343434343434"},
      {"gm_open",
       "0100000000000000e80300000000000000000000000000000200000000000000"},
      {"gm_change",
       "0200000000000000e803000000000000000000000000000002000000000000006500000000000000"
       "05000000000000000600000000000000010000000000000065000000000000000100000000000000"
       "05000000706c61696e5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f"
       "5f"},
      {"gm_resend",
       "03000000000000000500000000000000e803000000000000"},
      {"gm_membership",
       "0400000000000000020000000000000001000000000000006500000000000000c900000000000000"
       "ca00000000000000cb000000000000000300000000000000"},
      {"gm_policy",
       "05000000000000000200000000000000"},
  });
}

}  // namespace
}  // namespace itdos::bft
