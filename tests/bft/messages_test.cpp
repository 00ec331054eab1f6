#include "bft/messages.hpp"

#include <gtest/gtest.h>

#include "batch/batch_msg.hpp"
#include "common/rng.hpp"

namespace itdos::bft {
namespace {

Digest digest_of(std::uint8_t fill) {
  Digest d;
  d.fill(fill);
  return d;
}

TEST(BftMessagesTest, RequestRoundTrip) {
  RequestMsg msg;
  msg.client = NodeId(1000);
  msg.timestamp = 42;
  msg.payload = to_bytes("do-something");
  const auto back = RequestMsg::decode(msg.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), msg);
}

TEST(BftMessagesTest, RequestEncodeIsDeterministic) {
  RequestMsg msg;
  msg.client = NodeId(1);
  msg.timestamp = 1;
  msg.payload = to_bytes("x");
  EXPECT_EQ(msg.encode(), msg.encode());
  RequestMsg other = msg;
  other.timestamp = 2;
  EXPECT_NE(msg.encode(), other.encode());
}

TEST(BftMessagesTest, PrePrepareRoundTrip) {
  PrePrepareMsg msg;
  msg.view = ViewId(3);
  msg.seq = SeqNum(17);
  msg.req_digest = digest_of(0xaa);
  msg.request = to_bytes("encoded-request");
  const auto back = PrePrepareMsg::decode(msg.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), msg);
  EXPECT_FALSE(msg.is_null_request());
}

TEST(BftMessagesTest, NullPrePrepare) {
  PrePrepareMsg msg;
  msg.view = ViewId(1);
  msg.seq = SeqNum(5);
  const auto back = PrePrepareMsg::decode(msg.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().is_null_request());
}

TEST(BftMessagesTest, PrepareCommitRoundTrip) {
  PrepareMsg prep;
  prep.view = ViewId(2);
  prep.seq = SeqNum(9);
  prep.req_digest = digest_of(0x11);
  prep.replica = NodeId(4);
  EXPECT_EQ(PrepareMsg::decode(prep.encode()).value(), prep);

  CommitMsg commit;
  commit.view = ViewId(2);
  commit.seq = SeqNum(9);
  commit.req_digest = digest_of(0x22);
  commit.replica = NodeId(3);
  EXPECT_EQ(CommitMsg::decode(commit.encode()).value(), commit);
}

TEST(BftMessagesTest, ReplyRoundTrip) {
  ReplyMsg msg;
  msg.view = ViewId(1);
  msg.timestamp = 7;
  msg.client = NodeId(1000);
  msg.replica = NodeId(2);
  msg.result = to_bytes("result-bytes");
  EXPECT_EQ(ReplyMsg::decode(msg.encode()).value(), msg);
}

TEST(BftMessagesTest, CheckpointRoundTrip) {
  CheckpointMsg msg;
  msg.seq = SeqNum(128);
  msg.state_digest = digest_of(0x77);
  msg.replica = NodeId(1);
  EXPECT_EQ(CheckpointMsg::decode(msg.encode()).value(), msg);
}

TEST(BftMessagesTest, ViewChangeRoundTrip) {
  ViewChangeMsg msg;
  msg.new_view = ViewId(4);
  msg.stable_seq = SeqNum(32);
  msg.stable_digest = digest_of(0x01);
  PreparedProof proof;
  proof.view = ViewId(3);
  proof.seq = SeqNum(33);
  proof.req_digest = digest_of(0x02);
  proof.request = to_bytes("req");
  msg.prepared.push_back(proof);
  msg.replica = NodeId(2);
  EXPECT_EQ(ViewChangeMsg::decode(msg.encode()).value(), msg);
}

TEST(BftMessagesTest, NewViewRoundTrip) {
  NewViewMsg msg;
  msg.view = ViewId(4);
  msg.primary = NodeId(1);
  SignedViewChange svc;
  svc.msg.new_view = ViewId(4);
  svc.msg.stable_seq = SeqNum(10);
  svc.msg.replica = NodeId(2);
  svc.signature.fill(0x5a);
  msg.view_changes.push_back(svc);
  PrePrepareMsg pp;
  pp.view = ViewId(4);
  pp.seq = SeqNum(11);
  pp.req_digest = digest_of(0x0f);
  pp.request = to_bytes("carried");
  msg.pre_prepares.push_back(pp);
  EXPECT_EQ(NewViewMsg::decode(msg.encode()).value(), msg);
}

TEST(BftMessagesTest, StateTransferRoundTrip) {
  StateRequestMsg req;
  req.seq = SeqNum(64);
  req.requester = NodeId(3);
  EXPECT_EQ(StateRequestMsg::decode(req.encode()).value(), req);

  StateResponseMsg resp;
  resp.seq = SeqNum(64);
  resp.state_digest = digest_of(0x99);
  resp.snapshot = to_bytes("full-snapshot-bytes");
  resp.replica = NodeId(1);
  EXPECT_EQ(StateResponseMsg::decode(resp.encode()).value(), resp);
}

TEST(BftMessagesTest, EnvelopeWithAuthenticatorVector) {
  Envelope env;
  env.type = MsgType::kPrepare;
  env.sender = NodeId(2);
  env.body = to_bytes("body");
  crypto::MacTag t1;
  t1.fill(0x01);
  crypto::MacTag t2;
  t2.fill(0x02);
  env.auth.emplace_back(NodeId(1), t1);
  env.auth.emplace_back(NodeId(3), t2);

  const auto back = Envelope::decode(env.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().type, MsgType::kPrepare);
  EXPECT_EQ(back.value().sender, NodeId(2));
  EXPECT_EQ(back.value().body, env.body);
  ASSERT_NE(back.value().tag_for(NodeId(3)), nullptr);
  EXPECT_EQ(*back.value().tag_for(NodeId(3)), t2);
  EXPECT_EQ(back.value().tag_for(NodeId(9)), nullptr);
  EXPECT_FALSE(back.value().signature.has_value());
}

TEST(BftMessagesTest, EnvelopeWithSignature) {
  Envelope env;
  env.type = MsgType::kViewChange;
  env.sender = NodeId(4);
  env.body = to_bytes("signed-body");
  crypto::Signature sig;
  sig.fill(0xcd);
  env.signature = sig;
  const auto back = Envelope::decode(env.encode());
  ASSERT_TRUE(back.is_ok());
  ASSERT_TRUE(back.value().signature.has_value());
  EXPECT_EQ(*back.value().signature, sig);
}

TEST(BftMessagesTest, EnvelopeRejectsUnknownType) {
  Envelope env;
  env.type = MsgType::kRequest;
  env.sender = NodeId(1);
  env.body = to_bytes("b");
  Bytes wire = env.encode();
  wire[0] = 0x7f;
  EXPECT_EQ(Envelope::decode(BufView(std::move(wire))).status().code(), Errc::kMalformedMessage);
}

TEST(BftMessagesTest, EnvelopeRejectsHostileAuthCount) {
  Envelope env;
  env.type = MsgType::kRequest;
  env.sender = NodeId(1);
  env.body = to_bytes("b");
  Bytes wire = env.encode();
  // The auth count field follows type(1)+pad/sender(8 aligned)+body(len+data).
  // Corrupt by truncation instead: drop the last byte.
  wire.pop_back();
  EXPECT_FALSE(Envelope::decode(BufView(std::move(wire))).is_ok());
}

TEST(BftMessagesTest, FuzzedEnvelopesNeverCrash) {
  Envelope env;
  env.type = MsgType::kNewView;
  env.sender = NodeId(1);
  NewViewMsg nv;
  nv.view = ViewId(2);
  nv.primary = NodeId(1);
  env.body = nv.encode();
  crypto::Signature sig;
  sig.fill(1);
  env.signature = sig;
  const Bytes base = env.encode();
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    const std::size_t idx = rng.next_below(mutated.size());
    mutated[idx] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto decoded = Envelope::decode(BufView(std::move(mutated)));
    if (decoded.is_ok() && decoded.value().type == MsgType::kNewView) {
      (void)NewViewMsg::decode(decoded.value().body);  // must not crash
    }
  }
}

// Pools one fresh chunk of `capacity` bytes; returns its storage address.
const std::uint8_t* pool_chunk(Arena& arena, std::size_t capacity) {
  Bytes chunk = arena.acquire(capacity);
  const std::uint8_t* data = chunk.data();
  (void)arena.seal(std::move(chunk));  // the view drops at once: chunk pooled
  return data;
}

// An arena encode must size its chunk to the message: at least the encoded
// size, so the encode never reallocates, and at most size + 128, so a small
// message does not pin a large chunk. Probed through the pool: a chunk of
// size + 128 is taken and written in place (same data pointer); a chunk of
// size - 1 is passed over (it is still pooled while the encoded view lives).
template <typename EncodeInto>
void expect_chunk_fits(const EncodeInto& encode_into, std::size_t size) {
  {
    Arena arena;
    const std::uint8_t* roomy = pool_chunk(arena, size + 128);
    const BufView wire = encode_into(arena);
    EXPECT_EQ(wire.size(), size);
    EXPECT_EQ(wire.data(), roomy) << "hint above size + 128, or the encode reallocated";
  }
  {
    Arena arena;
    (void)pool_chunk(arena, size - 1);
    const BufView wire = encode_into(arena);
    EXPECT_EQ(arena.pooled(), 1u) << "hint below the encoded size";
  }
}

TEST(BftMessagesTest, EnvelopeEncodeIntoSizesItsChunk) {
  for (int t = 1; t <= 10; ++t) {
    for (const std::size_t body_size : {0u, 1u, 2u, 3u, 5u, 150u, 1001u}) {
      for (const std::size_t auth_count : {0u, 1u, 3u, 4u, 7u}) {
        for (const bool signed_env : {false, true}) {
          Envelope env;
          env.type = static_cast<MsgType>(t);
          env.sender = NodeId(3);
          env.body = Bytes(body_size, 0x5a);
          for (std::size_t i = 0; i < auth_count; ++i) {
            crypto::MacTag tag;
            tag.fill(static_cast<std::uint8_t>(i));
            env.auth.emplace_back(NodeId(i + 1), tag);
          }
          if (signed_env) env.signature = crypto::Signature{};
          SCOPED_TRACE(testing::Message() << msg_type_name(env.type) << " body=" << body_size
                                          << " auth=" << auth_count << " signed=" << signed_env);
          expect_chunk_fits([&env](Arena& arena) { return env.encode_into(arena); },
                            env.encode().size());
        }
      }
    }
  }
}

TEST(BftMessagesTest, BatchEncodeIntoSizesItsChunk) {
  batch::BatchMsg batch;
  for (const std::size_t entry_size : {1u, 2u, 3u, 300u, 5u, 64u}) {
    batch.entries.emplace_back(Bytes(entry_size, 0x3c));
    expect_chunk_fits([&batch](Arena& arena) { return batch.encode_into(arena); },
                      batch.encode().size());
  }
}

TEST(BftMessagesTest, AllTypesHaveNames) {
  for (int t = 1; t <= 10; ++t) {
    EXPECT_NE(msg_type_name(static_cast<MsgType>(t)), "<?>");
  }
}

}  // namespace
}  // namespace itdos::bft
