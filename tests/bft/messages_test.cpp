#include "bft/messages.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch_msg.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "wire.hpp"

namespace itdos::bft {
namespace {

Digest digest_of(std::uint8_t fill) {
  Digest d;
  d.fill(fill);
  return d;
}

/// The envelope's wire bytes, as a mutable copy.
Bytes wire_bytes(const Envelope& env) {
  return wire_of(env).clone_bytes();
}

TEST(BftMessagesTest, RequestRoundTrip) {
  RequestMsg msg;
  msg.client = NodeId(1000);
  msg.timestamp = 42;
  msg.payload = to_bytes("do-something");
  const auto back = RequestMsg::decode(body_of(msg));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), msg);
}

TEST(BftMessagesTest, RequestEncodeIsDeterministic) {
  RequestMsg msg;
  msg.client = NodeId(1);
  msg.timestamp = 1;
  msg.payload = to_bytes("x");
  EXPECT_EQ(body_of(msg), body_of(msg));
  RequestMsg other = msg;
  other.timestamp = 2;
  EXPECT_NE(body_of(msg), body_of(other));
}

TEST(BftMessagesTest, PrePrepareRoundTrip) {
  PrePrepareMsg msg;
  msg.view = ViewId(3);
  msg.seq = SeqNum(17);
  msg.req_digest = digest_of(0xaa);
  msg.request = to_bytes("encoded-request");
  const auto back = PrePrepareMsg::decode(body_of(msg));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), msg);
  EXPECT_FALSE(msg.is_null_request());
}

TEST(BftMessagesTest, NullPrePrepare) {
  PrePrepareMsg msg;
  msg.view = ViewId(1);
  msg.seq = SeqNum(5);
  const auto back = PrePrepareMsg::decode(body_of(msg));
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().is_null_request());
}

TEST(BftMessagesTest, PrePrepareAuthenticatedRegionIsItsHeader) {
  // The header is everything but the request: the same 52 bytes for any
  // request, and the request's digest is what binds the rest.
  ASSERT_EQ(kPrePrepareHeaderSize, 52u);
  PrePrepareMsg msg;
  msg.view = ViewId(3);
  msg.seq = SeqNum(17);
  msg.request = to_bytes("encoded-request");
  msg.req_digest = digest_of(0x42);
  const Bytes body = body_of(msg);
  ASSERT_EQ(body.size(), kPrePrepareHeaderSize + msg.request.size());
  const ByteView region = authenticated_region(MsgType::kPrePrepare, body);
  EXPECT_EQ(Bytes(region.begin(), region.end()),
            Bytes(body.begin(), body.begin() + kPrePrepareHeaderSize));

  // Every other body is authenticated whole.
  PrepareMsg prep;
  prep.view = ViewId(2);
  const Bytes prep_body = body_of(prep);
  EXPECT_EQ(authenticated_region(MsgType::kPrepare, prep_body).size(), prep_body.size());
}

TEST(BftMessagesTest, RequestAuthenticatorsCoverHeaderAndPayloadDigest) {
  // A REQUEST's tags cover the type byte, the 20-byte header and the
  // SHA-256 of the payload: 53 bytes, whatever the payload's size.
  ASSERT_EQ(kRequestHeaderSize, 20u);
  RequestMsg request{NodeId(1000), 42, BufView(Bytes(5000, 0x61))};
  const Bytes body = body_of(request);
  const Digest payload = payload_digest(body);
  EXPECT_EQ(payload, crypto::sha256(Bytes(5000, 0x61)));
  const std::array<ByteView, 3> input = request_mac_input(body, payload);
  ASSERT_EQ(input[0].size(), 1u);
  EXPECT_EQ(input[0][0], static_cast<std::uint8_t>(MsgType::kRequest));
  EXPECT_EQ(Bytes(input[1].begin(), input[1].end()),
            Bytes(body.begin(), body.begin() + kRequestHeaderSize));
  EXPECT_EQ(Bytes(input[2].begin(), input[2].end()), crypto::digest_bytes(payload));
  const ByteView region = authenticated_region(MsgType::kRequest, body);
  EXPECT_EQ(region.data(), body.data());
  EXPECT_EQ(region.size(), kRequestHeaderSize);

  // A body too short for its header is digested from its end: nothing.
  const Bytes stub(7, 0x01);
  EXPECT_EQ(payload_digest(stub), crypto::sha256(ByteView()));
  EXPECT_EQ(authenticated_region(MsgType::kRequest, stub).size(), stub.size());
}

TEST(BftMessagesTest, OneEntryPrePrepareKnownAnswer) {
  // Hand-built wire bytes of a one-entry PRE-PREPARE, all little-endian:
  // the 52-byte header (view, seq, digest, request length), then the batch
  // (entry count, entry length), the entry, an encoded RequestMsg (client,
  // timestamp, payload length, payload), and its one authenticator (count,
  // pads, node id and tag).
  const auto le = [](Bytes& out, std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  Bytes entry;
  le(entry, 1000, 8);  // client
  le(entry, 42, 8);    // timestamp
  le(entry, 3, 4);     // payload length
  append(entry, to_bytes("abc"));
  ASSERT_EQ(entry.size(), 23u);
  Bytes auth;
  le(auth, 3, 8);                                // node id
  auth.insert(auth.end(), crypto::kMacTagSize, 0x77);  // tag
  Bytes batch;
  le(batch, 1, 4);             // entry count
  le(batch, entry.size(), 4);  // entry length
  append(batch, entry);        // to offset 31
  le(batch, 0, 1);             // pad to 32
  le(batch, 1, 4);             // authenticator count
  le(batch, 0, 4);             // pad to 40
  append(batch, auth);
  ASSERT_EQ(batch.size(), 64u);
  Bytes wire;
  le(wire, 3, 8);   // view
  le(wire, 17, 8);  // seq
  const Bytes digest(crypto::kDigestSize, 0xaa);
  append(wire, digest);
  le(wire, batch.size(), 4);  // request length
  ASSERT_EQ(wire.size(), kPrePrepareHeaderSize);
  append(wire, batch);

  const auto decoded = PrePrepareMsg::decode(BufView(Bytes(wire)));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const PrePrepareMsg& pp = decoded.value();
  EXPECT_EQ(pp.view, ViewId(3));
  EXPECT_EQ(pp.seq, SeqNum(17));
  EXPECT_EQ(pp.req_digest, digest_of(0xaa));
  EXPECT_EQ(pp.request.clone_bytes(), batch);
  EXPECT_EQ(body_of(pp), wire);

  const auto carried = batch::BatchMsg::decode(pp.request);
  ASSERT_TRUE(carried.is_ok());
  ASSERT_EQ(carried.value().entries.size(), 1u);
  const auto request = RequestMsg::decode(carried.value().entries.front().request);
  ASSERT_TRUE(request.is_ok());
  EXPECT_EQ(request.value().client, NodeId(1000));
  EXPECT_EQ(request.value().timestamp, 42u);
  EXPECT_EQ(to_string(request.value().payload), "abc");
  EXPECT_EQ(body_of(request.value()), entry);
  const AuthVector tags(carried.value().entries.front().auth);
  crypto::MacTag tag;
  tag.fill(0x77);
  EXPECT_EQ(tags.find(NodeId(3)), tag);

  // The proposal digest: SHA-256 of the entry count, then the entry's
  // length, its 20-byte header and its payload's digest.
  Bytes preimage;
  le(preimage, 1, 4);
  le(preimage, entry.size(), 4);
  preimage.insert(preimage.end(), entry.begin(), entry.begin() + 20);
  append(preimage, crypto::digest_bytes(crypto::sha256(to_bytes("abc"))));
  EXPECT_EQ(proposal_digest(carried.value()), crypto::sha256(preimage));
}

TEST(BftMessagesTest, PrepareCommitRoundTrip) {
  PrepareMsg prep;
  prep.view = ViewId(2);
  prep.seq = SeqNum(9);
  prep.req_digest = digest_of(0x11);
  prep.replica = NodeId(4);
  EXPECT_EQ(PrepareMsg::decode(body_of(prep)).value(), prep);

  CommitMsg commit;
  commit.view = ViewId(2);
  commit.seq = SeqNum(9);
  commit.req_digest = digest_of(0x22);
  commit.replica = NodeId(3);
  EXPECT_EQ(CommitMsg::decode(body_of(commit)).value(), commit);
}

/// `v` as 8 little-endian bytes appended to `out`.
void put_le64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

/// 32 digest bytes counting up from `first`.
Digest counting_digest(std::uint8_t first) {
  Digest d;
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<std::uint8_t>(first + i);
  return d;
}

TEST(BftMessagesTest, PhaseBodiesDecodeFromFixedOffsets) {
  // view, seq, digest, replica at offsets 0, 8, 16 and 48, little-endian.
  Bytes wire;
  put_le64(wire, 0x0102030405060708ULL);
  put_le64(wire, 0x1112131415161718ULL);
  const Digest digest = counting_digest(0xa0);
  append(wire, crypto::digest_view(digest));
  put_le64(wire, 0x2122232425262728ULL);
  ASSERT_EQ(wire.size(), 56u);

  const PrepareMsg prep = PrepareMsg::decode(wire).value();
  EXPECT_EQ(prep.view, ViewId(0x0102030405060708ULL));
  EXPECT_EQ(prep.seq, SeqNum(0x1112131415161718ULL));
  EXPECT_EQ(prep.req_digest, digest);
  EXPECT_EQ(prep.replica, NodeId(0x2122232425262728ULL));
  EXPECT_EQ(body_of(prep), wire);

  const CommitMsg commit = CommitMsg::decode(wire).value();
  EXPECT_EQ(commit.view, prep.view);
  EXPECT_EQ(commit.seq, prep.seq);
  EXPECT_EQ(commit.req_digest, digest);
  EXPECT_EQ(commit.replica, prep.replica);
  EXPECT_EQ(body_of(commit), wire);
}

TEST(BftMessagesTest, CheckpointBodyDecodesFromFixedOffsets) {
  // seq, digest, replica at offsets 0, 8 and 40, little-endian.
  Bytes wire;
  put_le64(wire, 0x8070605040302010ULL);
  const Digest digest = counting_digest(0x05);
  append(wire, crypto::digest_view(digest));
  put_le64(wire, 0x0000000000000003ULL);
  ASSERT_EQ(wire.size(), 48u);

  const CheckpointMsg msg = CheckpointMsg::decode(wire).value();
  EXPECT_EQ(msg.seq, SeqNum(0x8070605040302010ULL));
  EXPECT_EQ(msg.state_digest, digest);
  EXPECT_EQ(msg.replica, NodeId(3));
  EXPECT_EQ(body_of(msg), wire);
}

TEST(BftMessagesTest, FixedLayoutBodiesRejectAnyOtherSize) {
  PrepareMsg prep;
  prep.view = ViewId(1);
  prep.seq = SeqNum(2);
  prep.req_digest = digest_of(0x33);
  prep.replica = NodeId(3);
  CheckpointMsg checkpoint;
  checkpoint.seq = SeqNum(16);
  checkpoint.state_digest = digest_of(0x44);
  checkpoint.replica = NodeId(2);

  Bytes phase = body_of(prep);
  Bytes ckpt = body_of(checkpoint);
  ASSERT_EQ(phase.size(), 56u);
  ASSERT_EQ(ckpt.size(), 48u);
  phase.push_back(0);  // 57
  ckpt.push_back(0);   // 49
  EXPECT_EQ(PrepareMsg::decode(phase).status().code(), Errc::kMalformedMessage);
  EXPECT_EQ(CommitMsg::decode(phase).status().code(), Errc::kMalformedMessage);
  EXPECT_EQ(CheckpointMsg::decode(ckpt).status().code(), Errc::kMalformedMessage);
  phase.resize(55);
  ckpt.resize(47);
  EXPECT_EQ(PrepareMsg::decode(phase).status().code(), Errc::kMalformedMessage);
  EXPECT_EQ(CommitMsg::decode(phase).status().code(), Errc::kMalformedMessage);
  EXPECT_EQ(CheckpointMsg::decode(ckpt).status().code(), Errc::kMalformedMessage);
  EXPECT_FALSE(PrepareMsg::decode(ByteView{}).is_ok());
  EXPECT_FALSE(CheckpointMsg::decode(ByteView{}).is_ok());
}

TEST(BftMessagesTest, ReplyRoundTrip) {
  ReplyMsg msg;
  msg.view = ViewId(1);
  msg.timestamp = 7;
  msg.client = NodeId(1000);
  msg.replica = NodeId(2);
  msg.result = to_bytes("result-bytes");
  EXPECT_EQ(ReplyMsg::decode(body_of(msg)).value(), msg);
}

TEST(BftMessagesTest, CheckpointRoundTrip) {
  CheckpointMsg msg;
  msg.seq = SeqNum(128);
  msg.state_digest = digest_of(0x77);
  msg.replica = NodeId(1);
  EXPECT_EQ(CheckpointMsg::decode(body_of(msg)).value(), msg);
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
  EXPECT_EQ(ViewChangeMsg::decode(body_of(msg)).value(), msg);
}

TEST(BftMessagesTest, NewViewRoundTrip) {
  NewViewMsg msg;
  msg.view = ViewId(4);
  msg.primary = NodeId(1);
  SignedViewChange svc;
  svc.msg.new_view = ViewId(4);
  svc.msg.stable_seq = SeqNum(10);
  svc.msg.replica = NodeId(2);
  svc.body = body_of(svc.msg);
  svc.signature.fill(0x5a);
  msg.view_changes.push_back(svc);
  PrePrepareMsg pp;
  pp.view = ViewId(4);
  pp.seq = SeqNum(11);
  pp.req_digest = digest_of(0x0f);
  pp.request = to_bytes("carried");
  msg.pre_prepares.push_back(pp);
  EXPECT_EQ(NewViewMsg::decode(body_of(msg)).value(), msg);
}

TEST(BftMessagesTest, StateTransferRoundTrip) {
  StateRequestMsg req;
  req.seq = SeqNum(64);
  req.requester = NodeId(3);
  EXPECT_EQ(StateRequestMsg::decode(body_of(req)).value(), req);

  StateResponseMsg resp;
  resp.seq = SeqNum(64);
  resp.state_digest = digest_of(0x99);
  resp.snapshot = to_bytes("full-snapshot-bytes");
  resp.replica = NodeId(1);
  EXPECT_EQ(StateResponseMsg::decode(body_of(resp)).value(), resp);
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
  Bytes entries;
  add_entry(entries, NodeId(1), t1);
  add_entry(entries, NodeId(3), t2);
  env.auth = AuthVector(BufView(std::move(entries)));

  const auto back = Envelope::decode(BufView(wire_bytes(env)));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().type, MsgType::kPrepare);
  EXPECT_EQ(back.value().sender, NodeId(2));
  EXPECT_EQ(back.value().body, env.body);
  ASSERT_TRUE(back.value().tag_for(NodeId(3)).has_value());
  EXPECT_EQ(*back.value().tag_for(NodeId(3)), t2);
  EXPECT_FALSE(back.value().tag_for(NodeId(9)).has_value());
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
  const auto back = Envelope::decode(BufView(wire_bytes(env)));
  ASSERT_TRUE(back.is_ok());
  ASSERT_TRUE(back.value().signature.has_value());
  EXPECT_EQ(*back.value().signature, sig);
}

TEST(BftMessagesTest, EnvelopeRejectsUnknownType) {
  Envelope env;
  env.type = MsgType::kRequest;
  env.sender = NodeId(1);
  env.body = to_bytes("b");
  Bytes wire = wire_bytes(env);
  wire[0] = 0x7f;
  EXPECT_EQ(Envelope::decode(BufView(std::move(wire))).status().code(), Errc::kMalformedMessage);
}

TEST(BftMessagesTest, EnvelopeRejectsHostileAuthCount) {
  Envelope env;
  env.type = MsgType::kRequest;
  env.sender = NodeId(1);
  env.body = to_bytes("b");
  Bytes wire = wire_bytes(env);
  // The auth count field follows type(1)+pad/sender(8 aligned)+body(len+data).
  // Corrupt by truncation instead: drop the last byte.
  wire.pop_back();
  EXPECT_FALSE(Envelope::decode(BufView(std::move(wire))).is_ok());
}

TEST(BftMessagesTest, EnvelopeRejectsAuthCountBeyondItsBytes) {
  // An envelope whose auth count fits the bytes left one byte per entry but
  // not at the 24 bytes each entry takes. It must be refused as a hostile
  // count up front, before anything is reserved for the claimed entries,
  // not by running out of bytes partway through them.
  const auto wire_with = [](std::uint32_t count, std::uint64_t entries) {
    cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
    enc.write_octet(static_cast<std::uint8_t>(MsgType::kPrepare));
    enc.write_uint64(1);
    enc.write_bytes(ByteView{});
    enc.write_uint32(count);
    for (std::uint64_t i = 0; i < entries; ++i) {
      enc.write_uint64(i + 1);
      enc.write_raw(Bytes(crypto::kMacTagSize, 0x6d));
    }
    enc.write_boolean(false);
    return BufView(enc.take());
  };
  ASSERT_TRUE(Envelope::decode(wire_with(40, 40)).is_ok());
  EXPECT_EQ(Envelope::decode(wire_with(40, 40)).value().auth.size(), 40u);
  // 961 bytes follow the count: 40 entries and the signature flag.
  for (const std::uint32_t hostile : {41u, 900u, 961u, 0xffffffffu}) {
    const Result<Envelope> decoded = Envelope::decode(wire_with(hostile, 40));
    ASSERT_FALSE(decoded.is_ok()) << hostile;
    EXPECT_EQ(decoded.status().code(), Errc::kMalformedMessage);
    EXPECT_NE(decoded.status().detail().find("hostile count"), std::string::npos)
        << hostile << ": " << decoded.status().detail();
  }
}

TEST(BftMessagesTest, FuzzedEnvelopesNeverCrash) {
  // Byte flips anywhere in the wire (header, body, authenticators,
  // signature) of a NEW-VIEW and of the three fixed-layout agreement
  // messages; whatever still decodes as an envelope has its body decoded.
  crypto::Signature sig;
  sig.fill(1);
  std::vector<Envelope> bases;
  {
    Envelope env;
    env.type = MsgType::kNewView;
    env.sender = NodeId(1);
    NewViewMsg nv;
    nv.view = ViewId(2);
    nv.primary = NodeId(1);
    env.body = body_of(nv);
    env.signature = sig;
    bases.push_back(env);
  }
  PrepareMsg prep;
  prep.view = ViewId(3);
  prep.seq = SeqNum(17);
  prep.req_digest = digest_of(0x5e);
  prep.replica = NodeId(2);
  CommitMsg commit;
  commit.view = prep.view;
  commit.seq = prep.seq;
  commit.req_digest = prep.req_digest;
  commit.replica = NodeId(3);
  CheckpointMsg checkpoint;
  checkpoint.seq = SeqNum(32);
  checkpoint.state_digest = digest_of(0x7c);
  checkpoint.replica = NodeId(4);
  for (const auto& [type, body] : {std::pair{MsgType::kPrepare, body_of(prep)},
                                   std::pair{MsgType::kCommit, body_of(commit)},
                                   std::pair{MsgType::kCheckpoint, body_of(checkpoint)}}) {
    Envelope env;
    env.type = type;
    env.sender = NodeId(2);
    env.body = BufView(Bytes(body));
    Bytes entries;
    for (std::uint64_t node = 1; node <= 4; ++node) {
      crypto::MacTag tag;
      tag.fill(static_cast<std::uint8_t>(node));
      add_entry(entries, NodeId(node), tag);
    }
    env.auth = AuthVector(BufView(std::move(entries)));
    bases.push_back(env);
  }

  Rng rng(123);
  for (const Envelope& env : bases) {
    const Bytes base = wire_bytes(env);
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes mutated = base;
      const std::size_t idx = rng.next_below(mutated.size());
      mutated[idx] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      const auto decoded = Envelope::decode(BufView(std::move(mutated)));
      if (!decoded.is_ok()) continue;
      const BufView& body = decoded.value().body;
      switch (decoded.value().type) {  // each must not crash
        case MsgType::kNewView: (void)NewViewMsg::decode(body); break;
        case MsgType::kPrepare: (void)PrepareMsg::decode(body); break;
        case MsgType::kCommit: (void)CommitMsg::decode(body); break;
        case MsgType::kCheckpoint: (void)CheckpointMsg::decode(body); break;
        default: break;
      }
    }
  }
}

// An encode must size its chunk to the message's bound: at least the
// encoded size, so the encode never reallocates (the chunk's capacity is
// still exactly the bound), and at most size + 128, so a small message does
// not hold a large chunk.
void expect_chunk_fits(const BufView& wire, std::size_t bound) {
  EXPECT_EQ(wire.chunk_capacity(), bound) << "the encode reallocated";
  EXPECT_GE(bound, wire.size()) << "bound below the encoded size";
  EXPECT_LE(bound, wire.size() + 128) << "bound above size + 128";
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
          Bytes entries;
          for (std::size_t i = 0; i < auth_count; ++i) {
            crypto::MacTag tag;
            tag.fill(static_cast<std::uint8_t>(i));
            add_entry(entries, NodeId(i + 1), tag);
          }
          env.auth = AuthVector(BufView(std::move(entries)));
          if (signed_env) env.signature = crypto::Signature{};
          SCOPED_TRACE(testing::Message() << msg_type_name(env.type) << " body=" << body_size
                                          << " auth=" << auth_count << " signed=" << signed_env);
          expect_chunk_fits(wire_of(env),
                            kEnvelopeBodyAt + body_size +
                                Frame::trailer_bound(auth_count, signed_env));
        }
      }
    }
  }
}

TEST(BftMessagesTest, BatchEncodeIntoSizesItsChunk) {
  batch::BatchMsg batch;
  for (const std::size_t entry_size : {1u, 2u, 3u, 300u, 5u, 64u}) {
    batch.entries.push_back({BufView(Bytes(entry_size, 0x3c)),
                             BufView(Bytes(entry_size % 5 * batch::kAuthEntrySize, 0x3d))});
    SCOPED_TRACE(testing::Message() << "entries=" << batch.entries.size());
    expect_chunk_fits(batch.encode(), batch.size_hint());
    // The PRE-PREPARE frame that carries it, tagged for three backups.
    PrePrepareMsg pp;
    pp.request = batch.encode();
    Frame frame(NodeId(1), pp, Frame::trailer_bound(3, false));
    const std::array<NodeId, 3> receivers{NodeId(2), NodeId(3), NodeId(4)};
    const std::array<crypto::MacTag, 3> tags{};
    expect_chunk_fits(frame.seal_tags(receivers, tags),
                      kEnvelopeBodyAt + pp.size_hint() + Frame::trailer_bound(3, false));
  }
}

TEST(BftMessagesTest, AllTypesHaveNames) {
  for (int t = 1; t <= 10; ++t) {
    EXPECT_NE(msg_type_name(static_cast<MsgType>(t)), "<?>");
  }
}

}  // namespace
}  // namespace itdos::bft
