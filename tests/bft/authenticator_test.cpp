// Pairwise authenticators bind the message type. PREPARE and COMMIT bodies
// share one layout, and so do the keys a client shares with each replica
// for REQUEST and REPLY; a tag over the body alone would let anyone who can
// rewrite a packet's type byte pass one kind of message off as the other.
#include <gtest/gtest.h>

#include <algorithm>

#include "batch/batch_msg.hpp"
#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "crypto/sha256.hpp"
#include "impostor.hpp"

namespace itdos::bft {
namespace {

ClusterOptions fast_options() {
  ClusterOptions opts;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  return opts;
}

std::uint64_t replica_count(Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

TEST(AuthenticatorTest, TagCoversTheTypeByte) {
  const SessionKeys keys(to_bytes("master"));
  PrepareMsg prepare;
  prepare.view = ViewId(2);
  prepare.seq = SeqNum(9);
  prepare.replica = NodeId(3);
  const Bytes body = prepare.encode();
  const MsgType type = MsgType::kPrepare;
  const crypto::MacTag tag = keys.tag(NodeId(3), NodeId(1), mac_input(type, body));
  EXPECT_TRUE(keys.verify(NodeId(1), NodeId(3), mac_input(type, body), tag));
  for (int bit = 0; bit < 8; ++bit) {
    const auto relabelled =
        static_cast<MsgType>(static_cast<std::uint8_t>(MsgType::kPrepare) ^ (1u << bit));
    EXPECT_FALSE(keys.verify(NodeId(1), NodeId(3), mac_input(relabelled, body), tag))
        << "type byte bit " << bit;
  }
}

TEST(AuthenticatorTest, PrepareRelabelledAsCommitIsNoCommitVote) {
  // Replica 1 is correct; the test speaks for the other three. Replica 1
  // prepares slot 1 (the pre-prepare plus replica 2's PREPARE) and holds
  // COMMITs from itself and replica 2, one short of the 2f+1 quorum.
  // Replica 3 only prepared: relabelling its PREPARE as a COMMIT, with the
  // same body and tag, must be rejected as a bad authenticator and must not
  // complete the quorum. Replica 3's real COMMIT then does.
  Cluster cluster(fast_options(),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  for (int rank : {0, 2, 3}) cluster.crash_replica(rank);
  Impostor primary(cluster, cluster.replica_id(0));
  Impostor backup2(cluster, cluster.replica_id(2));
  Impostor backup3(cluster, cluster.replica_id(3));
  const NodeId target = cluster.replica_id(1);

  RequestMsg request;
  request.client = NodeId(7);
  request.timestamp = 1;
  PrePrepareMsg pp;
  pp.view = ViewId(0);
  pp.seq = SeqNum(1);
  batch::BatchMsg batch;
  batch.entries.push_back(BufView(request.encode()));
  Arena arena;
  pp.request = batch.encode_into(arena);
  pp.req_digest = proposal_digest(ByteView(pp.request));
  primary.send(target, MsgType::kPrePrepare, pp.encode());

  PrepareMsg prepare;
  prepare.view = pp.view;
  prepare.seq = pp.seq;
  prepare.req_digest = pp.req_digest;
  prepare.replica = cluster.replica_id(2);
  backup2.send(target, MsgType::kPrepare, prepare.encode());
  cluster.sim().run_for(millis(2));
  ASSERT_EQ(replica_count(cluster, 1, "commits_sent"), 1u);

  CommitMsg commit;
  commit.view = pp.view;
  commit.seq = pp.seq;
  commit.req_digest = pp.req_digest;
  commit.replica = cluster.replica_id(2);
  backup2.send(target, MsgType::kCommit, commit.encode());
  cluster.sim().run_for(millis(2));
  ASSERT_EQ(cluster.replica(1).last_executed().value, 0u);

  prepare.replica = cluster.replica_id(3);
  commit.replica = cluster.replica_id(3);
  ASSERT_EQ(prepare.encode(), commit.encode());  // one layout
  const std::uint64_t failures = replica_count(cluster, 1, "auth_failures");
  backup3.send(target, MsgType::kCommit, MsgType::kPrepare, prepare.encode());
  cluster.sim().run_for(millis(2));
  EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), failures + 1);
  EXPECT_EQ(cluster.replica(1).last_executed().value, 0u);

  backup3.send(target, MsgType::kCommit, commit.encode());
  cluster.sim().run_for(millis(2));
  EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), failures + 1);
  EXPECT_EQ(cluster.replica(1).last_executed().value, 1u);
}

TEST(AuthenticatorTest, RequestReflectedAsReplyIsRejected) {
  // Every replica is gone; the test speaks for replicas 1 and 2. The
  // client's REQUEST, reflected back to it as those replicas' REPLYs, must
  // not count, and neither must a well-formed REPLY body whose tags were
  // made for a REQUEST. The same body tagged as a REPLY completes the call,
  // so only the type binding tells them apart.
  Cluster cluster(fast_options(),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  Client& client = cluster.add_client();
  for (int rank = 0; rank < cluster.n(); ++rank) cluster.crash_replica(rank);
  std::vector<std::unique_ptr<Impostor>> replicas;
  for (int rank : {1, 2}) {
    replicas.push_back(std::make_unique<Impostor>(cluster, cluster.replica_id(rank)));
  }
  std::optional<Result<Bytes>> outcome;
  client.invoke(BufView(to_bytes("add:5")), [&](Result<Bytes> r) { outcome = std::move(r); });
  cluster.sim().run_for(millis(1));

  RequestMsg request;
  request.client = client.id();
  request.timestamp = 1;
  request.payload = BufView(to_bytes("add:5"));
  for (auto& replica : replicas) {
    replica->send(client.id(), MsgType::kReply, MsgType::kRequest, request.encode());
  }
  cluster.sim().run_for(millis(1));
  EXPECT_FALSE(outcome.has_value());

  const auto reply_from = [&](const Impostor& replica) {
    ReplyMsg reply;
    reply.timestamp = 1;
    reply.client = client.id();
    reply.replica = replica.id();
    reply.result = to_bytes("VAL:66");
    return reply.encode();
  };
  for (auto& replica : replicas) {
    replica->send(client.id(), MsgType::kReply, MsgType::kRequest, reply_from(*replica));
  }
  cluster.sim().run_for(millis(1));
  EXPECT_FALSE(outcome.has_value());

  for (auto& replica : replicas) {
    replica->send(client.id(), MsgType::kReply, reply_from(*replica));
  }
  cluster.sim().run_for(millis(1));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_ok());
  EXPECT_EQ(to_string(outcome->value()), "VAL:66");
}

}  // namespace
}  // namespace itdos::bft
