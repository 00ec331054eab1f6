// Pairwise authenticators bind the message type. PREPARE and COMMIT bodies
// share one layout, and so do the keys a client shares with each replica
// for REQUEST and REPLY; a tag over the body alone would let anyone who can
// rewrite a packet's type byte pass one kind of message off as the other.
#include <gtest/gtest.h>

#include <algorithm>

#include "batch/batch_msg.hpp"
#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "client_auth.hpp"
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

bool is_type(const net::Packet& packet, MsgType type) {
  const Result<Envelope> env = Envelope::decode(packet.payload);
  return env.is_ok() && env.value().type == type;
}

/// `wire`, a MAC-authenticated envelope, with the tag of its entry for
/// `node` flipped.
Bytes corrupt_tag_for(const BufView& wire, NodeId node) {
  const Envelope env = Envelope::decode(wire).value();
  const ByteView entries = env.auth.bytes();
  const auto at = static_cast<std::size_t>(entries.data() - wire.data());
  Bytes out = wire.clone_bytes();
  for (std::size_t i = 0; i < entries.size(); i += AuthVector::kEntrySize) {
    if (cdr::detail::load_le64(entries, i) == node.value) out[at + i + 8] ^= 0x01;
  }
  return out;
}

TEST(AuthenticatorTest, TagCoversTheTypeByte) {
  const SessionKeys keys(to_bytes("master"));
  PrepareMsg prepare;
  prepare.view = ViewId(2);
  prepare.seq = SeqNum(9);
  prepare.replica = NodeId(3);
  const Bytes body = body_of(prepare);
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
  batch.entries.push_back(client_entry(cluster.keys(), cluster.config(), body_of(request)));
  pp.request = batch.encode();
  pp.req_digest = proposal_digest(batch);
  primary.send(target, MsgType::kPrePrepare, body_of(pp));

  PrepareMsg prepare;
  prepare.view = pp.view;
  prepare.seq = pp.seq;
  prepare.req_digest = pp.req_digest;
  prepare.replica = cluster.replica_id(2);
  backup2.send(target, MsgType::kPrepare, body_of(prepare));
  cluster.sim().run_for(millis(2));
  ASSERT_EQ(replica_count(cluster, 1, "commits_sent"), 1u);

  CommitMsg commit;
  commit.view = pp.view;
  commit.seq = pp.seq;
  commit.req_digest = pp.req_digest;
  commit.replica = cluster.replica_id(2);
  backup2.send(target, MsgType::kCommit, body_of(commit));
  cluster.sim().run_for(millis(2));
  ASSERT_EQ(cluster.replica(1).last_executed().value, 0u);

  prepare.replica = cluster.replica_id(3);
  commit.replica = cluster.replica_id(3);
  ASSERT_EQ(body_of(prepare), body_of(commit));  // one layout
  const std::uint64_t failures = replica_count(cluster, 1, "auth_failures");
  backup3.send(target, MsgType::kCommit, MsgType::kPrepare, body_of(prepare));
  cluster.sim().run_for(millis(2));
  EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), failures + 1);
  EXPECT_EQ(cluster.replica(1).last_executed().value, 0u);

  backup3.send(target, MsgType::kCommit, body_of(commit));
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
    replica->send(client.id(), MsgType::kReply, MsgType::kRequest, body_of(request));
  }
  cluster.sim().run_for(millis(1));
  EXPECT_FALSE(outcome.has_value());

  const auto reply_from = [&](const Impostor& replica) {
    ReplyMsg reply;
    reply.timestamp = 1;
    reply.client = client.id();
    reply.replica = replica.id();
    reply.result = to_bytes("VAL:66");
    return body_of(reply);
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

TEST(AuthenticatorTest, ClientTagBadForOneBackupStillExecutesEverywhere) {
  // The client's tag for rank 2 is corrupted on the wire. The primary's tag
  // is good, so it proposes the request with the tags the client sent;
  // rank 2 cannot verify its own and withholds its PREPARE, but the other
  // two backups' PREPAREs (at least one from a correct replica that checked
  // the entry) let it commit. All four replicas execute, in view 0, and
  // the client never retransmits.
  Cluster cluster(fast_options(), [](int) { return std::make_unique<CounterStateMachine>(); });
  Client& client = cluster.add_client();
  const NodeId rank2 = cluster.replica_id(2);
  cluster.network().set_interceptor(client.id(), [rank2](const net::Packet& p) {
    return std::optional<BufView>(BufView(corrupt_tag_for(p.payload, rank2)));
  });
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:5"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:5");
  cluster.settle();

  EXPECT_EQ(cluster.sim().telemetry().metrics().counter_value(
                telemetry::metric_name("bft", client.id(), "retransmissions")),
            0u);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 5) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).view().value, 0u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 1u) << "rank " << rank;
  }
  EXPECT_EQ(replica_count(cluster, 2, "prepares_sent"), 0u);
  EXPECT_EQ(replica_count(cluster, 2, "auth_failures"), 1u);
  for (int rank : {1, 3}) {
    EXPECT_EQ(replica_count(cluster, rank, "prepares_sent"), 1u) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "auth_failures"), 0u) << "rank " << rank;
  }
}

TEST(AuthenticatorTest, ReproposalIsAcceptedOnItsCertificate) {
  // As above, the client's tag for rank 2 is bad, and now no COMMIT gets
  // through, so the slot prepares everywhere (rank 2 on the others'
  // PREPAREs) but commits nowhere, and the replicas change view. The new
  // primary re-proposes the prepared batch from the view-change
  // certificate; rank 2 accepts it there without its own tag, prepares it,
  // and once COMMITs flow all four replicas execute it.
  Cluster cluster(fast_options(), [](int) { return std::make_unique<CounterStateMachine>(); });
  Client& client = cluster.add_client();
  const NodeId rank2 = cluster.replica_id(2);
  cluster.network().set_interceptor(client.id(), [rank2](const net::Packet& p) {
    return std::optional<BufView>(BufView(corrupt_tag_for(p.payload, rank2)));
  });
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_interceptor(
        cluster.replica_id(rank), [](const net::Packet& p) -> std::optional<BufView> {
          if (is_type(p, MsgType::kCommit)) return std::nullopt;
          return p.payload;
        });
  }
  std::optional<Result<Bytes>> outcome;
  client.invoke(to_bytes("add:5"), [&](Result<Bytes> r) { outcome = std::move(r); });
  cluster.sim().run_for(millis(5));
  ASSERT_EQ(replica_count(cluster, 2, "auth_failures"), 1u);
  ASSERT_EQ(replica_count(cluster, 2, "prepares_sent"), 0u);
  cluster.sim().run_for(millis(200));
  ASSERT_FALSE(outcome.has_value());
  for (int rank = 0; rank < cluster.n(); ++rank) {
    ASSERT_GE(cluster.replica(rank).view().value, 1u) << "rank " << rank;
  }
  EXPECT_GE(replica_count(cluster, 2, "prepares_sent"), 1u);

  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_interceptor(cluster.replica_id(rank), nullptr);
  }
  cluster.settle();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_ok()) << outcome->status().to_string();
  EXPECT_EQ(to_string(outcome->value()), "VAL:5");
  for (int rank = 0; rank < cluster.n(); ++rank) {
    const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 5) << "rank " << rank;
  }
}

TEST(AuthenticatorTest, RelayOfAProposedRequestIsDroppedBeforeItsMac) {
  // The backups never hear the primary's PRE-PREPARE, so the client's
  // request stays proposed and unexecuted at the primary. A backup's relay
  // of it, with the primary's tag corrupted, changes nothing and is
  // dropped before any MAC work: the primary's auth_failures stays put.
  // The same corruption on a request the primary has not proposed is
  // checked and counted.
  Cluster cluster(fast_options(), [](int) { return std::make_unique<CounterStateMachine>(); });
  for (int rank = 1; rank < cluster.n(); ++rank) {
    cluster.network().set_inbound_filter(cluster.replica_id(rank), [](const net::Packet& p) {
      return !is_type(p, MsgType::kPrePrepare);
    });
  }
  Client& client = cluster.add_client();
  BufView sent;
  cluster.network().set_interceptor(client.id(), [&sent](const net::Packet& p) {
    if (sent.empty()) sent = p.payload;
    return std::optional<BufView>(p.payload);
  });
  client.invoke(to_bytes("add:5"), [](Result<Bytes>) {});
  cluster.sim().run_for(millis(2));
  ASSERT_FALSE(sent.empty());
  ASSERT_EQ(replica_count(cluster, 0, "pre_prepares_sent"), 1u);
  ASSERT_EQ(cluster.replica(0).last_executed().value, 0u);

  const NodeId primary = cluster.replica_id(0);
  const NodeId backup = cluster.replica_id(1);
  const std::uint64_t failures = replica_count(cluster, 0, "auth_failures");
  const std::uint64_t received = replica_count(cluster, 0, "requests_received");
  cluster.network().send(backup, primary, BufView(corrupt_tag_for(sent, primary)));
  cluster.sim().run_for(millis(1));
  EXPECT_EQ(replica_count(cluster, 0, "auth_failures"), failures);
  EXPECT_EQ(replica_count(cluster, 0, "requests_received"), received + 1);
  EXPECT_EQ(replica_count(cluster, 0, "pre_prepares_sent"), 1u);

  Envelope next;
  next.type = MsgType::kRequest;
  next.sender = client.id();
  next.body = BufView(encode_request(client.id().value, 2, to_bytes("add:1")));
  next.auth = client_tags(cluster.keys(), cluster.config(), client.id(), next.body);
  const BufView wire = wire_of(next);
  cluster.network().send(backup, primary, BufView(corrupt_tag_for(wire, primary)));
  cluster.sim().run_for(millis(1));
  EXPECT_EQ(replica_count(cluster, 0, "auth_failures"), failures + 1);
  EXPECT_EQ(replica_count(cluster, 0, "pre_prepares_sent"), 1u);
}

}  // namespace
}  // namespace itdos::bft
