// Request hand-over across a view change: client requests the old view
// never ordered reach the new primary from the replicas that hold them,
// not from a client retransmission. The first three tests drop the
// client's later REQUESTs, so only the hand-over can complete a request;
// the last two check the bounds on what a replica holds.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "client_auth.hpp"

namespace itdos::bft {
namespace {

ClusterOptions fast_options(std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.f = 1;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

std::uint64_t counter_value(Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

std::int64_t app_value(Cluster& cluster, int rank) {
  return dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app()).value();
}

bool is_type(const net::Packet& packet, MsgType type) {
  const Result<Envelope> env = Envelope::decode(packet.payload);
  return env.is_ok() && env.value().type == type;
}

/// Passes the first packet `client` sends to `node` and drops the rest, so
/// a replica hears one REQUEST (here: the first broadcast retry) and no
/// retransmission after it.
net::Network::InboundFilter first_request_only(std::map<NodeId, int>& seen, NodeId client,
                                               NodeId node) {
  return [&seen, client, node](const net::Packet& p) {
    return p.from != client || ++seen[node] == 1;
  };
}

TEST(HandoverTest, CrashedPrimarysRequestCompletesWithoutAnotherRetry) {
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(0);
  Client& client = cluster.add_client();
  std::map<NodeId, int> seen;
  for (int rank = 1; rank < cluster.n(); ++rank) {
    const NodeId node = cluster.replica_id(rank);
    cluster.network().set_inbound_filter(node, first_request_only(seen, client.id(), node));
  }
  std::optional<Result<Bytes>> reply;
  client.invoke(to_bytes("add:3"), [&reply](Result<Bytes> r) { reply = std::move(r); });
  cluster.sim().run_for(seconds(2));

  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->is_ok()) << reply->status().to_string();
  EXPECT_EQ(to_string(reply->value()), "VAL:3");
  for (int rank = 1; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).view().value, 1u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).held_requests(), 0u) << "rank " << rank;
    EXPECT_EQ(app_value(cluster, rank), 3) << "rank " << rank;
  }
}

TEST(HandoverTest, ProposalThatOvertakesNewViewIsPreparedAfterAdoption) {
  // The new primary proposes the held request right after sending
  // NEW-VIEW. Rank 3 hears NEW-VIEW 2 ms late, so the proposal (and rank
  // 2's PREPARE) reach it while it is still changing view; it must keep
  // them and prepare once it adopts, or the slot never prepares and the
  // group changes view again.
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(0);
  Client& client = cluster.add_client();
  std::map<NodeId, int> seen;
  bool new_view_delayed = false;
  for (int rank = 1; rank < cluster.n(); ++rank) {
    const NodeId node = cluster.replica_id(rank);
    net::Network::InboundFilter requests = first_request_only(seen, client.id(), node);
    if (rank != 3) {
      cluster.network().set_inbound_filter(node, std::move(requests));
      continue;
    }
    cluster.network().set_inbound_filter(
        node, [&cluster, &new_view_delayed, requests](const net::Packet& p) {
          if (!requests(p)) return false;
          if (new_view_delayed || !is_type(p, MsgType::kNewView)) return true;
          new_view_delayed = true;
          cluster.sim().schedule_after(millis(2), [&cluster, p] {
            cluster.network().send(p.from, p.to, p.payload);
          });
          return false;
        });
  }
  std::optional<Result<Bytes>> reply;
  client.invoke(to_bytes("add:4"), [&reply](Result<Bytes> r) { reply = std::move(r); });
  bool buffered = false;
  while (cluster.sim().now() < SimTime{seconds(2)} && cluster.sim().step()) {
    buffered = buffered || cluster.replica(3).buffered_next_view_messages() > 0;
  }

  EXPECT_TRUE(new_view_delayed);
  EXPECT_TRUE(buffered);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->is_ok()) << reply->status().to_string();
  EXPECT_EQ(to_string(reply->value()), "VAL:4");
  for (int rank = 1; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).view().value, 1u) << "rank " << rank;
    EXPECT_EQ(counter_value(cluster, rank, "view_changes_sent"), 1u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).buffered_next_view_messages(), 0u) << "rank " << rank;
    EXPECT_EQ(app_value(cluster, rank), 4) << "rank " << rank;
  }
}

TEST(HandoverTest, PartitionedPrimarysParkedEntriesAreOrderedInTheNextView) {
  // Batching on with a 50 ms hold. The view-0 primary is alive but the
  // backups hear nothing from it while they are in view 0. Client B's
  // request reaches everyone (its broadcast retry arms the backups'
  // timers); client A's first request reaches the primary 55 ms in and
  // nothing of A's reaches anyone after. The primary's own timer fires at
  // 60 ms with A still parked: A survives only if the demoted primary
  // keeps it and relays it once it adopts view 1.
  ClusterOptions opts = fast_options(3);
  opts.batch.max_entries = 8;
  opts.batch.max_hold_ns = millis(50);
  Cluster cluster(opts, counter_factory());
  Client& b = cluster.add_client();
  Client& a = cluster.add_client();
  const NodeId old_primary = cluster.replica_id(0);
  int a_requests = 0;
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_inbound_filter(
        cluster.replica_id(rank),
        [&cluster, &a, &a_requests, old_primary, rank](const net::Packet& p) {
          if (p.from == a.id() && a_requests++ > 0) return false;
          return rank == 0 || p.from != old_primary || cluster.replica(rank).view().value != 0;
        });
  }
  std::optional<Result<Bytes>> reply_a;
  std::optional<Result<Bytes>> reply_b;
  b.invoke(to_bytes("add:2"), [&reply_b](Result<Bytes> r) { reply_b = std::move(r); });
  cluster.sim().run_until(SimTime{millis(55)});
  a.invoke(to_bytes("add:5"), [&reply_a](Result<Bytes> r) { reply_a = std::move(r); });
  cluster.sim().run_until(SimTime{millis(70)});
  // Demoted before A's hold ran out: the parked entry is now held.
  EXPECT_TRUE(cluster.replica(0).in_view_change());
  EXPECT_EQ(cluster.replica(0).held_requests(), 1u);
  cluster.sim().run_for(seconds(1));

  ASSERT_TRUE(reply_a.has_value());
  ASSERT_TRUE(reply_a->is_ok()) << reply_a->status().to_string();
  ASSERT_TRUE(reply_b.has_value());
  ASSERT_TRUE(reply_b->is_ok()) << reply_b->status().to_string();
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).view().value, 1u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).held_requests(), 0u) << "rank " << rank;
    EXPECT_EQ(app_value(cluster, rank), 7) << "rank " << rank;
  }
}

TEST(HandoverTest, HeldRequestsStayWithinTheClientSpanAndLeaveOnExecution) {
  // A client whose REQUESTs to the backups span 10 * pipeline_depth
  // timestamps at once: every one is relayed and executes, but no replica
  // ever holds more than 2 * pipeline_depth of them.
  ClusterOptions opts = fast_options(7);
  opts.pipeline_depth = 2;
  const std::size_t bound = 2 * static_cast<std::size_t>(opts.pipeline_depth);
  const std::uint64_t span = 10 * static_cast<std::uint64_t>(opts.pipeline_depth);
  Cluster cluster(opts, counter_factory());
  const NodeId client(4242);
  for (std::uint64_t ts = 1; ts <= span; ++ts) {
    RequestMsg request;
    request.client = client;
    request.timestamp = ts;
    request.payload = BufView(to_bytes("add:1"));
    Envelope env;
    env.type = MsgType::kRequest;
    env.sender = client;
    env.body = BufView(body_of(request));
    env.auth = client_tags(cluster.keys(), cluster.config(), client, env.body);
    const BufView wire = wire_of(env);
    for (int rank = 1; rank < cluster.n(); ++rank) {
      cluster.network().send(client, cluster.replica_id(rank), wire);
    }
  }
  std::size_t peak = 0;
  while (cluster.sim().now() < SimTime{seconds(1)} && cluster.sim().step()) {
    for (int rank = 0; rank < cluster.n(); ++rank) {
      peak = std::max(peak, cluster.replica(rank).held_requests());
    }
  }

  EXPECT_EQ(peak, bound);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).view().value, 0u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).held_requests(), 0u) << "rank " << rank;
    EXPECT_EQ(app_value(cluster, rank), static_cast<std::int64_t>(span)) << "rank " << rank;
  }
}

TEST(HandoverTest, NextViewBufferKeepsOnePerTypeSeqAndSenderInsideTheWindow) {
  // Rank 3 never hears NEW-VIEW(1), so it stays in the view change while
  // view 1's primary (rank 1) and rank 2 send it agreement messages for
  // three windows of seqs, each twice, plus kinds neither may send. It
  // keeps the first per (type, seq, sender) inside its window and nothing
  // else.
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(0);
  const NodeId target = cluster.replica_id(3);
  cluster.network().set_inbound_filter(
      target, [](const net::Packet& p) { return !is_type(p, MsgType::kNewView); });
  Client& client = cluster.add_client();
  client.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  cluster.sim().run_until(SimTime{millis(105)});
  const Replica& lagging = cluster.replica(3);
  ASSERT_TRUE(lagging.in_view_change());
  ASSERT_EQ(lagging.view().value, 1u);

  const auto send = [&](NodeId from, MsgType type, Bytes body) {
    Envelope env;
    env.type = type;
    env.sender = from;
    env.body = BufView(std::move(body));
    Bytes entry;
    add_entry(entry, target, cluster.keys().tag(from, target, mac_input(env.type, env.body)));
    env.auth = AuthVector(BufView(std::move(entry)));
    cluster.network().send(from, target, wire_of(env));
  };
  const auto window = static_cast<std::uint64_t>(cluster.config().watermark_window());
  const NodeId primary = cluster.replica_id(1);
  const NodeId backup = cluster.replica_id(2);
  for (int copy = 0; copy < 2; ++copy) {
    for (std::uint64_t seq = 1; seq <= 3 * window; ++seq) {
      PrePrepareMsg pp;
      pp.view = ViewId(1);
      pp.seq = SeqNum(seq);
      send(primary, MsgType::kPrePrepare, body_of(pp));
      send(backup, MsgType::kPrePrepare, body_of(pp));  // not view 1's primary
      for (const NodeId from : {primary, backup}) {
        PrepareMsg prepare;
        prepare.view = ViewId(1);
        prepare.seq = SeqNum(seq);
        prepare.replica = from;
        send(from, MsgType::kPrepare, body_of(prepare));  // the primary never prepares
        CommitMsg commit;
        commit.view = ViewId(1);
        commit.seq = SeqNum(seq);
        commit.replica = from;
        send(from, MsgType::kCommit, body_of(commit));
      }
    }
  }
  cluster.sim().run_for(millis(1));

  ASSERT_TRUE(lagging.in_view_change());
  // Per seq of the window: the primary's PRE-PREPARE, the backup's
  // PREPARE and both COMMITs.
  EXPECT_EQ(lagging.buffered_next_view_messages(), 4 * window);
}

}  // namespace
}  // namespace itdos::bft
