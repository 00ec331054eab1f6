// Recovery and liveness edge cases in the PBFT substrate: stale replicas
// rejoining via laggard help, view learning through state transfer,
// view-change backoff, Byzantine primary equivocation.
#include <gtest/gtest.h>

#include "bft/harness.hpp"

namespace itdos::bft {
namespace {

ClusterOptions fast_options(std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.checkpoint_interval = 4;
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

/// A `bft.*` counter of the replica at `rank`.
std::uint64_t replica_count(Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

TEST(BftRecoveryTest, StaleReplicaRejoinsWithoutFurtherTraffic) {
  // The e3 regression: a replica cut off past several committed-but-not-yet-
  // checkpointed requests must catch up via laggard help (triggered by its
  // own view-change probe) — even with NO new client traffic — and the
  // simulation must quiesce (no infinite view-change spin).
  Cluster cluster(fast_options(21), counter_factory());
  const NodeId lagger = cluster.replica_id(3);
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_link(lagger, cluster.replica_id(rank), false);
  }
  Client& client = cluster.add_client();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  cluster.network().heal_all_links();
  // Two more requests land at seqs 10-11 (committed, no checkpoint after).
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());

  // The system must reach quiescence in bounded events.
  const std::size_t ran = cluster.sim().run(100000);
  EXPECT_LT(ran, 100000u) << "simulation did not quiesce (view-change spin?)";
  EXPECT_EQ(cluster.replica(3).last_executed().value, 11u);
  EXPECT_FALSE(cluster.replica(3).in_view_change());
  const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(3).app());
  EXPECT_EQ(app.value(), 11);
}

TEST(BftRecoveryTest, RejoinedReplicaParticipatesInNewRequests) {
  Cluster cluster(fast_options(22), counter_factory());
  const NodeId lagger = cluster.replica_id(2);
  for (int rank = 0; rank < 4; ++rank) {
    if (rank != 2) cluster.network().set_link(lagger, cluster.replica_id(rank), false);
  }
  Client& client = cluster.add_client();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.network().heal_all_links();
  cluster.settle(500000);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle(500000);
  // The rejoined replica executed the new requests itself.
  EXPECT_EQ(cluster.replica(2).last_executed().value, 12u);
  EXPECT_GT(replica_count(cluster, 2, "commits_sent"), 0u);
}

TEST(BftRecoveryTest, RestartedReplicaCatchesUpViaRequestCatchUp) {
  Cluster cluster(fast_options(23), counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:2")).is_ok());
  }
  cluster.settle();
  // Replace replica 1 with a FRESH instance (state wiped).
  cluster.crash_replica(1);
  cluster.restart_replica(1);
  cluster.replica(1).request_catch_up();
  cluster.settle(500000);
  // f+1 matching offers certify the snapshot; the fresh replica catches up.
  EXPECT_GE(cluster.replica(1).last_executed().value, 4u);  // >= last checkpoint
  const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(1).app());
  EXPECT_GE(app.value(), 8);  // state at (or after) the certified point
  // And it serves new traffic.
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:2")).is_ok());
}

TEST(BftRecoveryTest, ViewChangeBackoffBoundsTraffic) {
  // One replica alone behind a partition: its view-change probes must back
  // off exponentially, not flood.
  Cluster cluster(fast_options(24), counter_factory());
  Client& client = cluster.add_client();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  // Isolate replica 3, then poke it with a request so its timer arms.
  const NodeId loner = cluster.replica_id(3);
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_link(loner, cluster.replica_id(rank), false);
  }
  // Forward a client request envelope to the isolated backup: it relays to
  // the (unreachable) primary and arms its timer.
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  cluster.settle(20000);
  // Within a generous simulated horizon the number of view changes stays
  // logarithmic-ish (backoff), not linear in time.
  cluster.sim().run_until(cluster.sim().now() + seconds(30));
  cluster.settle(20000);
  EXPECT_LT(replica_count(cluster, 3, "view_changes_sent"), 25u);
}

TEST(BftRecoveryTest, EquivocatingPrimaryCannotSplitBackups) {
  // The primary sends DIFFERENT pre-prepares for the same seq to different
  // backups (classic equivocation). Backups prepare conflicting digests and
  // never reach 2f matching prepares, the request stalls, the timeout fires,
  // and the view change installs an honest primary. Service continues and
  // no two correct replicas execute different requests at the same seq.
  Cluster cluster(fast_options(25), counter_factory());
  const NodeId primary = cluster.replica_id(0);
  // Mutate the primary's outbound PRE-PREPAREs per receiver: flip a payload
  // byte for half the backups. (Envelope MACs are per-receiver, so we must
  // corrupt AFTER MAC computation — the tag check fails and the message is
  // dropped for those backups; the effect is an equivocation-equivalent
  // split: some backups have the proposal, others do not.)
  int toggle = 0;
  cluster.network().set_interceptor(primary, [&](const net::Packet& p) {
    auto env = Envelope::decode(p.payload);
    if (env.is_ok() && env.value().type == MsgType::kPrePrepare) {
      if (++toggle % 2 == 0) {
        Bytes mutated = p.payload.clone_bytes();  // copy-on-write
        mutated[mutated.size() / 2] ^= 0x01;
        return std::optional<BufView>(BufView(std::move(mutated)));
      }
    }
    return std::optional<BufView>(p.payload);
  });
  Client& client = cluster.add_client();
  const Result<Bytes> result =
      cluster.invoke_sync(client, to_bytes("add:5"), seconds(20));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:5");
  cluster.settle(500000);
  // All correct replicas agree on the value.
  std::int64_t expected = -1;
  for (int rank = 1; rank < 4; ++rank) {
    const auto& app =
        dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    if (expected < 0) expected = app.value();
    EXPECT_EQ(app.value(), expected) << "rank " << rank;
  }
}

TEST(BftRecoveryTest, HelpLaggardProducesWeakCertificate) {
  // Direct check of the weak-certificate path: a laggard's view change
  // elicits state offers from >= f+1 correct peers with identical digests.
  Cluster cluster(fast_options(26), counter_factory());
  const NodeId lagger = cluster.replica_id(3);
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_link(lagger, cluster.replica_id(rank), false);
  }
  Client& client = cluster.add_client();
  for (int i = 0; i < 2; ++i) {  // below the checkpoint interval: no stable cert
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  EXPECT_EQ(cluster.replica(3).last_executed().value, 0u);
  cluster.network().heal_all_links();
  // One request after healing (seq 3 — still no checkpoint): the laggard
  // sees traffic it cannot execute, its probe view-change elicits help, and
  // the f+1 matching fresh snapshots catch it up with NO checkpoint cert.
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  cluster.settle(200000);
  EXPECT_EQ(cluster.replica(3).last_executed().value, 3u);
  EXPECT_EQ(replica_count(cluster, 3, "state_transfers"), 1u);
}

TEST(BftRecoveryTest, OwnStaleViewChangeEchoedBackIsHarmless) {
  // After rejoining through laggard help, the replica's abandoned VIEW-CHANGE
  // is still validly signed. A peer that echoes it back makes the replica
  // look like a laggard to itself: its state offer goes to its own address
  // (and is dropped there), and it keeps ordering requests.
  Cluster cluster(fast_options(26), counter_factory());
  const NodeId lagger = cluster.replica_id(3);
  Bytes view_change;
  cluster.network().set_interceptor(
      lagger, [&view_change](const net::Packet& p) -> std::optional<BufView> {
        if (view_change.empty() && !p.payload.empty() &&
            p.payload[0] == static_cast<std::uint8_t>(MsgType::kViewChange)) {
          view_change = p.payload.clone_bytes();
        }
        return p.payload;
      });
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_link(lagger, cluster.replica_id(rank), false);
  }
  Client& client = cluster.add_client();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  cluster.network().heal_all_links();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  cluster.settle(200000);
  ASSERT_EQ(replica_count(cluster, 3, "state_transfers"), 1u);
  ASSERT_FALSE(cluster.replica(3).in_view_change());
  ASSERT_FALSE(view_change.empty());
  const Result<Envelope> env = Envelope::decode(BufView(Bytes(view_change)));
  ASSERT_TRUE(env.is_ok());
  const Result<ViewChangeMsg> vc = ViewChangeMsg::decode(env.value().body);
  ASSERT_TRUE(vc.is_ok());
  ASSERT_TRUE(counters::after(vc.value().new_view.value, cluster.replica(3).view().value));

  const std::uint64_t macs = replica_count(cluster, 3, "macs_computed");
  cluster.network().send(cluster.replica_id(0), lagger, BufView(Bytes(view_change)));
  cluster.settle(200000);
  EXPECT_EQ(replica_count(cluster, 3, "macs_computed"), macs + 1);  // the self-addressed offer
  EXPECT_FALSE(cluster.replica(3).in_view_change());
  EXPECT_EQ(replica_count(cluster, 3, "state_transfers"), 1u);

  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  cluster.settle(200000);
  EXPECT_EQ(cluster.replica(3).last_executed().value, 4u);
  EXPECT_EQ(dynamic_cast<const CounterStateMachine&>(cluster.replica(3).app()).value(), 4);
}

}  // namespace
}  // namespace itdos::bft
