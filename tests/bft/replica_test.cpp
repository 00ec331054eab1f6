// Integration tests for the PBFT stack: normal case, duplicate suppression,
// crash faults, Byzantine replies, primary failure / view change, checkpoint
// garbage collection, and state transfer.
#include "bft/replica.hpp"

#include <gtest/gtest.h>

#include "bft/harness.hpp"

namespace itdos::bft {
namespace {

ClusterOptions fast_options(int f = 1, std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.f = f;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
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

TEST(BftClusterTest, SingleInvocationCompletes) {
  Cluster cluster(fast_options(), counter_factory());
  Client& client = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:5"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:5");
}

TEST(BftClusterTest, TimedOutInvokeSyncToleratesTheLateCompletion) {
  Cluster cluster(fast_options(), counter_factory());
  Client& client = cluster.add_client();
  // One nanosecond is far shorter than a round trip: the call gives up with
  // its request still in flight.
  const Result<Bytes> timed_out = cluster.invoke_sync(client, to_bytes("add:5"), 1);
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), Errc::kUnavailable);

  // Draining delivers the late completion after invoke_sync has returned;
  // the next call sees the first increment already applied.
  cluster.sim().run_for(millis(500));
  const Result<Bytes> next = cluster.invoke_sync(client, to_bytes("add:7"));
  ASSERT_TRUE(next.is_ok()) << next.status().to_string();
  EXPECT_EQ(to_string(next.value()), "VAL:12");
}

TEST(BftClusterTest, HotPathRecyclesArenaChunks) {
  // Envelope marshaling goes through Simulator::arena(); once the first
  // round's frames are delivered and dropped, later rounds must reuse
  // their chunk capacity instead of allocating fresh.
  Cluster cluster(fast_options(), counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  EXPECT_GT(cluster.sim().arena().reuses(), 0u);
}

TEST(BftClusterTest, AllReplicasExecuteInSameOrder) {
  Cluster cluster(fast_options(), counter_factory());
  Client& client = cluster.add_client();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:10")).is_ok());
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:100")).is_ok());
  cluster.settle();
  for (int rank = 0; rank < cluster.n(); ++rank) {
    const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 111) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 3u);
  }
}

TEST(BftClusterTest, SequentialResultsReflectTotalOrder) {
  Cluster cluster(fast_options(), counter_factory());
  Client& client = cluster.add_client();
  for (int i = 1; i <= 10; ++i) {
    const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:1"));
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(to_string(result.value()), "VAL:" + std::to_string(i));
  }
}

TEST(BftClusterTest, TwoClientsBothServed) {
  Cluster cluster(fast_options(), counter_factory());
  Client& alice = cluster.add_client();
  Client& bob = cluster.add_client();
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    alice.invoke(to_bytes("add:1"), [&](Result<Bytes> r) {
      ASSERT_TRUE(r.is_ok());
      ++completions;
    });
    bob.invoke(to_bytes("add:2"), [&](Result<Bytes> r) {
      ASSERT_TRUE(r.is_ok());
      ++completions;
    });
  }
  cluster.settle();
  EXPECT_EQ(completions, 10);
  const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(0).app());
  EXPECT_EQ(app.value(), 15);
}

TEST(BftClusterTest, ToleratesOneCrashedBackup) {
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(3);  // backup (primary of view 0 is rank 0)
  Client& client = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:7"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:7");
}

TEST(BftClusterTest, PrimaryCrashTriggersViewChange) {
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(0);  // the view-0 primary
  Client& client = cluster.add_client();
  const Result<Bytes> result =
      cluster.invoke_sync(client, to_bytes("add:3"), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:3");
  // Remaining replicas moved past view 0.
  for (int rank = 1; rank < cluster.n(); ++rank) {
    EXPECT_GE(cluster.replica(rank).view().value, 1u) << "rank " << rank;
    EXPECT_FALSE(cluster.replica(rank).in_view_change());
  }
}

TEST(BftClusterTest, SystemKeepsWorkingAfterViewChange) {
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(0);
  Client& client = cluster.add_client();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1"), seconds(10)).is_ok());
  // Several more requests under the new primary.
  for (int i = 0; i < 5; ++i) {
    const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:1"));
    ASSERT_TRUE(result.is_ok()) << "i=" << i << ": " << result.status().to_string();
  }
  const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(1).app());
  EXPECT_EQ(app.value(), 6);
}

TEST(BftClusterTest, ByzantineReplyDoesNotFoolClient) {
  Cluster cluster(fast_options(), counter_factory());
  // Replica rank 2 lies in every reply it sends (outbound mutation of REPLY
  // envelopes only: flip bytes in the body, breaking its MAC — the client
  // must simply ignore it and still complete from the other 3).
  const NodeId liar = cluster.replica_id(2);
  cluster.network().set_interceptor(liar, [&](const net::Packet& p) {
    auto env = Envelope::decode(p.payload);
    if (env.is_ok() && env.value().type == MsgType::kReply) {
      Bytes mutated = p.payload.clone_bytes();  // copy-on-write
      mutated[mutated.size() / 2] ^= 0xff;
      return std::optional<BufView>(BufView(std::move(mutated)));
    }
    return std::optional<BufView>(p.payload);
  });
  Client& client = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:9"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(to_string(result.value()), "VAL:9");
}

TEST(BftClusterTest, ByzantineConsistentLieOutvoted) {
  // The liar forges a *validly MAC'd* wrong reply by running a divergent
  // state machine. f+1 matching correct replies still win.
  class LyingCounter : public CounterStateMachine {
   public:
    Bytes execute(const BufView& request, NodeId client, SeqNum seq) override {
      (void)CounterStateMachine::execute(request, client, seq);
      return to_bytes("VAL:666");  // always lies
    }
  };
  const auto factory = [](int rank) -> std::unique_ptr<StateMachine> {
    if (rank == 1) return std::make_unique<LyingCounter>();
    return std::make_unique<CounterStateMachine>();
  };
  Cluster cluster(fast_options(), factory);
  Client& client = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:4"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(to_string(result.value()), "VAL:4");
}

TEST(BftClusterTest, CheckpointsAdvanceStableSeq) {
  ClusterOptions opts = fast_options();
  opts.checkpoint_interval = 4;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_GE(cluster.replica(rank).stable_checkpoint_seq().value, 8u)
        << "rank " << rank;
  }
}

TEST(BftClusterTest, LaggingReplicaCatchesUpViaStateTransfer) {
  ClusterOptions opts = fast_options();
  opts.checkpoint_interval = 4;
  Cluster cluster(opts, counter_factory());
  // Cut rank 3 off from everyone.
  const NodeId lagger = cluster.replica_id(3);
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_link(lagger, cluster.replica_id(rank), false);
  }
  Client& client = cluster.add_client();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  EXPECT_EQ(cluster.replica(3).last_executed().value, 0u);

  // Heal; the next burst of traffic carries checkpoint certificates that
  // reveal the gap and trigger a state transfer.
  cluster.network().heal_all_links();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  EXPECT_GE(replica_count(cluster, 3, "state_transfers"), 1u);
  const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(3).app());
  EXPECT_EQ(app.value(), 20);
  EXPECT_EQ(cluster.replica(3).last_executed().value, 20u);
}

TEST(BftClusterTest, DuplicateClientRequestNotReExecuted) {
  Cluster cluster(fast_options(), counter_factory());
  // Slow network forces client retransmissions; the counter must still
  // reflect exactly one execution per invoke.
  Cluster slow(
      [] {
        ClusterOptions opts = fast_options();
        opts.net_config.min_delay_ns = millis(15);
        opts.net_config.max_delay_ns = millis(30);
        opts.client_retry_ns = millis(20);  // retry while replies in flight
        // Keep backups patient: the retry storm must not trigger view changes.
        opts.view_change_timeout_ns = millis(800);
        return opts;
      }(),
      counter_factory());
  Client& client = slow.add_client();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(slow.invoke_sync(client, to_bytes("add:1"), seconds(20)).is_ok());
  }
  slow.settle();
  const auto& app = dynamic_cast<const CounterStateMachine&>(slow.replica(0).app());
  EXPECT_EQ(app.value(), 3);
}

TEST(BftClusterTest, LossyNetworkStillCompletes) {
  ClusterOptions opts = fast_options();
  opts.net_config.drop_probability = 0.05;
  opts.net_config.duplicate_probability = 0.05;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 5; ++i) {
    const Result<Bytes> result =
        cluster.invoke_sync(client, to_bytes("add:1"), seconds(30));
    ASSERT_TRUE(result.is_ok()) << "i=" << i;
  }
}

TEST(BftClusterTest, DeterministicAcrossIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    Cluster cluster(fast_options(1, seed), counter_factory());
    Client& client = cluster.add_client();
    std::string transcript;
    for (int i = 0; i < 5; ++i) {
      const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:2"));
      transcript += to_string(result.value_or(to_bytes("FAIL"))) + ";";
    }
    transcript += std::to_string(cluster.sim().now().ns);
    return transcript;
  };
  EXPECT_EQ(run(7), run(7));
}

class BftScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(BftScaleTest, CompletesAtAllGroupSizes) {
  Cluster cluster(fast_options(GetParam()), counter_factory());
  Client& client = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:1"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:1");
}

TEST_P(BftScaleTest, ToleratesFCrashes) {
  const int f = GetParam();
  Cluster cluster(fast_options(f), counter_factory());
  // Crash f backups (keep the primary alive for speed).
  for (int i = 0; i < f; ++i) cluster.crash_replica(1 + i);
  Client& client = cluster.add_client();
  const Result<Bytes> result =
      cluster.invoke_sync(client, to_bytes("add:1"), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, BftScaleTest, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           return "f" + std::to_string(info.param);
                         });

TEST(BftClusterTest, MessageCountsGrowWithGroupSize) {
  // §3.2: "the number of messages exchanged is directly related to the
  // number of members in the ordering group" — quadratic in n.
  auto deliveries_for = [](int f) {
    Cluster cluster(fast_options(f), counter_factory());
    Client& client = cluster.add_client();
    const telemetry::MetricsRegistry& reg = cluster.sim().telemetry().metrics();
    const std::uint64_t before = reg.counter_value("net.packets_delivered");
    [&] { ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok()); }();
    return reg.counter_value("net.packets_delivered") - before;
  };
  const auto d1 = deliveries_for(1);
  const auto d2 = deliveries_for(2);
  const auto d3 = deliveries_for(3);
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  // Super-linear growth: going 4 -> 10 replicas (2.5x) must grow traffic
  // by more than 2.5x.
  EXPECT_GT(static_cast<double>(d3) / d1, 2.5);
}

TEST(BftClusterTest, ClientRetransmitsAgainstSilentPrimary) {
  Cluster cluster(fast_options(), counter_factory());
  // Primary drops all inbound client requests (interceptor on client).
  // The client's retry broadcast reaches the backups, which forward and
  // eventually force a view change.
  const NodeId primary = cluster.replica_id(0);
  cluster.network().set_link(NodeId(1000), primary, false);  // client id 1000
  Client& client = cluster.add_client();
  ASSERT_EQ(client.id(), NodeId(1000));
  const Result<Bytes> result =
      cluster.invoke_sync(client, to_bytes("add:2"), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GE(client.retransmissions(), 1u);
}

TEST(BftMatchingCollectorTest, RequiresFPlusOneMatching) {
  MatchingReplyCollector collector(1);
  EXPECT_FALSE(collector.add(NodeId(1), to_bytes("A")).has_value());
  EXPECT_FALSE(collector.add(NodeId(2), to_bytes("B")).has_value());
  const auto decided = collector.add(NodeId(3), to_bytes("A"));
  ASSERT_TRUE(decided.has_value());
  EXPECT_EQ(to_string(*decided), "A");
}

TEST(BftMatchingCollectorTest, ByteInequalityNeverMatches) {
  // The §3.6 heterogeneity failure mode in miniature: two replicas encode
  // the same logical value with different bytes; the stock collector can
  // never reach f+1.
  MatchingReplyCollector collector(1);
  EXPECT_FALSE(collector.add(NodeId(1), to_bytes("42-as-big-endian")).has_value());
  EXPECT_FALSE(collector.add(NodeId(2), to_bytes("42-as-little-endian")).has_value());
  EXPECT_FALSE(collector.add(NodeId(3), to_bytes("42-as-text")).has_value());
}

}  // namespace
}  // namespace itdos::bft
