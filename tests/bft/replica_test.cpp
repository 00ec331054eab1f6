// Integration tests for the PBFT stack: normal case, duplicate suppression,
// crash faults, Byzantine replies, primary failure / view change, checkpoint
// garbage collection, and state transfer.
#include "bft/replica.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "bft/harness.hpp"
#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "crypto/signing.hpp"

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

TEST(BftClusterTest, NewViewCarriesAViewChangeAsItsSenderSignedIt) {
  // A VIEW-CHANGE body has an alignment pad at bytes 52-55 that decoding
  // skips. A Byzantine replica signs a body with a non-zero pad byte there;
  // the new primary accepts it, since the signature covers the bytes it
  // received. Backups must check that signature over those same bytes, or
  // they reject every NEW-VIEW that includes it and the view change stalls.
  Cluster cluster(fast_options(), counter_factory());
  cluster.crash_replica(0);  // the view-0 primary
  cluster.crash_replica(3);  // its signing key goes to the forger below
  const NodeId forger = cluster.replica_id(3);
  Rng key_rng(77);
  const crypto::SigningKey key =
      std::const_pointer_cast<crypto::Keystore>(cluster.keystore())->issue(forger, key_rng);

  ViewChangeMsg vc;
  vc.new_view = ViewId(1);
  vc.replica = forger;
  const Frame honest(forger, vc, Frame::trailer_bound(0, true));
  Bytes body(honest.body().begin(), honest.body().end());
  ASSERT_EQ(body.size(), 64u);
  body[52] = 0x01;
  const Result<ViewChangeMsg> read_back = ViewChangeMsg::decode(BufView::copy_of(body));
  ASSERT_TRUE(read_back.is_ok());
  ASSERT_EQ(read_back.value(), vc);  // the pad is invisible once decoded
  Frame forged(MsgType::kViewChange, forger, body, Frame::trailer_bound(0, true));
  const BufView wire = forged.seal_signature(key.sign(forged.body()));
  // Sent first, before any correct replica's VIEW-CHANGE: view 1 has no
  // quorum without it.
  for (int rank = 1; rank <= 2; ++rank) {
    cluster.network().send(forger, cluster.replica_id(rank), wire);
  }

  // A request the crashed primary never orders times the backups out.
  Client& client = cluster.add_client();
  client.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  // View 1 cannot commit (two correct replicas and a silent forger), so
  // look while it stands: just after its primary has adopted it.
  Replica& primary = cluster.replica(1);
  for (int ms = 0; ms < 2000 && (primary.view() != ViewId(1) || primary.in_view_change());
       ++ms) {
    cluster.sim().run_for(millis(1));
  }
  cluster.sim().run_for(millis(5));
  for (int rank = 1; rank <= 2; ++rank) {
    EXPECT_EQ(cluster.replica(rank).view(), ViewId(1)) << "rank " << rank;
    EXPECT_FALSE(cluster.replica(rank).in_view_change()) << "rank " << rank;
  }
  EXPECT_EQ(replica_count(cluster, 2, "auth_failures"), 0u);
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
    Bytes execute(const BufView& request, const crypto::Digest& digest, NodeId client,
                  SeqNum seq) override {
      (void)CounterStateMachine::execute(request, digest, client, seq);
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
  EXPECT_GE(cluster.sim().telemetry().metrics().counter_value(
                telemetry::metric_name("bft", client.id(), "retransmissions")),
            1u);
}

/// Makes every replica drop, on delivery, each packet whose envelope `env`
/// makes `drop(sender rank, receiver rank, env)` hold (a client's rank is
/// -1).
void drop_at_replicas(Cluster& cluster,
                      std::function<bool(int, int, const Envelope&)> drop) {
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_inbound_filter(
        cluster.replica_id(rank), [&cluster, rank, drop](const net::Packet& packet) {
          const Result<Envelope> env = Envelope::decode(packet.payload);
          return !env.is_ok() || !drop(cluster.config().rank_of(packet.from), rank, env.value());
        });
  }
}

/// Runs `cluster` in 1 ms steps until `done` holds, for at most `limit`.
bool run_until(Cluster& cluster, const std::function<bool()>& done, std::int64_t limit) {
  for (std::int64_t waited = 0; !done(); waited += millis(1)) {
    if (waited >= limit) return false;
    cluster.sim().run_for(millis(1));
  }
  return true;
}

/// The drops that leave slot 1 of view 0 prepared at rank 3 alone, and then
/// move the group to view 1 without rank 3's VIEW-CHANGE in the certificate.
/// In view 0 rank 1 misses the PRE-PREPARE, only rank 2's PREPARE gets
/// through (to rank 3), and no COMMIT does: rank 3 prepares and sends its
/// COMMIT, no other replica prepares. From then on rank 0 says nothing but
/// its VIEW-CHANGE, and rank 3's VIEW-CHANGE never reaches rank 1, the
/// view-1 primary, whose NEW-VIEW therefore leaves slot 1 out of O. The new
/// primary proposes slot 1 afresh.
bool old_view_commit_drops(bool in_view_0, int from, int to, MsgType type) {
  if (in_view_0) {
    if (type == MsgType::kPrePrepare) return to == 1;
    if (type == MsgType::kPrepare) return from == 3 || to != 3;
    return type == MsgType::kCommit;
  }
  if (from == 0) return type != MsgType::kViewChange;
  return type == MsgType::kViewChange && from == 3 && to == 1;
}

bool in_view_1(Cluster& cluster) {
  for (int rank = 1; rank < cluster.n(); ++rank) {
    const Replica& replica = cluster.replica(rank);
    if (replica.view().value != 1 || replica.in_view_change()) return false;
  }
  return true;
}

TEST(BftClusterTest, NewViewProposalGetsTheCommitOfAReplicaThatCommittedInTheOldView) {
  // Rank 3 sent a COMMIT for slot 1 in view 0, and view 1 proposes the slot
  // afresh: the same batch (the retransmitted request), or a second
  // client's request when the first client's own sends never reach the new
  // primary (the backups' relays of it do, after the view change). Rank 3
  // must send view 1's COMMIT either way: with rank 0 silent, ranks 1 and 2
  // need it for their 2f+1, and without it the slot would stall into
  // another view change.
  for (const bool other_batch : {false, true}) {
    SCOPED_TRACE(other_batch ? "another batch in slot 1" : "the same batch in slot 1");
    Cluster cluster(fast_options(), counter_factory());
    Client& first = cluster.add_client();
    Client& second = cluster.add_client();
    bool view_0 = true;
    drop_at_replicas(cluster, [&](int from, int to, const Envelope& env) {
      if (other_batch && env.type == MsgType::kRequest && env.sender == first.id() &&
          from < 0 && to == 1) {
        return true;
      }
      return old_view_commit_drops(view_0, from, to, env.type);
    });
    std::optional<Result<Bytes>> first_outcome;
    first.invoke(to_bytes("add:5"), [&](Result<Bytes> r) { first_outcome = std::move(r); });
    cluster.sim().run_for(millis(5));
    ASSERT_EQ(replica_count(cluster, 3, "commits_sent"), 1u);
    for (int rank = 0; rank < 3; ++rank) {
      ASSERT_EQ(replica_count(cluster, rank, "commits_sent"), 0u) << "rank " << rank;
    }
    view_0 = false;
    std::optional<Result<Bytes>> second_outcome;
    if (other_batch) {
      second.invoke(to_bytes("add:7"), [&](Result<Bytes> r) { second_outcome = std::move(r); });
    }

    ASSERT_TRUE(run_until(
        cluster,
        [&] { return first_outcome.has_value() && (!other_batch || second_outcome.has_value()); },
        millis(500)));
    ASSERT_TRUE(first_outcome->is_ok()) << first_outcome->status().to_string();
    // In the second case the first request runs after the second's add:7.
    EXPECT_EQ(to_string(first_outcome->value()), other_batch ? "VAL:12" : "VAL:5");
    const std::uint64_t slots = other_batch ? 2 : 1;
    EXPECT_EQ(replica_count(cluster, 3, "commits_sent"), 1 + slots);
    cluster.sim().run_for(millis(5));
    EXPECT_TRUE(in_view_1(cluster)) << "a slot stalled into another view change";
    for (int rank = 1; rank < cluster.n(); ++rank) {
      EXPECT_EQ(cluster.replica(rank).last_executed().value, slots) << "rank " << rank;
      const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
      EXPECT_EQ(app.value(), other_batch ? 12 : 5) << "rank " << rank;
    }
  }
}

TEST(BftClusterTest, OldViewVotesDoNotCountTowardTheNewView) {
  // As above, but no view-1 PREPARE reaches rank 3. Rank 3 still holds
  // view 0's PREPAREs and its own view-0 COMMIT for the same digest, and
  // ranks 1 and 2 send view 1's COMMITs: counted together they would make a
  // certificate of mixed views. Rank 3 must not commit on it. Once
  // PREPAREs reach it again, the slot commits in the next view, once
  // everywhere.
  Cluster cluster(fast_options(), counter_factory());
  bool view_0 = true;
  bool starve_3 = true;
  drop_at_replicas(cluster, [&view_0, &starve_3](int from, int to, const Envelope& env) {
    if (!view_0 && starve_3 && env.type == MsgType::kPrepare && to == 3) return true;
    return old_view_commit_drops(view_0, from, to, env.type);
  });
  Client& client = cluster.add_client();
  std::optional<Result<Bytes>> outcome;
  client.invoke(to_bytes("add:5"), [&](Result<Bytes> r) { outcome = std::move(r); });
  cluster.sim().run_for(millis(5));
  ASSERT_EQ(replica_count(cluster, 3, "commits_sent"), 1u);
  view_0 = false;

  ASSERT_TRUE(run_until(cluster, [&] { return in_view_1(cluster); }, millis(500)));
  ASSERT_TRUE(run_until(
      cluster,
      [&] {
        return replica_count(cluster, 1, "commits_sent") + replica_count(cluster, 2,
                                                                         "commits_sent") ==
               2;
      },
      millis(20)));
  cluster.sim().run_for(millis(5));  // both COMMITs reach rank 3
  ASSERT_TRUE(in_view_1(cluster));
  EXPECT_EQ(replica_count(cluster, 3, "commits_sent"), 1u);
  for (int rank = 1; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 0u) << "rank " << rank;
  }
  EXPECT_FALSE(outcome.has_value());

  starve_3 = false;
  ASSERT_TRUE(run_until(cluster, [&] { return outcome.has_value(); }, seconds(2)));
  ASSERT_TRUE(outcome->is_ok()) << outcome->status().to_string();
  EXPECT_EQ(to_string(outcome->value()), "VAL:5");
  cluster.sim().run_for(millis(50));
  for (int rank = 1; rank < cluster.n(); ++rank) {
    EXPECT_GE(cluster.replica(rank).view().value, 2u) << "rank " << rank;
    const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 5) << "rank " << rank;
  }
}

TEST(BftMatchingCollectorTest, RequiresFPlusOneMatching) {
  MatchingReplyCollector collector(1);
  EXPECT_FALSE(collector.add(NodeId(1), to_bytes("A")).has_value());
  EXPECT_FALSE(collector.add(NodeId(2), to_bytes("B")).has_value());
  const auto decided = collector.add(NodeId(3), to_bytes("A"));
  ASSERT_TRUE(decided.has_value());
  EXPECT_EQ(to_string(*decided), "A");
}

TEST(BftMatchingCollectorTest, DecidesTheFirstResultAfterAnother) {
  // f = 2: the first result is decided on its third copy, with a different
  // result in between. The reply buffer is rewritten after every add, so
  // each result's key must be the collector's own copy.
  MatchingReplyCollector collector(2);
  Bytes reply = to_bytes("A");
  EXPECT_FALSE(collector.add(NodeId(1), reply).has_value());
  reply[0] = 'B';
  EXPECT_FALSE(collector.add(NodeId(2), reply).has_value());
  reply[0] = 'A';
  EXPECT_FALSE(collector.add(NodeId(3), reply).has_value());
  EXPECT_FALSE(collector.add(NodeId(3), reply).has_value());  // a replica counts once
  reply[0] = 'B';
  EXPECT_FALSE(collector.add(NodeId(4), reply).has_value());
  reply[0] = 'A';
  const auto decided = collector.add(NodeId(5), reply);
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
