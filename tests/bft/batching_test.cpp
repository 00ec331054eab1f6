// Cluster-level tests for batch formation + pipelined agreement: batched
// correctness, same-seed formation determinism, the urgent-class latency
// bound, riders sharing client slots, f-boundary behaviour with batching on, pipelined clients, view
// changes over in-flight batches, state transfer across the batched
// snapshot format, and requests parked while the watermark window is full.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {
namespace {

ClusterOptions batched_options(int f = 1, std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.f = f;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.batch.max_entries = 8;
  opts.batch.max_hold_ns = micros(150);
  opts.pipeline_depth = 8;
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

Cluster::AppFactory log_factory() {
  return [](int) { return std::make_unique<LogStateMachine>(); };
}

/// A stand-in for the ITDOS queue's formation classes: payloads starting
/// with '!' are urgent (sync points), with '~' riders (queue acks); every
/// other payload is a client entry, traced under its length.
class ClassAwareLog : public LogStateMachine {
 public:
  batch::EntryClass classify(ByteView request) const override {
    if (!request.empty() && request.front() == '!') return batch::EntryClass::kUrgent;
    if (!request.empty() && request.front() == '~') return batch::EntryClass::kRider;
    return batch::EntryClass::kClient;
  }
  std::uint64_t trace_of(ByteView request) const override {
    return classify(request) == batch::EntryClass::kClient ? request.size() : 0;
  }
};

Cluster::AppFactory class_aware_factory() {
  return [](int) { return std::make_unique<ClassAwareLog>(); };
}

/// A `bft.*` counter of the replica at `rank`.
std::uint64_t replica_count(Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

// Drives `count` pipelined invocations from one client and settles.
int run_pipelined(Cluster& cluster, Client& client, int count,
                  const std::string& prefix = "add:1") {
  int completions = 0;
  for (int i = 0; i < count; ++i) {
    client.invoke(to_bytes(prefix), [&completions](Result<Bytes> r) {
      if (r.is_ok()) ++completions;
    });
  }
  cluster.settle();
  return completions;
}

TEST(BatchingTest, BatchedClusterExecutesEveryRequestOnce) {
  Cluster cluster(batched_options(), counter_factory());
  Client& client = cluster.add_client();
  EXPECT_EQ(run_pipelined(cluster, client, 40), 40);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    const auto& app =
        dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 40) << "rank " << rank;
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(BatchingTest, BatchesActuallyForm) {
  Cluster cluster(batched_options(), counter_factory());
  Client& client = cluster.add_client();
  ASSERT_EQ(run_pipelined(cluster, client, 40), 40);
  // With depth-8 clients feeding an 8-entry cap, multi-entry batches must
  // have formed: fewer slots than requests.
  EXPECT_LT(cluster.replica(1).last_executed().value, 40u);
  const auto& metrics = cluster.sim().telemetry().metrics();
  const telemetry::Histogram* sizes = metrics.find_histogram("batch.size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_GT(sizes->count(), 0u);
  EXPECT_GT(sizes->max(), 1u);
  const telemetry::Histogram* holds = metrics.find_histogram("batch.hold_ns");
  ASSERT_NE(holds, nullptr);
  EXPECT_GT(holds->count(), 0u);
}

TEST(BatchingTest, SameSeedSameBatchesByteStable) {
  // Formation determinism: identical seeds must yield byte-identical
  // replicated logs AND identical slot boundaries on every replica.
  const auto run = [](std::uint64_t seed) {
    Cluster cluster(batched_options(1, seed), log_factory());
    Client& a = cluster.add_client();
    Client& b = cluster.add_client();
    for (int i = 0; i < 15; ++i) {
      a.invoke(to_bytes("a" + std::to_string(i)), [](Result<Bytes>) {});
      b.invoke(to_bytes("b" + std::to_string(i)), [](Result<Bytes>) {});
    }
    cluster.settle();
    Bytes digest_input;
    const auto& app =
        dynamic_cast<const LogStateMachine&>(cluster.replica(0).app());
    for (const Bytes& entry : app.entries()) {
      append(digest_input, entry);
      digest_input.push_back(0x1f);
    }
    digest_input.push_back(
        static_cast<std::uint8_t>(cluster.replica(0).last_executed().value));
    return crypto::sha256(digest_input);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(11), run(11));
}

TEST(BatchingTest, UrgentNeverHeldPastOneFlush) {
  // A lone non-urgent request waits out max_hold_ns; an urgent one must
  // flush immediately. Use a long hold so the two cases are far apart.
  ClusterOptions opts = batched_options();
  opts.batch.max_entries = 64;
  opts.batch.max_hold_ns = millis(20);
  Cluster cluster(opts, class_aware_factory());
  Client& client = cluster.add_client();

  const SimTime urgent_start = cluster.sim().now();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("!urgent")).is_ok());
  const std::int64_t urgent_latency = cluster.sim().now() - urgent_start;
  EXPECT_LT(urgent_latency, millis(5));  // never held toward the 20ms cap

  const SimTime lazy_start = cluster.sim().now();
  ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("lazy")).is_ok());
  const std::int64_t lazy_latency = cluster.sim().now() - lazy_start;
  EXPECT_GE(lazy_latency, millis(20));  // held for batch-mates that never came
}

TEST(BatchingTest, RidersShareClientSlots) {
  // The paper's schedule (max_entries = 1) with a queue ack beside every
  // other client request, as ITDOS elements order them: the acks ride in
  // client slots, so N requests plus their N/2 acks take N slots, not 1.5N.
  ClusterOptions opts;
  opts.f = 1;
  opts.seed = 23;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.batch.max_hold_ns = millis(5);
  Cluster cluster(opts, class_aware_factory());
  Client& client = cluster.add_client();
  std::vector<Client*> ackers;
  for (int i = 0; i < 4; ++i) ackers.push_back(&cluster.add_client());

  constexpr int kRequests = 8;
  int acks_done = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 2 == 0) {
      ackers[static_cast<std::size_t>(i / 2)]->invoke(
          to_bytes("~ack"), [&acks_done](Result<Bytes> r) { acks_done += r.is_ok(); });
    }
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("req")).is_ok());
  }
  cluster.settle();
  EXPECT_EQ(acks_done, kRequests / 2);
  EXPECT_EQ(replica_count(cluster, 0, "pre_prepares_sent"), std::uint64_t{kRequests});
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, std::uint64_t{kRequests})
        << "rank " << rank;
    const auto& app = dynamic_cast<const LogStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.entries().size(), std::size_t{kRequests + kRequests / 2}) << "rank " << rank;
  }
  // The batch metrics count client entries only: every slot reads 1.
  const telemetry::Histogram* sizes =
      cluster.sim().telemetry().metrics().find_histogram("batch.size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), std::uint64_t{kRequests});
  EXPECT_EQ(sizes->max(), 1u);
}

TEST(BatchingTest, SlotLedByARiderIsTracedUnderItsClientEntry) {
  // A rider parked first leads the slot its client entry starts. The slot
  // must still carry the client entry's trace id: at the primary's
  // proposal, at every backup's PREPARE, and after a view change
  // re-proposes it. COMMITs are lost until the primary crashes, so the
  // slot prepares in view 0 and commits only in view 1.
  ClusterOptions opts;
  opts.f = 1;
  opts.seed = 29;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.batch.max_hold_ns = millis(5);
  Cluster cluster(opts, class_aware_factory());
  bool losing_commits = true;
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_inbound_filter(cluster.replica_id(rank), [&](const net::Packet& p) {
      const auto env = Envelope::decode(p.payload);
      return !losing_commits || !env.is_ok() || env.value().type != MsgType::kCommit;
    });
  }
  Client& acker = cluster.add_client();
  Client& client = cluster.add_client();
  acker.invoke(to_bytes("~ack"), [](Result<Bytes>) {});
  cluster.sim().run_for(micros(200));  // the ack is parked at the primary
  const Bytes request = to_bytes("traced request");
  const std::uint64_t trace = request.size();
  std::optional<Result<Bytes>> reply;
  client.invoke(BufView(Bytes(request)), [&reply](Result<Bytes> r) { reply = std::move(r); });
  cluster.sim().run_for(millis(1));

  const telemetry::Tracer& tracer = cluster.sim().telemetry().tracer();
  const auto events = [&](telemetry::TraceKind kind, std::uint64_t view) {
    std::vector<telemetry::TraceEvent> out;
    for (const telemetry::TraceEvent& e : tracer.events()) {
      if (e.kind == kind && e.a == view && e.b == 1) out.push_back(e);
    }
    return out;
  };
  const std::vector<telemetry::TraceEvent> proposals =
      events(telemetry::TraceKind::kBftPrePrepare, 0);
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_EQ(proposals[0].trace, trace);
  const std::vector<telemetry::TraceEvent> prepares =
      events(telemetry::TraceKind::kBftPrepare, 0);
  ASSERT_EQ(prepares.size(), 3u);
  for (const telemetry::TraceEvent& e : prepares) EXPECT_EQ(e.trace, trace);
  EXPECT_EQ(cluster.replica(1).last_executed().value, 0u);

  cluster.crash_replica(0);
  losing_commits = false;
  cluster.sim().run_for(millis(500));
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->is_ok());
  EXPECT_EQ(cluster.replica(1).view().value, 1u);
  const std::vector<telemetry::TraceEvent> commits =
      events(telemetry::TraceKind::kBftCommit, 1);
  ASSERT_EQ(commits.size(), 3u);
  for (const telemetry::TraceEvent& e : commits) EXPECT_EQ(e.trace, trace);
}

TEST(BatchingTest, FBoundaryToleratesExactlyFCrashes) {
  // f = 2: crashing 2 of 7 replicas must leave the batched pipeline live.
  Cluster cluster(batched_options(2, 3), counter_factory());
  cluster.crash_replica(5);
  cluster.crash_replica(6);
  Client& client = cluster.add_client();
  EXPECT_EQ(run_pipelined(cluster, client, 24), 24);
  const auto& app =
      dynamic_cast<const CounterStateMachine&>(cluster.replica(0).app());
  EXPECT_EQ(app.value(), 24);
}

TEST(BatchingTest, FPlusOneCrashesStallButDoNotDiverge) {
  Cluster cluster(batched_options(1, 5), counter_factory());
  cluster.crash_replica(2);
  cluster.crash_replica(3);  // f+1 down: no quorum possible
  Client& client = cluster.add_client();
  int completions = 0;
  client.invoke(to_bytes("add:1"), [&](Result<Bytes>) { ++completions; });
  cluster.sim().run_for(seconds(2));
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(cluster.replica(0).last_executed().value, 0u);
}

TEST(BatchingTest, ViewChangeOverInflightBatchesConverges) {
  // Kill the primary while pipelined batches are mid-agreement; the view
  // change must re-propose or retransmit every entry exactly once.
  Cluster cluster(batched_options(1, 9), counter_factory());
  Client& client = cluster.add_client();
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    client.invoke(to_bytes("add:1"), [&](Result<Bytes> r) {
      if (r.is_ok()) ++completions;
    });
  }
  cluster.sim().run_for(micros(200));  // let batches enter flight
  cluster.crash_replica(0);
  cluster.sim().run_for(seconds(10));
  cluster.settle();
  EXPECT_EQ(completions, 20);
  for (int rank = 1; rank < cluster.n(); ++rank) {
    const auto& app =
        dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 20) << "rank " << rank;
    EXPECT_GE(cluster.replica(rank).view().value, 1u);
  }
}

TEST(BatchingTest, StateTransferAcrossBatchedCheckpoints) {
  // A restarted replica must install the batched-era snapshot (windowed
  // dedup marks + reply cache) and catch up.
  ClusterOptions opts = batched_options(1, 13);
  opts.checkpoint_interval = 4;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  ASSERT_EQ(run_pipelined(cluster, client, 16), 16);
  cluster.crash_replica(3);
  ASSERT_EQ(run_pipelined(cluster, client, 32), 32);
  cluster.restart_replica(3);
  ASSERT_EQ(run_pipelined(cluster, client, 16), 16);
  cluster.settle();
  const auto& restarted =
      dynamic_cast<const CounterStateMachine&>(cluster.replica(3).app());
  EXPECT_EQ(restarted.value(), 64);
}

TEST(BatchingTest, PipelinedClientKeepsWindowFull) {
  // Batch cap below the client window: the surplus must ride as extra
  // concurrent agreement slots rather than queueing behind slot one.
  ClusterOptions opts = batched_options();
  opts.batch.max_entries = 2;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 12; ++i) {
    client.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  }
  // Depth 8: exactly 8 in flight, 4 queued before any reply lands.
  EXPECT_EQ(client.inflight(), 8u);
  cluster.settle();
  EXPECT_EQ(client.inflight(), 0u);
  const auto& gauges = cluster.sim().telemetry().metrics().gauges();
  const auto inflight = gauges.find("bft.1.inflight");
  ASSERT_NE(inflight, gauges.end());
  EXPECT_GT(inflight->second.peak(), 1);  // agreement instances overlapped
}

TEST(BatchingTest, UnbatchedPolicyProposesOneRequestPerSlot) {
  // Default options: max_entries = 1 and depth-1 clients, the paper's
  // protocol. The former cuts each request alone on arrival, so every
  // request gets its own slot and no hold delays it.
  ClusterOptions opts;
  opts.f = 1;
  opts.seed = 21;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 1; i <= 6; ++i) {
    const Result<Bytes> r = cluster.invoke_sync(client, to_bytes("add:1"));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(to_string(r.value()), "VAL:" + std::to_string(i));
  }
  EXPECT_EQ(cluster.replica(0).last_executed().value, 6u);  // one slot each
}

TEST(BatchingTest, FullWindowDoesNotSpinTheHoldTimer) {
  // Two of four replicas crashed: nothing commits, so the two-slot window
  // fills and stays full while parked entries pass their hold deadline.
  // The hold timer must then stay disarmed instead of re-arming at once
  // forever; the simulator sees only the few events of the stalled slots.
  ClusterOptions opts = batched_options();
  opts.checkpoint_interval = 1;
  opts.batch.max_entries = 2;
  Cluster cluster(opts, counter_factory());
  cluster.crash_replica(2);
  cluster.crash_replica(3);
  Client& client = cluster.add_client();
  for (int i = 0; i < 8; ++i) client.invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  const std::uint64_t before = cluster.sim().events_executed();
  cluster.sim().run_for(millis(5));
  EXPECT_LT(cluster.sim().events_executed() - before, 1000u);
  EXPECT_EQ(replica_count(cluster, 0, "pre_prepares_sent"), 2u);
  EXPECT_EQ(cluster.replica(0).last_executed().value, 0u);
}

class FullWindowBacklogTest : public ::testing::TestWithParam<int> {};

TEST_P(FullWindowBacklogTest, ParkedRequestsTakeSlotsInArrivalOrder) {
  // checkpoint_interval = 1 leaves a two-slot window, and a depth-16 client
  // sends more requests at once than two slots hold at either count cap.
  // A fixed network delay delivers them to the primary in timestamp order,
  // so proposing parked requests first-in first-out once a checkpoint
  // becomes stable means every replica executes them in timestamp order,
  // each exactly once.
  ClusterOptions opts = batched_options(1, 17);
  opts.net_config.min_delay_ns = micros(50);
  opts.net_config.max_delay_ns = micros(50);
  opts.checkpoint_interval = 1;
  opts.batch.max_entries = GetParam();
  opts.pipeline_depth = 16;
  Cluster cluster(opts, log_factory());
  Client& client = cluster.add_client();

  constexpr int kRequests = 40;
  std::vector<Bytes> expected;
  int completions = 0;
  for (int i = 0; i < kRequests; ++i) {
    expected.push_back(to_bytes("r" + std::to_string(i)));
    client.invoke(BufView(Bytes(expected.back())), [&completions](Result<Bytes> r) {
      if (r.is_ok()) ++completions;
    });
  }
  // The first 16 have reached the primary; the window took two slots.
  cluster.sim().run_for(micros(60));
  EXPECT_EQ(replica_count(cluster, 0, "requests_received"), 16u);
  EXPECT_EQ(replica_count(cluster, 0, "pre_prepares_sent"), 2u);

  cluster.settle();
  EXPECT_EQ(completions, kRequests);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    const auto& app = dynamic_cast<const LogStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.entries(), expected) << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, FullWindowBacklogTest, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "max_entries_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace itdos::bft
