// E3 — §3.1 / §5 claim: "ITDOS improves scalability independent of the
// number of objects by using a message queue to synchronize replica state,
// as opposed to state transfer techniques."
//
// Two synchronization strategies over the same PBFT substrate:
//   * state-transfer baseline (stock Castro-Liskov): the application state
//     IS the checkpointed state — snapshot size grows with servant state;
//   * ITDOS message queue: the checkpointed state is the un-GC'd queue
//     window — snapshot size is independent of servant state.
//
// Reproduced shape: baseline snapshot cost/size linear in object-state size;
// queue snapshot flat. The recovery bench shows the same on the wire: a
// lagging baseline replica pulls the whole object state, a queue replica
// pulls only the window.
#include "bench_util.hpp"

#include "bft/harness.hpp"
#include "itdos/queue.hpp"

namespace itdos::bench {
namespace {

using namespace itdos;

/// Stock Castro-Liskov style application: object state in one contiguous
/// block, checkpointed wholesale.
class FatStateMachine : public bft::StateMachine {
 public:
  explicit FatStateMachine(std::size_t state_bytes) : state_(state_bytes, 0x7a) {}

  Bytes execute(const BufView& request, const crypto::Digest&, NodeId, SeqNum) override {
    // Touch a few bytes so execution isn't free.
    for (std::size_t i = 0; i < std::min<std::size_t>(request.size(), 16); ++i) {
      state_[i % state_.size()] ^= request[i];
    }
    return to_bytes("OK");
  }
  bft::AppSnapshot snapshot() const override { return {state_, {}}; }
  Status restore(const bft::AppSnapshot& snapshot) override {
    state_ = snapshot.state;
    return Status::ok();
  }

 private:
  Bytes state_;
};

/// The bytes a snapshot takes on the wire: its state and every held entry.
std::size_t wire_size(const bft::AppSnapshot& snapshot) {
  std::size_t size = snapshot.state.size();
  for (const bft::HeldBytes& held : snapshot.held) size += held.bytes.size();
  return size;
}

core::QueueStateMachine loaded_queue(int entries) {
  core::QueueOptions options;
  options.n = 4;
  options.f = 1;
  core::QueueStateMachine queue(options);
  core::OrderedMsg msg;
  msg.conn = ConnectionId(1);
  msg.origin = NodeId(1);
  msg.epoch = KeyEpoch(1);
  msg.sealed_giop = Bytes(256, 0x5a);
  for (int i = 1; i <= entries; ++i) {
    msg.rid = RequestId(static_cast<std::uint64_t>(i));
    bft::execute_with_digest(queue, msg.encode(), NodeId(9), SeqNum(static_cast<std::uint64_t>(i)));
  }
  return queue;
}

void BM_E3SnapshotStateTransfer(benchmark::State& state) {
  // Baseline: snapshot size == servant state size (swept).
  FatStateMachine app(static_cast<std::size_t>(state.range(0)));
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("e3.snapshot_state_transfer_ns");
  telemetry::Counter& ops = reg.counter("e3.snapshot_state_transfer_ops");
  std::size_t snapshot_size = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    ops.inc();
    const bft::AppSnapshot snap = app.snapshot();
    snapshot_size = wire_size(snap);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["snapshot_kb"] =
      benchmark::Counter(static_cast<double>(snapshot_size) / 1024.0);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * snapshot_size));
}
BENCHMARK(BM_E3SnapshotStateTransfer)
    ->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

void BM_E3SnapshotMessageQueue(benchmark::State& state) {
  // ITDOS: snapshot size == queue window (16 entries here) regardless of
  // how big the servant state is — the arg only sizes a servant blob that
  // the queue snapshot never touches.
  const Bytes servant_state(static_cast<std::size_t>(state.range(0)), 0x7a);
  core::QueueStateMachine queue = loaded_queue(16);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("e3.snapshot_message_queue_ns");
  telemetry::Counter& ops = reg.counter("e3.snapshot_message_queue_ops");
  std::size_t snapshot_size = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    ops.inc();
    const bft::AppSnapshot snap = queue.snapshot();
    snapshot_size = wire_size(snap);
    benchmark::DoNotOptimize(snap);
    benchmark::DoNotOptimize(servant_state.data());
  }
  state.counters["snapshot_kb"] =
      benchmark::Counter(static_cast<double>(snapshot_size) / 1024.0);
}
BENCHMARK(BM_E3SnapshotMessageQueue)
    ->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

void BM_E3QueueSnapshotVsWindow(benchmark::State& state) {
  // The quantity queue snapshots DO scale with: the un-GC'd window size.
  core::QueueStateMachine queue = loaded_queue(static_cast<int>(state.range(0)));
  std::size_t snapshot_size = 0;
  for (auto _ : state) {
    const bft::AppSnapshot snap = queue.snapshot();
    snapshot_size = wire_size(snap);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["snapshot_kb"] =
      benchmark::Counter(static_cast<double>(snapshot_size) / 1024.0);
}
BENCHMARK(BM_E3QueueSnapshotVsWindow)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_E3RecoveryWireCost(benchmark::State& state) {
  // Full-path recovery: a replica is cut off, the group makes progress past
  // a checkpoint, the link heals and the replica state-transfers. Wire bytes
  // during recovery are dominated by the snapshot — object-state-sized for
  // the baseline, window-sized for ITDOS queues.
  const std::size_t object_state = static_cast<std::size_t>(state.range(0));
  std::uint64_t recovery_bytes_total = 0;
  std::uint64_t seed = 21;
  for (auto _ : state) {
    bft::ClusterOptions options;
    options.f = 1;
    options.seed = seed++;
    options.checkpoint_interval = 4;
    bft::Cluster cluster(options, [&](int) {
      return std::make_unique<FatStateMachine>(object_state);
    });
    const NodeId lagger = cluster.replica_id(3);
    for (int rank = 0; rank < 3; ++rank) {
      cluster.network().set_link(lagger, cluster.replica_id(rank), false);
    }
    bft::Client& client = cluster.add_client();
    for (int i = 0; i < 9; ++i) {
      if (!cluster.invoke_sync(client, to_bytes("x")).is_ok()) {
        state.SkipWithError("progress failed");
        return;
      }
    }
    cluster.settle();
    cluster.network().heal_all_links();
    const telemetry::MetricsRegistry& reg = cluster.sim().telemetry().metrics();
    const std::uint64_t bytes_before = reg.counter_value("net.bytes_delivered");
    for (int i = 0; i < 5; ++i) {
      (void)cluster.invoke_sync(client, to_bytes("x"));
    }
    cluster.settle();
    if (reg.counter_value(telemetry::metric_name("bft", cluster.replica_id(3),
                                                 "state_transfers")) == 0) {
      state.SkipWithError("no state transfer happened");
      return;
    }
    recovery_bytes_total += reg.counter_value("net.bytes_delivered") - bytes_before;
    BenchReport::instance().harvest(cluster.sim());
  }
  state.counters["recovery_wire_kb"] = benchmark::Counter(
      static_cast<double>(recovery_bytes_total) / 1024.0 /
      static_cast<double>(state.iterations()));
  state.counters["object_state_kb"] =
      benchmark::Counter(static_cast<double>(object_state) / 1024.0);
}
BENCHMARK(BM_E3RecoveryWireCost)
    ->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e3_state_sync");
