// E1 — §3.2 claim: "BFT total-ordering protocols are expensive;
// additionally, the number of messages exchanged is directly related to the
// number of members in the ordering group. Given the non-linear performance
// penalties in large ordering groups, the ordering groups should be as small
// as possible."
//
// Reproduced shape: per-request message count grows quadratically with
// n = 3f+1 (PBFT's all-to-all PREPARE/COMMIT), and ordering latency grows
// with it. This is the paper's architectural justification for keeping
// clients OUT of the ordering group.
#include "bench_util.hpp"

#include <algorithm>

#include "bft/harness.hpp"

namespace itdos::bench {
namespace {

using namespace itdos;

void BM_E1OrderingCost(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  bft::ClusterOptions options;
  options.f = f;
  options.seed = 99;
  bft::Cluster cluster(options,
                       [](int) { return std::make_unique<bft::CounterStateMachine>(); });
  bft::Client& client = cluster.add_client();
  // Warm up (primary learns the client, log fills normally).
  if (!cluster.invoke_sync(client, to_bytes("add:0")).is_ok()) {
    state.SkipWithError("warmup failed");
    return;
  }

  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;
  const telemetry::MetricsRegistry& reg = cluster.sim().telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const std::uint64_t bytes_before = reg.counter_value("net.bytes_delivered");
    const SimTime before = cluster.sim().now();
    if (!cluster.invoke_sync(client, to_bytes("add:1")).is_ok()) {
      state.SkipWithError("invocation failed");
      return;
    }
    total_sim_ns += cluster.sim().now() - before;
    total_packets += reg.counter_value("net.packets_delivered") - packets_before;
    total_bytes += reg.counter_value("net.bytes_delivered") - bytes_before;
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["n_replicas"] = benchmark::Counter(3.0 * f + 1);
  state.counters["sim_us_per_req"] =
      benchmark::Counter(static_cast<double>(total_sim_ns) / 1e3 / iters);
  state.counters["pkts_per_req"] =
      benchmark::Counter(static_cast<double>(total_packets) / iters);
  state.counters["wire_kb_per_req"] =
      benchmark::Counter(static_cast<double>(total_bytes) / 1024.0 / iters);
  BenchReport::instance().harvest(cluster.sim());
}
BENCHMARK(BM_E1OrderingCost)->DenseRange(1, 5)->Unit(benchmark::kMillisecond)
    ->Iterations(40);

void BM_E1ThroughputUnderLoad(benchmark::State& state) {
  // 50 pipelined requests from 2 clients: aggregate ordering throughput
  // (requests per simulated second) versus group size.
  const int f = static_cast<int>(state.range(0));
  std::int64_t total_sim_ns = 0;
  const int kRequests = 50;
  std::uint64_t seed = 5;
  for (auto _ : state) {
    bft::ClusterOptions options;
    options.f = f;
    options.seed = seed++;
    bft::Cluster cluster(
        options, [](int) { return std::make_unique<bft::CounterStateMachine>(); });
    bft::Client& alice = cluster.add_client();
    bft::Client& bob = cluster.add_client();
    int completed = 0;
    for (int i = 0; i < kRequests / 2; ++i) {
      alice.invoke(to_bytes("add:1"), [&](Result<Bytes> r) { completed += r.is_ok(); });
      bob.invoke(to_bytes("add:1"), [&](Result<Bytes> r) { completed += r.is_ok(); });
    }
    const SimTime before = cluster.sim().now();
    cluster.settle();
    if (completed != kRequests) {
      state.SkipWithError("not all requests completed");
      return;
    }
    total_sim_ns += cluster.sim().now() - before;
    BenchReport::instance().harvest(cluster.sim());
  }
  const double sim_seconds = static_cast<double>(total_sim_ns) / 1e9;
  state.counters["req_per_sim_sec"] = benchmark::Counter(
      static_cast<double>(kRequests) * static_cast<double>(state.iterations()) /
      sim_seconds);
  state.counters["n_replicas"] = benchmark::Counter(3.0 * f + 1);
}
BENCHMARK(BM_E1ThroughputUnderLoad)->DenseRange(1, 4)->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_E1BatchPipelineSweep(benchmark::State& state) {
  // Batch-size x pipeline-depth sweep at f = 1 under saturating load:
  // 4 clients each keep `depth` requests in flight until 240 requests have
  // been ordered. Exported as a `curves` block (one curve per batch size,
  // x = pipeline depth) so bench_gate.py can hold the batched-speedup
  // floor: batching + pipelining must beat the single-slot baseline
  // (batch_1 at depth 1) by >= 2x goodput at saturation.
  const int batch_entries = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 60;
  constexpr int kTotal = kClients * kRequestsPerClient;

  for (auto _ : state) {
    bft::ClusterOptions options;
    options.f = 1;
    options.seed = 17;
    options.batch.max_entries = batch_entries;
    options.batch.max_hold_ns = micros(150);
    options.pipeline_depth = depth;
    bft::Cluster cluster(options, [](int) {
      return std::make_unique<bft::CounterStateMachine>();
    });

    std::vector<std::int64_t> latencies;
    latencies.reserve(kTotal);
    const SimTime start = cluster.sim().now();
    std::vector<bft::Client*> clients;
    for (int c = 0; c < kClients; ++c) clients.push_back(&cluster.add_client());
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const SimTime sent = cluster.sim().now();
        clients[c]->invoke(to_bytes("add:1"),
                           [&latencies, sent, &cluster](Result<Bytes> r) {
                             if (r.is_ok()) {
                               latencies.push_back(cluster.sim().now() - sent);
                             }
                           });
      }
    }
    cluster.settle();
    if (static_cast<int>(latencies.size()) != kTotal) {
      state.SkipWithError("sweep requests did not all complete");
      return;
    }
    const double sim_seconds =
        static_cast<double>(cluster.sim().now() - start) / 1e9;
    std::sort(latencies.begin(), latencies.end());
    BenchReport::CurvePoint point;
    point.rate_per_s = depth;  // x axis: client pipeline depth
    point.offered = kTotal;
    point.ok = latencies.size();
    point.p50_ns = latencies[latencies.size() / 2];
    point.p99_ns = latencies[latencies.size() * 99 / 100];
    point.goodput_per_s = static_cast<double>(kTotal) / sim_seconds;
    BenchReport::instance().add_curve_point(
        "batch_" + std::to_string(batch_entries), point);

    // MAC cost per ordered request: batching amortises the per-slot
    // authenticator fan-out across every entry in the slot.
    std::uint64_t macs = 0;
    const auto& metrics = cluster.sim().telemetry().metrics();
    for (int rank = 0; rank < cluster.n(); ++rank) {
      macs += metrics.counter_value(
          telemetry::metric_name("bft", cluster.replica_id(rank), "macs_computed"));
    }
    BenchReport::instance().registry().histogram("bft.macs_per_op").record(
        static_cast<std::int64_t>(macs / static_cast<std::uint64_t>(kTotal)));

    state.counters["goodput_per_sim_s"] = benchmark::Counter(point.goodput_per_s);
    state.counters["p99_us"] =
        benchmark::Counter(static_cast<double>(point.p99_ns) / 1e3);
    state.counters["macs_per_op"] = benchmark::Counter(
        static_cast<double>(macs) / static_cast<double>(kTotal));
    BenchReport::instance().harvest(cluster.sim());
  }
}
BENCHMARK(BM_E1BatchPipelineSweep)
    ->ArgsProduct({{1, 4, 8}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e1_group_size_scaling");
