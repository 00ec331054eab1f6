// F1 — Figure 1 reproduction: singleton client -> replicated server through
// the full ITDOS stack (GM connection establishment, BFT ordering, queue
// consumption, voted replies), swept over the fault threshold f.
//
// Paper claim exercised: the nominal configuration works and its cost grows
// with the replication degree (quantified further in e1/e7).
#include "bench_util.hpp"

#include <algorithm>

namespace itdos::bench {
namespace {

void BM_Fig1EndToEnd(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  core::SystemOptions options;
  options.seed = 42;
  core::ItdosSystem system(options);
  const DomainId domain =
      system.add_domain(f, core::VotePolicy::exact(), calculator_installer());
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");

  // Warm the connection (establishment is measured separately in fig3).
  if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
    state.SkipWithError("warmup invocation failed");
    return;
  }

  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const SimTime before = system.sim().now();
    const Result<cdr::Value> result =
        system.invoke_sync(client, ref, "add", int_args(20, 22), seconds(30));
    if (!result.is_ok() || result.value().as_int64() != 42) {
      state.SkipWithError("invocation failed");
      return;
    }
    total_sim_ns += system.sim().now() - before;
    total_packets += reg.counter_value("net.packets_delivered") - packets_before;
  }
  state.counters["sim_us_per_call"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  state.counters["pkts_per_call"] = benchmark::Counter(
      static_cast<double>(total_packets) / static_cast<double>(state.iterations()));
  state.counters["replicas"] = benchmark::Counter(3.0 * f + 1);
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_Fig1EndToEnd)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)
    ->Iterations(30);

void BM_Fig1EndToEndBatched(benchmark::State& state) {
  // The same stack with batch formation + pipelined agreement enabled in
  // every domain (ProtocolTiming knobs). Serial invocations measure the
  // LOW-LOAD cost of batching: each lone request rides out at most one
  // formation hold, so sim_us_per_call here vs BM_Fig1EndToEnd/1 is the
  // latency price of leaving batching on (acceptance: p99 within 1.5x).
  core::SystemOptions options;
  options.seed = 42;
  options.timing.batch_max_entries = 4;
  // A serial lone request always rides out the full hold; 60us keeps the
  // low-load latency price under 1.5x while still coalescing under load.
  options.timing.batch_max_hold_ns = micros(60);
  options.timing.pipeline_depth = 4;
  core::ItdosSystem system(options);
  const DomainId domain =
      system.add_domain(1, core::VotePolicy::exact(), calculator_installer());
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");

  if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
    state.SkipWithError("warmup invocation failed");
    return;
  }

  std::int64_t total_sim_ns = 0;
  std::vector<std::int64_t> latencies;
  for (auto _ : state) {
    const SimTime before = system.sim().now();
    const Result<cdr::Value> result =
        system.invoke_sync(client, ref, "add", int_args(20, 22), seconds(30));
    if (!result.is_ok() || result.value().as_int64() != 42) {
      state.SkipWithError("invocation failed");
      return;
    }
    const std::int64_t elapsed = system.sim().now() - before;
    total_sim_ns += elapsed;
    latencies.push_back(elapsed);
  }
  std::sort(latencies.begin(), latencies.end());
  state.counters["sim_us_per_call"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  state.counters["p99_us"] = benchmark::Counter(
      static_cast<double>(latencies[latencies.size() * 99 / 100]) / 1e3);
  BenchReport::CurvePoint point;
  point.rate_per_s = 1;  // serial: one request in flight
  point.offered = latencies.size();
  point.ok = latencies.size();
  point.p50_ns = latencies[latencies.size() / 2];
  point.p99_ns = latencies[latencies.size() * 99 / 100];
  point.goodput_per_s =
      static_cast<double>(latencies.size()) * 1e9 / static_cast<double>(total_sim_ns);
  BenchReport::instance().add_curve_point("fig1_batched_lowload", point);
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_Fig1EndToEndBatched)->Unit(benchmark::kMillisecond)->Iterations(30);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("fig1_end_to_end");
