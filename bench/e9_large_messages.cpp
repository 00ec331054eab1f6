// E9 — §4 large messages: "While signing and voting on individual messages
// when they are of 'small' size can be a reasonable performance sacrifice
// for security, doing so on large ... objects could pose a significant
// problem." Sweep the request payload size and measure the full-stack cost;
// every request is one ordered entry, however large.
#include "bench_util.hpp"

namespace itdos::bench {
namespace {

void BM_E9PayloadSweep(benchmark::State& state) {
  const std::size_t payload = static_cast<std::size_t>(state.range(0));
  core::SystemOptions options;
  options.seed = 91;
  options.timing.reply_vote_timeout_ns = seconds(2);
  core::ItdosSystem system(options);
  const DomainId domain =
      system.add_domain(1, core::VotePolicy::exact(), calculator_installer());
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");
  if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
    state.SkipWithError("warmup failed");
    return;
  }

  auto& ops = BenchReport::instance().registry().counter("e9.ops");
  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const SimTime before = system.sim().now();
    const Result<cdr::Value> result = system.invoke_sync(
        client, ref, "echo", payload_of_size(payload), seconds(60));
    if (!result.is_ok()) {
      state.SkipWithError("invocation failed");
      return;
    }
    ops.inc();
    total_sim_ns += system.sim().now() - before;
    total_packets += reg.counter_value("net.packets_delivered") - packets_before;
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["sim_us_per_call"] =
      benchmark::Counter(static_cast<double>(total_sim_ns) / 1e3 / iters);
  state.counters["pkts_per_call"] =
      benchmark::Counter(static_cast<double>(total_packets) / iters);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * payload));
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_E9PayloadSweep)
    ->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e9_large_messages");
