// E5 — §3.6 claim: the voter "requires a minimum of f+1 identical messages
// or 2f+1 total messages to perform a vote. It does not wait for all 3f+1
// messages to arrive before performing a vote since that would cause the
// system to be vulnerable to network delays and faulty processes that may be
// deliberately slow (or unresponsive)."
//
// Reproduced shape: with up to f crashed (or deliberately silent) elements,
// the decide-at-f+1 voter's latency is essentially unchanged, while a
// hypothetical wait-for-all-3f+1 voter never completes (reported as the
// time until ALL replies arrive — infinite when an element is down, measured
// here against a timeout).
#include "bench_util.hpp"

namespace itdos::bench {
namespace {

void BM_E5DecideLatency(benchmark::State& state) {
  // arg0 = number of crashed elements (0..f).
  const int crashed = static_cast<int>(state.range(0));
  const int f = 1;
  core::SystemOptions options;
  options.seed = 31;
  core::ItdosSystem system(options);
  const DomainId domain =
      system.add_domain(f, core::VotePolicy::exact(), calculator_installer());
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");
  if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (int i = 0; i < crashed; ++i) system.crash_element(domain, 3 - i);

  std::int64_t total_sim_ns = 0;
  for (auto _ : state) {
    const SimTime before = system.sim().now();
    if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
      state.SkipWithError("invocation failed");
      return;
    }
    total_sim_ns += system.sim().now() - before;
  }
  state.counters["sim_us_to_decision"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  state.counters["crashed_elements"] = benchmark::Counter(crashed);
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_E5DecideLatency)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->Iterations(25);

void BM_E5WaitForAllBaseline(benchmark::State& state) {
  // The alternative design: wait for all 3f+1 replies. Measured as the
  // simulated time until the client has received every element's reply
  // (party stat replies_received). With a crashed element this never
  // happens; we report the time at which we gave up (the vote timeout) —
  // the availability failure the paper's rule avoids.
  const int crashed = static_cast<int>(state.range(0));
  const int f = 1;
  core::SystemOptions options;
  options.seed = 33;
  core::ItdosSystem system(options);
  const DomainId domain =
      system.add_domain(f, core::VotePolicy::exact(), calculator_installer());
  core::ClientOptions client_options;
  client_options.auto_report = false;
  core::ItdosClient& client = system.add_client(client_options);
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");
  if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (int i = 0; i < crashed; ++i) system.crash_element(domain, 3 - i);

  const std::uint64_t n = 3 * f + 1;
  std::int64_t total_sim_ns = 0;
  std::uint64_t gave_up = 0;
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  const std::string replies_name =
      telemetry::metric_name("smiop", client.smiop_node(), "replies_received");
  for (auto _ : state) {
    const std::uint64_t replies_before = reg.counter_value(replies_name);
    const SimTime before = system.sim().now();
    if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
      state.SkipWithError("invocation failed");
      return;
    }
    // Keep running until ALL n replies arrived or the give-up horizon.
    const SimTime horizon = system.sim().now() + millis(100);
    while (reg.counter_value(replies_name) - replies_before < n &&
           system.sim().now() < horizon) {
      if (!system.sim().step()) break;
    }
    if (reg.counter_value(replies_name) - replies_before < n) {
      ++gave_up;
      total_sim_ns += horizon - before;
    } else {
      total_sim_ns += system.sim().now() - before;
    }
  }
  state.counters["sim_us_to_all_replies"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  state.counters["gave_up_fraction"] = benchmark::Counter(
      static_cast<double>(gave_up) / static_cast<double>(state.iterations()));
  state.counters["crashed_elements"] = benchmark::Counter(crashed);
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_E5WaitForAllBaseline)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->Iterations(10);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e5_early_vote");
