// E7 — the cost of intrusion tolerance: the same calculator workload on
//   (a) plain unreplicated CORBA over IIOP (no replication, no voting, no
//       encryption) — the baseline every CORBA deployment starts from, and
//   (b) ITDOS with f = 1..3.
//
// Reproduced shape: ITDOS pays a multiplicative latency and message-count
// overhead that grows with f — the price of tolerating f Byzantine servers,
// which §4 promises to quantify ("we will analyze the performance tradeoffs
// required for given levels of intrusion tolerance").
#include "bench_util.hpp"

#include "orb/iiop.hpp"

namespace itdos::bench {
namespace {

void BM_E7PlainIiop(benchmark::State& state) {
  net::Simulator sim(61);
  net::Network net(sim, net::NetConfig{micros(20), micros(80), 0.0, 0.0});
  orb::Orb server_orb(DomainId(1),
                      std::make_unique<orb::IiopProtocol>(
                          net, NodeId(11), orb::IiopDirectory{}),
                      sim.telemetry().metrics(), NodeId(11));
  orb::IiopServer server(net, NodeId(1), server_orb);
  (void)server_orb.adapter().activate_with_key(ObjectId(1),
                                               std::make_shared<BenchCalculator>());
  orb::Orb client(DomainId(100),
                  std::make_unique<orb::IiopProtocol>(
                      net, NodeId(2), orb::IiopDirectory{{DomainId(1), NodeId(1)}}),
                  sim.telemetry().metrics(), NodeId(2));
  orb::ObjectRef ref;
  ref.domain = DomainId(1);
  ref.key = ObjectId(1);
  ref.interface_name = "IDL:bench/Calc:1.0";

  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  const telemetry::MetricsRegistry& reg = sim.telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const SimTime before = sim.now();
    std::optional<Result<cdr::Value>> outcome;
    client.invoke(ref, "add", int_args(20, 22),
                  [&](Result<cdr::Value> r) { outcome = std::move(r); });
    while (!outcome && sim.step()) {
    }
    if (!outcome || !outcome->is_ok()) {
      state.SkipWithError("IIOP invocation failed");
      return;
    }
    total_sim_ns += sim.now() - before;
    total_packets += reg.counter_value("net.packets_delivered") - packets_before;
  }
  state.counters["sim_us_per_call"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  state.counters["pkts_per_call"] = benchmark::Counter(
      static_cast<double>(total_packets) / static_cast<double>(state.iterations()));
  state.counters["replicas"] = benchmark::Counter(1.0);
  BenchReport::instance().harvest(sim);
}
BENCHMARK(BM_E7PlainIiop)->Iterations(100);

void BM_E7Itdos(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  core::SystemOptions options;
  options.seed = 62;
  core::ItdosSystem system(options);
  const DomainId domain =
      system.add_domain(f, core::VotePolicy::exact(), calculator_installer());
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");
  if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const SimTime before = system.sim().now();
    if (!system.invoke_sync(client, ref, "add", int_args(20, 22), seconds(30)).is_ok()) {
      state.SkipWithError("ITDOS invocation failed");
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
BENCHMARK(BM_E7Itdos)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)
    ->Iterations(30);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e7_it_overhead");
