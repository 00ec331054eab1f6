// E8 — §3.1 nested invocations: a chain of replicated forwarder domains
// ending in a calculator domain, swept over chain depth. Each hop adds a
// full replicated round trip (ordered request copies voted at the target,
// direct replies voted at every caller element) while the caller's queue
// consumption is paused — the two-actor model's cost.
//
// The terminal hop is CROSS-DOMAIN in the sharded sense: the calculator's
// key is registered in the system shard map and the last forwarder invokes
// it through a routed ref (shard::ShardRouter), so the bench exercises the
// same location-transparent resolution path the bank workload uses. Every
// forwarder element also records the simulated latency of ITS nested round
// trip into the registry ("e8.d<depth>.hop<k>.latency_ns"), so the BENCH
// json carries a per-hop latency histogram alongside the end-to-end number.
#include "bench_util.hpp"

#include "shard/shard_map.hpp"

namespace itdos::bench {
namespace {

class ChainForwarder : public orb::Servant {
 public:
  /// `hop_histogram` names the per-hop latency series this forwarder's
  /// elements record their nested round trips into.
  ChainForwarder(core::ItdosSystem& system, orb::ObjectRef next,
                 std::string hop_histogram)
      : system_(system), next_(std::move(next)),
        hop_histogram_(std::move(hop_histogram)) {}

  std::string interface_name() const override { return "IDL:bench/Fwd:1.0"; }

  void dispatch(const std::string& operation, const cdr::Value& arguments,
                orb::ServerContext& context, orb::ReplySinkPtr sink) override {
    if (operation != "relay") {
      sink->reply(error(Errc::kInvalidArgument, "unknown op"));
      return;
    }
    const std::string next_op =
        next_.interface_name == "IDL:bench/Calc:1.0" ? "add" : "relay";
    const SimTime sent = system_.sim().now();
    context.invoke_nested(
        next_, next_op, arguments,
        [this, sink, sent](Result<cdr::Value> r) {
          system_.sim().telemetry().metrics().histogram(hop_histogram_)
              .record(system_.sim().now() - sent);
          sink->reply(std::move(r));
        });
  }

 private:
  core::ItdosSystem& system_;
  orb::ObjectRef next_;
  std::string hop_histogram_;
};

void BM_E8NestedDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));  // forwarder hops
  core::SystemOptions options;
  options.seed = 71;
  core::ItdosSystem system(options);

  const DomainId calc_domain =
      system.add_domain(1, core::VotePolicy::exact(), calculator_installer());
  // The terminal hop resolves through the shard map: the whole key space is
  // owned by the calculator domain, and callers carry a routed ref.
  system.shards().partition_evenly({calc_domain});
  orb::ObjectRef next =
      system.routed_ref(ObjectId(1), "IDL:bench/Calc:1.0");
  // Hops are numbered from the CLIENT side: hop 1 is the forwarder the
  // client calls, hop `depth` makes the routed terminal call.
  for (int hop = depth; hop >= 1; --hop) {
    const std::string histogram = "e8.d" + std::to_string(depth) + ".hop" +
                                  std::to_string(hop) + ".latency_ns";
    const DomainId fwd = system.add_domain(
        1, core::VotePolicy::exact(),
        [&system, next, histogram](orb::ObjectAdapter& adapter, int) {
          // Key 1 is free in a freshly built domain; activation cannot fail.
          (void)adapter.activate_with_key(
              ObjectId(1),
              std::make_shared<ChainForwarder>(system, next, histogram));
        });
    next = system.object_ref(fwd, ObjectId(1), "IDL:bench/Fwd:1.0");
  }
  core::ItdosClient& client = system.add_client();
  const std::string op = depth == 0 ? "add" : "relay";
  // Warm all connections along the chain.
  if (!system.invoke_sync(client, next, op, int_args(1, 1), seconds(60)).is_ok()) {
    state.SkipWithError("warmup failed");
    return;
  }

  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const SimTime before = system.sim().now();
    const Result<cdr::Value> result =
        system.invoke_sync(client, next, op, int_args(20, 22), seconds(60));
    if (!result.is_ok() || result.value().as_int64() != 42) {
      state.SkipWithError("nested invocation failed");
      return;
    }
    total_sim_ns += system.sim().now() - before;
    total_packets += reg.counter_value("net.packets_delivered") - packets_before;
  }
  state.counters["sim_us_per_call"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  state.counters["pkts_per_call"] = benchmark::Counter(
      static_cast<double>(total_packets) / static_cast<double>(state.iterations()));
  state.counters["domains_in_chain"] = benchmark::Counter(depth + 1.0);
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_E8NestedDepth)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->Iterations(10);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e8_nested_invocations");
