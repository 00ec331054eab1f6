// E12 — sharded bank goodput (DESIGN.md §6g): the same open-loop deposit
// stream offered to a bank whose accounts are hash-sharded across 1, 2 or 4
// replication domains. Every op carries a routed ref (shard::ShardRouter),
// so ONE seed-deterministic arrival schedule fans out across however many
// domains the deployment has — the curves differ only in shard count. A
// single domain saturates its replicated admission bound and sheds; four
// domains split the stream and absorb it, which is the horizontal-scaling
// claim the "shards_*" curves carry (scripts/bench_gate.py enforces the
// 1 -> 4 goodput floor). BM_E12TellerTransfer adds the cross-domain price
// tag: one replicated teller front issuing nested withdraw+deposit pairs
// into two account domains.
#include "bench_util.hpp"

#include "load/sweep.hpp"
#include "shard/bank.hpp"
#include "shard/sharded_load.hpp"

namespace itdos::bench {
namespace {

constexpr std::uint64_t kSeed = 2027;
constexpr std::int64_t kHorizonNs = millis(250);
constexpr int kAccounts = 32;

/// One equally-weighted routed "deposit 1" op per account. Routed refs are
/// deployment-independent (the client's shard map resolves them), so the
/// same mix drives every shard count.
std::vector<load::LoadOp> routed_deposit_mix() {
  std::vector<load::LoadOp> mix;
  for (int id = 1; id <= kAccounts; ++id) {
    load::LoadOp op;
    op.operation = "deposit";
    op.argument = cdr::Value::sequence({cdr::Value::int64(1)});
    op.weight = 1.0;
    op.target = shard::ShardRouter::routed_ref(
        ObjectId(static_cast<std::uint64_t>(id)),
        std::string(shard::kAccountInterface));
    mix.push_back(op);
  }
  return mix;
}

load::SweepOptions sweep_options() {
  load::SweepOptions options;
  options.rates = {1600.0, 3200.0, 6400.0};
  options.arrival.kind = load::ArrivalKind::kFixedRate;
  options.arrival.horizon_ns = kHorizonNs;
  options.seed = kSeed;
  options.clients = 24;
  options.max_client_backlog = 48;
  options.mix = routed_deposit_mix();
  options.drain_ns = seconds(5);
  return options;
}

/// Sweeps the shared rate ladder against a fresh `shards`-domain bank per
/// point and records the curve as "shards_<n>". Only the top shard count
/// harvests its registry, so the exported gauge series are one clean run.
void run_shard_sweep(benchmark::State& state, int shards, bool harvest_top) {
  load::SweepOptions options = sweep_options();
  const double top_rate = options.rates.back();
  load::OfferedLoadSweep sweep(options);
  bool ok = true;

  sweep.run([&](double rate, const load::LoadOptions& load_options,
                const load::OfferedLoadSweep::Body& body) {
    core::SystemOptions system_options;
    system_options.seed = kSeed;
    system_options.timing.ack_interval = 2;  // tight GC: queues reopen fast
    system_options.timing.admission_max_depth = 24;
    core::ItdosSystem system(system_options);

    shard::BankSpec spec;
    spec.shards = shards;
    spec.tellers = 0;   // direct routed deposits; the front tier is E12's
    spec.clients = 0;   // second benchmark, not this sweep
    spec.accounts = kAccounts;
    shard::Bank bank = shard::Bank::build(system, spec);

    // The generator samples per-op targets from the mix; the default target
    // is an arbitrary routed ref and never dispatched.
    load::LoadGenerator generator(system, bank.account_ref(ObjectId(1)),
                                  load_options);
    body(system, generator);

    system.settle();
    if (!generator.done()) ok = false;
    if (harvest_top && rate == top_rate) {
      BenchReport::instance().harvest(system.sim());
    }
  });

  const std::string curve = "shards_" + std::to_string(shards);
  std::uint64_t total_ok = 0;
  for (const load::SweepPoint& point : sweep.points()) {
    BenchReport::CurvePoint cp;
    cp.rate_per_s = point.rate_per_s;
    cp.offered = point.report.offered;
    cp.ok = point.report.ok;
    cp.overloaded = point.report.overloaded;
    cp.failed = point.report.failed;
    cp.starved = point.report.starved;
    cp.sheds = point.sheds;
    cp.p50_ns = point.report.p50_latency_ns;
    cp.p99_ns = point.report.p99_latency_ns;
    cp.goodput_per_s = point.report.goodput_per_s;
    BenchReport::instance().add_curve_point(curve, cp);
    total_ok += point.report.ok;
  }
  if (!ok) {
    state.SkipWithError("a sweep point did not drain");
    return;
  }
  state.counters["shards"] = benchmark::Counter(static_cast<double>(shards));
  state.counters["ok_total"] = benchmark::Counter(static_cast<double>(total_ok));
  state.counters["goodput_top"] = benchmark::Counter(
      sweep.points().empty() ? 0.0
                             : sweep.points().back().report.goodput_per_s);
}

void BM_E12GoodputVsShards(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_shard_sweep(state, shards, /*harvest_top=*/shards == 4);
  }
}
BENCHMARK(BM_E12GoodputVsShards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Cross-domain nested price tag: a replicated teller front issues
/// "transfer" (nested withdraw at one shard, deposit at another) — four
/// BFT-ordered hops end to end, with the callee's request vote suppressing
/// the 3f+1 replicated callers' duplicate copies.
void BM_E12TellerTransfer(benchmark::State& state) {
  core::SystemOptions system_options;
  system_options.seed = kSeed;
  core::ItdosSystem system(system_options);

  shard::BankSpec spec;
  spec.shards = 2;
  spec.tellers = 1;
  spec.clients = 1;
  spec.accounts = 8;
  shard::Bank bank = shard::Bank::build(system, spec);

  const std::int64_t from =
      static_cast<std::int64_t>(bank.accounts_of_shard(0).front().value);
  const std::int64_t to =
      static_cast<std::int64_t>(bank.accounts_of_shard(1).front().value);
  const cdr::Value args = cdr::Value::sequence(
      {cdr::Value::int64(from), cdr::Value::int64(to), cdr::Value::int64(1)});

  // Warm the full path: client -> teller -> both account domains.
  if (!system
           .invoke_sync(bank.client(), bank.teller_ref(), "transfer",
                        cdr::Value(args), seconds(60))
           .is_ok()) {
    state.SkipWithError("warmup transfer failed");
    return;
  }

  std::int64_t total_sim_ns = 0;
  std::uint64_t total_packets = 0;
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  for (auto _ : state) {
    const std::uint64_t packets_before = reg.counter_value("net.packets_delivered");
    const SimTime before = system.sim().now();
    const Result<cdr::Value> result = system.invoke_sync(
        bank.client(), bank.teller_ref(), "transfer", cdr::Value(args),
        seconds(60));
    if (!result.is_ok()) {
      state.SkipWithError("transfer failed");
      return;
    }
    const std::int64_t elapsed = system.sim().now() - before;
    total_sim_ns += elapsed;
    total_packets += reg.counter_value("net.packets_delivered") - packets_before;
    system.sim().telemetry().metrics().histogram("e12.transfer.latency_ns")
        .record(elapsed);
  }
  state.counters["sim_us_per_transfer"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 /
      static_cast<double>(state.iterations()));
  state.counters["pkts_per_transfer"] = benchmark::Counter(
      static_cast<double>(total_packets) /
      static_cast<double>(state.iterations()));
  BenchReport::instance().harvest(system.sim());
}
BENCHMARK(BM_E12TellerTransfer)->Unit(benchmark::kMillisecond)->Iterations(10);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e12_sharded_bank");
