// E2 — §3.6 voting study: unmarshalled (VVM-style) voting vs the
// byte-by-byte baseline (Immune [25], Rampart [36], stock Castro-Liskov),
// exact vs inexact policies, across payload shapes.
//
// Reproduced shapes:
//   * byte-by-byte voting FAILS to decide across heterogeneous replicas
//     (counter "decided" = 0) while unmarshalled voting decides on exactly
//     the same replies;
//   * inexact voting is required once replies carry platform float jitter;
//   * voting cost scales with the unmarshalled value size, and unmarshalled
//     voting costs more CPU than byte comparison — the price of
//     heterogeneity tolerance.
#include "bench_util.hpp"

#include "itdos/voting.hpp"

namespace itdos::bench {
namespace {

using namespace itdos;
using cdr::Value;
using core::Ballot;
using core::Vote;
using core::VotePolicy;

/// Replies from a heterogeneous 3f+1 group: alternating byte orders, with
/// optional per-replica float jitter.
std::vector<Ballot> heterogeneous_ballots(int n, std::size_t floats,
                                          double jitter) {
  std::vector<Ballot> out;
  for (int i = 0; i < n; ++i) {
    std::vector<Value> elems;
    for (std::size_t k = 0; k < floats; ++k) {
      elems.push_back(
          Value::float64(1.5 * static_cast<double>(k + 1) + i * jitter));
    }
    const Value value = Value::sequence(std::move(elems));
    Ballot ballot;
    ballot.source = NodeId(static_cast<std::uint64_t>(i + 1));
    ballot.raw = value.encode(i % 2 == 0 ? cdr::ByteOrder::kLittleEndian
                                         : cdr::ByteOrder::kBigEndian);
    ballot.value = value;
    out.push_back(std::move(ballot));
  }
  return out;
}

void run_policy_bench(benchmark::State& state, VotePolicy policy, double jitter) {
  const int f = 1;
  const auto ballots =
      heterogeneous_ballots(3 * f + 1, static_cast<std::size_t>(state.range(0)), jitter);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("e2.vote_ns");
  telemetry::Counter& started = reg.counter("e2.votes_started");
  telemetry::Counter& decided_counter = reg.counter("e2.votes_decided");
  std::uint64_t decided = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    started.inc();
    Vote vote(f, policy);
    bool done = false;
    for (const Ballot& b : ballots) {
      if (vote.add(b)) {
        done = true;
        break;
      }
    }
    if (done) decided_counter.inc();
    decided += done ? 1 : 0;
  }
  state.counters["decided"] = benchmark::Counter(
      static_cast<double>(decided) / static_cast<double>(state.iterations()));
}

void BM_E2ExactUnmarshalled(benchmark::State& state) {
  run_policy_bench(state, VotePolicy::exact(), /*jitter=*/0.0);
}
BENCHMARK(BM_E2ExactUnmarshalled)->Arg(4)->Arg(64)->Arg(1024);

void BM_E2ByteByByte_Heterogeneous(benchmark::State& state) {
  // Expected: decided = 0 — the §3.6 failure. Fully heterogeneous replicas
  // (different byte orders AND per-platform float rounding) never produce
  // f+1 byte-identical replies.
  run_policy_bench(state, VotePolicy::byte_by_byte(), /*jitter=*/1e-12);
}
BENCHMARK(BM_E2ByteByByte_Heterogeneous)->Arg(4)->Arg(64)->Arg(1024);

void BM_E2ByteByByte_EndianOnly(benchmark::State& state) {
  // With ONLY byte-order diversity (2 platforms, 2 replicas each) a byte
  // voter still limps along by matching the same-endian pair — until any
  // same-endian replica fails. Expected: decided = 1, but support comes
  // exclusively from one platform (a 2-of-4 fragility the counters expose).
  run_policy_bench(state, VotePolicy::byte_by_byte(), /*jitter=*/0.0);
}
BENCHMARK(BM_E2ByteByByte_EndianOnly)->Arg(4)->Arg(64);

void BM_E2ExactUnderJitter(benchmark::State& state) {
  // Expected: decided = 0 — exact equality also fails on inexact values.
  run_policy_bench(state, VotePolicy::exact(), /*jitter=*/1e-12);
}
BENCHMARK(BM_E2ExactUnderJitter)->Arg(4)->Arg(64);

void BM_E2InexactUnderJitter(benchmark::State& state) {
  // Expected: decided = 1 — inexact voting absorbs platform jitter.
  run_policy_bench(state, VotePolicy::inexact(1e-9), /*jitter=*/1e-12);
}
BENCHMARK(BM_E2InexactUnderJitter)->Arg(4)->Arg(64)->Arg(1024);

void BM_E2ByteByByte_Homogeneous(benchmark::State& state) {
  // The baseline's home turf: identical platforms, identical bytes. This is
  // the case Immune/Rampart support; it is CHEAPER than unmarshalled voting
  // (raw memcmp), which is the trade-off ITDOS pays for heterogeneity.
  const int f = 1;
  std::vector<Value> elems;
  for (std::int64_t k = 0; k < state.range(0); ++k) elems.push_back(Value::int64(k));
  const Value value = Value::sequence(std::move(elems));
  const BufView wire = value.encode(cdr::ByteOrder::kLittleEndian);
  std::uint64_t decided = 0;
  for (auto _ : state) {
    Vote vote(f, VotePolicy::byte_by_byte());
    bool done = false;
    for (int i = 0; i < 3 * f + 1 && !done; ++i) {
      Ballot b;
      b.source = NodeId(static_cast<std::uint64_t>(i + 1));
      b.raw = wire;
      done = vote.add(std::move(b)).has_value();
    }
    decided += done ? 1 : 0;
  }
  state.counters["decided"] = benchmark::Counter(
      static_cast<double>(decided) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_E2ByteByByte_Homogeneous)->Arg(4)->Arg(64)->Arg(1024);

void BM_E2UnmarshalPlusVote(benchmark::State& state) {
  // Full receiver-side path: unmarshal each heterogeneous reply, then vote —
  // the true cost the voter adds per reply compared with memcmp.
  const int f = 1;
  const auto ballots =
      heterogeneous_ballots(3 * f + 1, static_cast<std::size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    Vote vote(f, VotePolicy::exact());
    for (const Ballot& b : ballots) {
      const cdr::ByteOrder order = (b.source.value % 2 == 1)
                                       ? cdr::ByteOrder::kLittleEndian
                                       : cdr::ByteOrder::kBigEndian;
      Ballot fresh;
      fresh.source = b.source;
      fresh.raw = b.raw;
      auto value = Value::decode(b.raw, order);
      if (value.is_ok()) fresh.value = std::move(value).take();
      if (vote.add(std::move(fresh))) break;
    }
  }
}
BENCHMARK(BM_E2UnmarshalPlusVote)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e2_voting");
