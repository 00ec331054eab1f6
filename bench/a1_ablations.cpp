// Ablations — costs of individual ITDOS design choices:
//   * a1: adaptive vs fixed vote policies on dispersed float replies
//     (the §4 "adaptive voting" extension [32]);
//   * a2: queue-management ack cadence — GC responsiveness (retained window)
//     vs ordering overhead (§3.1's "garbage collection" knob);
//   * a3: firewall-proxy admission cost per message (Figure 1's proxies);
//   * a4: element replacement end-to-end time (§4 extension).
#include "bench_util.hpp"

#include "bft/harness.hpp"
#include "itdos/proxy.hpp"
#include "itdos/queue.hpp"

namespace itdos::bench {
namespace {

// ---------------------------------------------------------------------------
// a1: vote policy ablation
// ---------------------------------------------------------------------------

void run_dispersed_vote(benchmark::State& state, core::VotePolicy policy) {
  // 4 replies dispersed by ~1e-4 — beyond a 1e-9 epsilon, inside 1e-2.
  std::vector<core::Ballot> ballots;
  for (int i = 0; i < 4; ++i) {
    const cdr::Value v = cdr::Value::float64(1.0 + i * 1e-4);
    core::Ballot b;
    b.source = NodeId(static_cast<std::uint64_t>(i + 1));
    b.raw = v.encode(cdr::ByteOrder::kLittleEndian);
    b.value = v;
    ballots.push_back(std::move(b));
  }
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("a1.vote_ns");
  telemetry::Counter& started = reg.counter("a1.votes_started");
  telemetry::Counter& decided_counter = reg.counter("a1.votes_decided");
  std::uint64_t decided = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    started.inc();
    core::Vote vote(1, policy);
    bool done = false;
    for (const auto& b : ballots) {
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

void BM_A1FixedTightEpsilon(benchmark::State& state) {
  run_dispersed_vote(state, core::VotePolicy::inexact(1e-9));  // starves
}
BENCHMARK(BM_A1FixedTightEpsilon);

void BM_A1FixedLooseEpsilon(benchmark::State& state) {
  run_dispersed_vote(state, core::VotePolicy::inexact(1e-2));  // decides, but
  // this precision is surrendered on EVERY vote, not just dispersed ones.
}
BENCHMARK(BM_A1FixedLooseEpsilon);

void BM_A1Adaptive(benchmark::State& state) {
  run_dispersed_vote(state, core::VotePolicy::adaptive(1e-9, 1e-2));
}
BENCHMARK(BM_A1Adaptive);

// ---------------------------------------------------------------------------
// a2: queue ack cadence
// ---------------------------------------------------------------------------

void BM_A2AckInterval(benchmark::State& state) {
  // Feed 512 entries; an element acks every `interval` consumptions. Report
  // the retained window (memory held hostage to GC cadence) and the ack
  // entries added to the ordered stream (ordering overhead).
  const std::uint64_t interval = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t retained = 0;
  std::uint64_t acks = 0;
  for (auto _ : state) {
    core::QueueOptions options;
    options.n = 4;
    options.f = 1;
    core::QueueStateMachine queue(options);
    std::uint64_t seq = 0;
    std::uint64_t consumed_since_ack = 0;
    std::uint64_t max_window = 0;
    acks = 0;
    core::OrderedMsg msg;
    msg.conn = ConnectionId(1);
    msg.origin = NodeId(9);
    msg.epoch = KeyEpoch(1);
    msg.sealed_giop = Bytes(128, 0x5a);
    for (int i = 1; i <= 512; ++i) {
      msg.rid = RequestId(static_cast<std::uint64_t>(i));
      bft::execute_with_digest(queue, msg.encode(), NodeId(9), SeqNum(++seq));
      (void)queue.next();
      if (++consumed_since_ack >= interval) {
        consumed_since_ack = 0;
        ++acks;
        // All four elements ack in lockstep (the best case for GC).
        for (int e = 1; e <= 4; ++e) {
          const core::QueueAckMsg ack{NodeId(static_cast<std::uint64_t>(e)),
                                      queue.consumed_index()};
          bft::execute_with_digest(queue, ack.encode(), NodeId(9), SeqNum(++seq));
        }
      }
      max_window = std::max(max_window, queue.size());
    }
    retained = max_window;
  }
  state.counters["max_window_entries"] = benchmark::Counter(static_cast<double>(retained));
  state.counters["ack_rounds"] = benchmark::Counter(static_cast<double>(acks));
}
BENCHMARK(BM_A2AckInterval)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------------
// a3: firewall admission cost
// ---------------------------------------------------------------------------

void BM_A3FirewallAdmitValid(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  core::FirewallProxy proxy(registry, DomainId(1));
  bft::Frame frame(bft::MsgType::kPrepare, NodeId(1),
                   Bytes(static_cast<std::size_t>(state.range(0)), 0x5a),
                   bft::Frame::trailer_bound(0, false));
  const net::Packet packet{NodeId(1), NodeId(2), std::nullopt, frame.seal_entries({})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(proxy.admit(packet));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * packet.payload.size()));
}
BENCHMARK(BM_A3FirewallAdmitValid)->Arg(64)->Arg(4096)->Arg(65536);

void BM_A3FirewallRejectGarbage(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  core::FirewallProxy proxy(registry, DomainId(1));
  Rng rng(9);
  const net::Packet packet{NodeId(1), NodeId(2), std::nullopt,
                           rng.next_bytes(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(proxy.admit(packet));
  }
}
BENCHMARK(BM_A3FirewallRejectGarbage)->Arg(64)->Arg(4096)->Arg(65536);

// ---------------------------------------------------------------------------
// a4: element replacement
// ---------------------------------------------------------------------------

class PersistentCalc : public BenchCalculator {
 public:
  Result<Bytes> save_state() const override { return Bytes{}; }
  Status load_state(ByteView) override { return Status::ok(); }
};

void BM_A4ReplacementTime(benchmark::State& state) {
  std::int64_t total_sim_ns = 0;
  std::uint64_t seed = 81;
  for (auto _ : state) {
    core::SystemOptions options;
    options.seed = seed++;
    core::ItdosSystem system(options);
    const DomainId domain = system.add_domain(
        1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
          (void)adapter.activate_with_key(ObjectId(1),
                                          std::make_shared<PersistentCalc>());
        });
    core::ItdosClient& client = system.add_client();
    const orb::ObjectRef ref =
        system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");
    for (int i = 0; i < 4; ++i) {
      if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
        state.SkipWithError("setup failed");
        return;
      }
    }
    system.crash_element(domain, 1);
    const SimTime before = system.sim().now();
    core::DomainElement& fresh = system.replace_element(domain, 1);
    const SimTime horizon = before + seconds(10);
    while (!fresh.replacement_complete() && system.sim().now() < horizon) {
      if (!system.sim().step()) break;
    }
    if (!fresh.replacement_complete()) {
      state.SkipWithError("replacement did not complete");
      return;
    }
    total_sim_ns += system.sim().now() - before;
    BenchReport::instance().harvest(system.sim());
  }
  state.counters["sim_ms_to_replace"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e6 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_A4ReplacementTime)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("a1_ablations");
