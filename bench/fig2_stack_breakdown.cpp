// F2 — Figure 2 reproduction: per-layer cost of one invocation through the
// SMIOP protocol stack. Each benchmark isolates one layer of the exploded
// stack the figure shows:
//
//   Marshal (CDR/GIOP)  ->  Seal (communication key)  ->  Secure Reliable
//   Multicast (PBFT ordering)  ->  Queue Management  ->  Unseal + Unmarshal
//   ->  Voter
//
// Payload size is swept so the per-layer scaling is visible (the §4 "large
// objects" concern).
#include "bench_util.hpp"

#include "bft/harness.hpp"
#include "itdos/queue.hpp"

namespace itdos::bench {
namespace {

cdr::RequestMessage request_of_size(std::size_t bytes) {
  cdr::RequestMessage req;
  req.request_id = RequestId(1);
  req.object_key = ObjectId(1);
  req.operation = "echo";
  req.interface_name = "IDL:bench/Calc:1.0";
  req.arguments = payload_of_size(bytes);
  return req;
}

void BM_Layer_Marshal(benchmark::State& state) {
  const auto req = request_of_size(static_cast<std::size_t>(state.range(0)));
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.marshal_ns");
  telemetry::Counter& ops = reg.counter("fig2.marshal_ops");
  std::size_t wire_size = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    const Bytes wire = cdr::encode_giop(cdr::GiopMessage(req));
    wire_size = wire.size();
    benchmark::DoNotOptimize(wire);
    ops.inc();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire_size));
}
BENCHMARK(BM_Layer_Marshal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Layer_Unmarshal(benchmark::State& state) {
  const Bytes wire = cdr::encode_giop(
      cdr::GiopMessage(request_of_size(static_cast<std::size_t>(state.range(0)))));
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.unmarshal_ns");
  telemetry::Counter& ops = reg.counter("fig2.unmarshal_ops");
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    auto parsed = cdr::parse_giop(wire);
    benchmark::DoNotOptimize(parsed);
    ops.inc();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_Layer_Unmarshal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Sha256(benchmark::State& state) {
  // The compression kernel under every MAC, seal and digest: a one-shot
  // digest hands all whole blocks to the kernel in one call.
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.sha256_ns");
  telemetry::Counter& ops = reg.counter("fig2.sha256_ops");
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    benchmark::DoNotOptimize(crypto::sha256(ByteView(data)));
    ops.inc();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(16384);

void BM_Layer_Seal(benchmark::State& state) {
  const Bytes plain = cdr::encode_giop(
      cdr::GiopMessage(request_of_size(static_cast<std::size_t>(state.range(0)))));
  const auto key = crypto::SymmetricKey::from_bytes(Bytes(crypto::kSymmetricKeySize, 0x42));
  const core::SealAad aad = core::seal_aad(ConnectionId(1), RequestId(1), KeyEpoch(1), false);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.seal_ns");
  telemetry::Counter& ops = reg.counter("fig2.seal_ops");
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    const Bytes sealed = crypto::seal(key, crypto::make_nonce(1, ++nonce), aad, plain);
    benchmark::DoNotOptimize(sealed);
    ops.inc();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * plain.size()));
}
BENCHMARK(BM_Layer_Seal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Layer_Unseal(benchmark::State& state) {
  const Bytes plain = cdr::encode_giop(
      cdr::GiopMessage(request_of_size(static_cast<std::size_t>(state.range(0)))));
  const auto key = crypto::SymmetricKey::from_bytes(Bytes(crypto::kSymmetricKeySize, 0x42));
  const core::SealAad aad = core::seal_aad(ConnectionId(1), RequestId(1), KeyEpoch(1), false);
  const Bytes sealed = crypto::seal(key, crypto::make_nonce(1, 1), aad, plain);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.unseal_ns");
  telemetry::Counter& ops = reg.counter("fig2.unseal_ops");
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    auto opened = crypto::open(key, aad, sealed);
    benchmark::DoNotOptimize(opened);
    ops.inc();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * plain.size()));
}
BENCHMARK(BM_Layer_Unseal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Layer_Mac(benchmark::State& state) {
  // One authenticator entry as the agreement layer computes it: the pairwise
  // key is cached after the first call, so this times the per-message MAC.
  const bft::SessionKeys keys(Bytes(32, 0x42));
  const Bytes body(static_cast<std::size_t>(state.range(0)), 0x5a);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.mac_ns");
  telemetry::Counter& ops = reg.counter("fig2.mac_ops");
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    benchmark::DoNotOptimize(keys.tag(NodeId(1), NodeId(2), body));
    ops.inc();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * body.size()));
}
BENCHMARK(BM_Layer_Mac)->Arg(64)->Arg(1024);

void BM_Layer_BftOrdering(benchmark::State& state) {
  // The Secure Reliable Multicast layer alone: one ordered no-op request
  // through a 3f+1 PBFT group (f = 1).
  bft::ClusterOptions options;
  options.f = 1;
  bft::Cluster cluster(options,
                       [](int) { return std::make_unique<bft::LogStateMachine>(); });
  bft::Client& client = cluster.add_client();
  const BufView payload = Bytes(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::int64_t total_sim_ns = 0;
  for (auto _ : state) {
    const SimTime before = cluster.sim().now();
    if (!cluster.invoke_sync(client, payload).is_ok()) {
      state.SkipWithError("ordering failed");
      return;
    }
    total_sim_ns += cluster.sim().now() - before;
  }
  state.counters["sim_us_per_order"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e3 / static_cast<double>(state.iterations()));
  BenchReport::instance().harvest(cluster.sim());
}
BENCHMARK(BM_Layer_BftOrdering)->Arg(64)->Arg(16384)->Iterations(50);

void BM_Layer_QueueManagement(benchmark::State& state) {
  // Append + consume + periodic ack bookkeeping per entry.
  core::QueueOptions options;
  options.n = 4;
  options.f = 1;
  core::QueueStateMachine queue(options);
  core::OrderedMsg msg;
  msg.conn = ConnectionId(1);
  msg.origin = NodeId(1);
  msg.epoch = KeyEpoch(1);
  msg.sealed_giop = Bytes(static_cast<std::size_t>(state.range(0)), 0x5a);
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.queue_append_ns");
  telemetry::Counter& ops = reg.counter("fig2.queue_append_ops");
  std::uint64_t rid = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    ops.inc();
    msg.rid = RequestId(++rid);
    bft::execute_with_digest(queue, msg.encode(), NodeId(9), SeqNum(++seq));
    benchmark::DoNotOptimize(queue.next());
    if (rid % 8 == 0) {
      for (int e = 1; e <= 3; ++e) {
        bft::execute_with_digest(queue, core::QueueAckMsg{NodeId(100 + e), rid}.encode(), NodeId(9),
                                 SeqNum(++seq));
      }
    }
  }
}
BENCHMARK(BM_Layer_QueueManagement)->Arg(64)->Arg(16384);

void BM_Layer_Vote(benchmark::State& state) {
  // One complete vote: 2f+1 = 3 ballots of the given payload size.
  const BufView plain = cdr::encode_giop(
      cdr::GiopMessage(request_of_size(static_cast<std::size_t>(state.range(0)))));
  const auto parsed = cdr::parse_giop(plain);
  const auto& req = std::get<cdr::RequestMessage>(parsed.value());
  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("fig2.vote_ns");
  telemetry::Counter& ops = reg.counter("fig2.vote_ops");
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    ops.inc();
    core::Vote vote(1, core::VotePolicy::exact());
    for (int i = 0; i < 3; ++i) {
      core::Ballot ballot;
      ballot.source = NodeId(static_cast<std::uint64_t>(i + 1));
      ballot.raw = plain;
      ballot.value = req.arguments;
      benchmark::DoNotOptimize(vote.add(std::move(ballot)));
    }
  }
}
BENCHMARK(BM_Layer_Vote)->Arg(64)->Arg(16384)->Arg(262144);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("fig2_stack_breakdown");
