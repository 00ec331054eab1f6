// E6 — §3.6 fault detection + §3.5 rekeying: end-to-end time from the first
// forged reply to the faulty element being keyed out (client holds the new
// epoch), via the singleton-client-with-proof path; plus GM-side
// micro-benchmarks of proof verification and the domain-quorum path.
#include "bench_util.hpp"

#include "bft/harness.hpp"
#include "cdr/giop.hpp"

namespace itdos::bench {
namespace {

void BM_E6DetectExpelRekey(benchmark::State& state) {
  // Full pipeline: invoke (lie observed) -> voter flags dissenter ->
  // change_request with signed proof -> GM re-vote -> expulsion -> DPRF
  // rekey -> client installs epoch 2.
  std::int64_t total_sim_ns = 0;
  std::uint64_t seed = 51;
  for (auto _ : state) {
    core::SystemOptions options;
    options.seed = seed++;
    core::ItdosSystem system(options);
    const DomainId domain =
        system.add_domain(1, core::VotePolicy::exact(), calculator_installer());
    system.element(domain, 2).set_reply_mutator([](cdr::ReplyMessage reply) {
      reply.result = cdr::Value::int64(666);
      return reply;
    });
    core::ItdosClient& client = system.add_client();
    const orb::ObjectRef ref =
        system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");

    const SimTime before = system.sim().now();
    if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30)).is_ok()) {
      state.SkipWithError("invocation failed");
      return;
    }
    // Run until the rekey lands at the client (epoch >= 2).
    const ConnectionId conn(1);
    const SimTime horizon = system.sim().now() + seconds(5);
    while (system.sim().now() < horizon) {
      const auto* entry = client.party().conn_table().find(conn);
      if (entry != nullptr && entry->record.epoch.value >= 2) break;
      if (!system.sim().step()) break;
    }
    const auto* entry = client.party().conn_table().find(conn);
    if (entry == nullptr || entry->record.epoch.value < 2) {
      state.SkipWithError("rekey did not complete");
      return;
    }
    total_sim_ns += system.sim().now() - before;
    BenchReport::instance().harvest(system.sim());
  }
  state.counters["sim_ms_detect_to_rekey"] = benchmark::Counter(
      static_cast<double>(total_sim_ns) / 1e6 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_E6DetectExpelRekey)->Unit(benchmark::kMillisecond)->Iterations(5);

/// GM-side micro: proof verification cost (signature checks + standalone
/// unmarshal + re-vote) as a function of the accused domain's f.
void BM_E6ProofVerification(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  // Build a directory with a target domain of 3f+1 elements.
  core::DomainInfo gm;
  gm.id = DomainId(1);
  gm.f = 1;
  gm.group = McastGroupId(1);
  for (int i = 0; i < 4; ++i) {
    core::ElementInfo info;
    info.bft_node = NodeId(static_cast<std::uint64_t>(100 + i * 4));
    info.smiop_node = NodeId(static_cast<std::uint64_t>(101 + i * 4));
    info.gm_client_node = NodeId(static_cast<std::uint64_t>(102 + i * 4));
    info.self_client_node = NodeId(static_cast<std::uint64_t>(103 + i * 4));
    gm.elements.push_back(info);
  }
  auto directory =
      std::make_shared<core::SystemDirectory>(gm, core::ProtocolTiming{});
  core::DomainInfo server;
  server.id = DomainId(10);
  server.f = f;
  server.group = McastGroupId(10);
  for (int i = 0; i < 3 * f + 1; ++i) {
    core::ElementInfo info;
    info.bft_node = NodeId(static_cast<std::uint64_t>(500 + i * 4));
    info.smiop_node = NodeId(static_cast<std::uint64_t>(501 + i * 4));
    info.gm_client_node = NodeId(static_cast<std::uint64_t>(502 + i * 4));
    info.self_client_node = NodeId(static_cast<std::uint64_t>(503 + i * 4));
    server.elements.push_back(info);
  }
  directory->add_domain(server);
  auto keystore = std::make_shared<crypto::Keystore>();
  core::GmStateMachine machine(directory, keystore, nullptr);

  // Establish a connection so the change_request has something to rekey.
  core::OpenRequestMsg open;
  open.client_node = NodeId(9000);
  open.target = DomainId(10);
  (void)bft::execute_with_digest(machine, core::encode_gm_command(core::GmCommand(open)),
                                 NodeId(9000), SeqNum(1));

  // Build a (valid-signature, honest-majority) proof with 2f+1 replies; the
  // accused agrees, so the request is verified and then REJECTED — pure
  // verification cost, no state change, so the loop is repeatable.
  core::ChangeRequestMsg change;
  change.reporter = NodeId(9000);
  change.accused_domain = DomainId(10);
  change.accused_element = server.elements[0].smiop_node;
  change.conn = ConnectionId(1);
  change.rid = RequestId(1);
  Rng rng(5);
  for (int i = 0; i < 2 * f + 1; ++i) {
    const NodeId element = server.elements[static_cast<std::size_t>(i)].smiop_node;
    cdr::ReplyMessage reply;
    reply.request_id = RequestId(1);
    reply.result = cdr::Value::int64(42);
    core::ProofEntry entry;
    entry.element = element;
    entry.epoch = KeyEpoch(1);
    entry.plain_giop = cdr::encode_giop(cdr::GiopMessage(reply));
    const crypto::SigningKey key = keystore->issue(element, rng);
    entry.signature = key.sign(core::DirectReplyMsg::signed_region(
        change.conn, change.rid, element, KeyEpoch(1),
        crypto::sha256(ByteView(entry.plain_giop))));
    change.proof.push_back(std::move(entry));
  }
  const BufView command = core::encode_gm_command(core::GmCommand(change));

  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("e6.proof_verify_ns");
  telemetry::Counter& ops = reg.counter("e6.proof_verify_ops");
  std::uint64_t seq = 10;
  for (auto _ : state) {
    ScopedHostTimer timer(hist);
    ops.inc();
    const Bytes reply = bft::execute_with_digest(machine, command, NodeId(9000), SeqNum(++seq));
    benchmark::DoNotOptimize(reply);
  }
  state.counters["proof_entries"] = benchmark::Counter(2.0 * f + 1);
}
BENCHMARK(BM_E6ProofVerification)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e6_expulsion_rekey");
