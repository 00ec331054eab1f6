// E10 — recovery subsystem (DESIGN.md §6d): mean time to repair from the
// first forged reply to membership restored at 3f+1 with the fresh identity
// keyed in (detection -> expulsion -> replacement -> membership_update ->
// rekey), plus a GM-side micro-benchmark of the ordered membership_update
// command itself. The report's recovery.* counters, the recovery.mttr_ns
// histogram and the recovery.recovering gauge series feed the MTTR gate in
// scripts/bench_smoke.sh.
#include "bench_util.hpp"

#include <array>

#include "bft/harness.hpp"
#include "recovery/recovery_manager.hpp"

namespace itdos::bench {
namespace {

/// Calculator with persistence: replacements rebuild state from peer
/// bundles, so the measured cycle includes real state transfer.
class PersistentCalculator : public BenchCalculator {
 public:
  void dispatch(const std::string& operation, const cdr::Value& arguments,
                orb::ServerContext& context, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      for (const cdr::Value& v : arguments.elements()) total_ += v.as_int64();
      sink->reply(cdr::Value::int64(total_));
      return;
    }
    BenchCalculator::dispatch(operation, arguments, context, sink);
  }

  Result<Bytes> save_state() const override {
    cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
    enc.write_int64(total_);
    return enc.take();
  }

  Status load_state(ByteView state) override {
    cdr::Decoder dec(state, cdr::ByteOrder::kLittleEndian);
    ITDOS_ASSIGN_OR_RETURN(total_, dec.read_int64());
    return Status::ok();
  }

 private:
  std::int64_t total_ = 0;
};

void BM_E10ExpelToRestored(benchmark::State& state) {
  // Full repair pipeline: invoke (lie observed) -> proof-backed expulsion ->
  // fresh identity bootstraps -> ordered membership_update -> domain rekey.
  // MTTR is the manager's own trigger->restored measurement in sim time.
  std::int64_t total_mttr_ns = 0;
  std::uint64_t seed = 71;
  for (auto _ : state) {
    core::SystemOptions options;
    options.seed = seed++;
    core::ItdosSystem system(options);
    const DomainId domain = system.add_domain(
        1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
          // Key 1 is free in a freshly built domain; activation cannot fail.
          (void)adapter.activate_with_key(
              ObjectId(1), std::make_shared<PersistentCalculator>());
        });
    recovery::RecoveryManager manager(system);
    manager.watch();
    std::int64_t mttr_ns = 0;
    manager.add_listener([&mttr_ns](const recovery::RecoveryEvent& event) {
      if (event.kind == recovery::RecoveryEvent::Kind::kCompleted) mttr_ns = event.mttr_ns;
    });
    const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
    system.element(domain, 2).set_reply_mutator([](cdr::ReplyMessage reply) {
      reply.result = cdr::Value::int64(666);
      return reply;
    });
    core::ItdosClient& client = system.add_client();
    const orb::ObjectRef ref =
        system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");

    // Keep request traffic flowing while the repair runs: MTTR is measured
    // under load (a quiescent domain would lean on the watchdog retry for
    // its ordered sync point and measure the deadline instead).
    for (int i = 0; i < 30 && reg.counter_value("recovery.completed") < 1; ++i) {
      if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30))
               .is_ok()) {
        state.SkipWithError("invocation failed");
        return;
      }
    }
    system.settle();
    if (reg.counter_value("recovery.completed") < 1) {
      state.SkipWithError("recovery did not complete");
      return;
    }
    total_mttr_ns += mttr_ns;
    BenchReport::instance().harvest(system.sim());
  }
  state.counters["sim_ms_mttr"] = benchmark::Counter(
      static_cast<double>(total_mttr_ns) / 1e6 /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_E10ExpelToRestored)->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_E10ProactiveRotation(benchmark::State& state) {
  // Rejuvenating a HEALTHY element: no detection latency in the path, so
  // this isolates replacement + admission + rekey cost.
  std::int64_t total_mttr_ns = 0;
  std::uint64_t seed = 91;
  for (auto _ : state) {
    core::SystemOptions options;
    options.seed = seed++;
    core::ItdosSystem system(options);
    const DomainId domain = system.add_domain(
        1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
          // Key 1 is free in a freshly built domain; activation cannot fail.
          (void)adapter.activate_with_key(
              ObjectId(1), std::make_shared<PersistentCalculator>());
        });
    recovery::RecoveryManager manager(system);
    std::int64_t mttr_ns = 0;
    manager.add_listener([&mttr_ns](const recovery::RecoveryEvent& event) {
      if (event.kind == recovery::RecoveryEvent::Kind::kCompleted) mttr_ns = event.mttr_ns;
    });
    core::ItdosClient& client = system.add_client();
    const orb::ObjectRef ref =
        system.object_ref(domain, ObjectId(1), "IDL:bench/Calc:1.0");
    if (!system.invoke_sync(client, ref, "add", int_args(1, 1), seconds(30))
             .is_ok()) {
      state.SkipWithError("invocation failed");
      return;
    }
    manager.recover_now(domain, 0);
    system.settle();
    if (system.sim().telemetry().metrics().counter_value("recovery.completed") < 1) {
      state.SkipWithError("rotation did not complete");
      return;
    }
    total_mttr_ns += mttr_ns;
    BenchReport::instance().harvest(system.sim());
  }
  state.counters["sim_ms_rotation"] = benchmark::Counter(
      static_cast<double>(total_mttr_ns) / 1e6 /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_E10ProactiveRotation)->Unit(benchmark::kMillisecond)->Iterations(5);

/// GM-side micro: host cost of the ordered membership_update command
/// (validation chain + retirement + domain rekey under refreshed sub-keys)
/// as a function of the domain's f. Alternates two slots so every execution
/// takes the full accept path.
void BM_E10MembershipUpdate(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
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
  const NodeId authority(8000);
  directory->set_recovery_authority(authority);
  auto keystore = std::make_shared<crypto::Keystore>();
  core::GmStateMachine machine(directory, keystore, nullptr);

  // One live connection so each admission has something to rekey.
  core::OpenRequestMsg open;
  open.client_node = NodeId(9000);
  open.target = DomainId(10);
  (void)bft::execute_with_digest(machine, core::encode_gm_command(core::GmCommand(open)),
                                 NodeId(9000), SeqNum(1));

  auto& reg = BenchReport::instance().registry();
  telemetry::Histogram& hist = reg.histogram("e10.membership_update_ns");
  telemetry::Counter& ops = reg.counter("e10.membership_update_ops");
  std::uint64_t seq = 10;
  std::uint64_t fresh = 9100;
  std::uint64_t epoch = 0;
  // Track each slot's current holder; admissions alternate between ranks.
  std::array<NodeId, 2> holders = {server.elements[0].smiop_node,
                                   server.elements[1].smiop_node};
  for (auto _ : state) {
    core::MembershipUpdateMsg update;
    update.domain = DomainId(10);
    update.rank = static_cast<std::uint32_t>(epoch % 2);
    update.retired_element = holders[epoch % 2];
    update.admitted_element = NodeId(fresh++);
    update.admitted_gm_client = NodeId(fresh++);
    update.admitted_self_client = NodeId(fresh++);
    update.expected_epoch = epoch;
    holders[epoch % 2] = update.admitted_element;
    ++epoch;
    const BufView command = core::encode_gm_command(core::GmCommand(update));
    ScopedHostTimer timer(hist);
    ops.inc();
    const Bytes reply = bft::execute_with_digest(machine, command, authority, SeqNum(++seq));
    benchmark::DoNotOptimize(reply);
  }
  state.counters["elements"] = benchmark::Counter(3.0 * f + 1);
}
BENCHMARK(BM_E10MembershipUpdate)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace itdos::bench

ITDOS_BENCH_MAIN("e10_recovery");
