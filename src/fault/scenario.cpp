#include "fault/scenario.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "bft/harness.hpp"
#include "control/controller.hpp"
#include "fault/injector.hpp"
#include "itdos/system.hpp"
#include "recovery/proactive.hpp"
#include "shard/bank.hpp"

namespace itdos::fault {
namespace {

class SumServant : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:fault/Sum:1.0"; }
  void dispatch(const std::string&, const cdr::Value& args, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    std::int64_t sum = 0;
    for (const auto& v : args.elements()) sum += v.as_int64();
    sink->reply(cdr::Value::int64(sum));
  }
};

/// A stateful accumulator WITH persistence: recovery scenarios must move real
/// servant state through the f+1 byte-identical bundle certification.
class PersistentSum : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:fault/PSum:1.0"; }

  void dispatch(const std::string& operation, const cdr::Value& args,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      for (const auto& v : args.elements()) total_ += v.as_int64();
    }
    sink->reply(cdr::Value::int64(total_));
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

// ---------------------------------------------------------------------------
// The runner: every row goes build -> arm -> watch -> drive -> report.
// ---------------------------------------------------------------------------

/// What a row deploys.
enum class Topology {
  kCluster,              // a BFT replica group (f = 1) ordering counter increments
  kSumDomain,            // GM + one ITDOS domain (f = 1) serving SumServant
  kPersistentSumDomain,  // GM + one ITDOS domain (f = 1) serving PersistentSum
  kBank,                 // GM + the 2-shard bank of src/shard/
};

/// One scenario run: the deployment, the armed plan, the oracle, and the
/// machinery a row's drive code starts. Members are destroyed in reverse
/// order, so that machinery goes before the system it holds on to.
struct Run {
  std::uint64_t seed = 0;
  std::unique_ptr<bft::Cluster> cluster;      // kCluster
  std::unique_ptr<core::ItdosSystem> system;  // every other topology
  std::optional<shard::Bank> bank;            // kBank
  std::vector<DomainId> domains;  // oracle group i + 1 watches domains[i]
  DomainId target;                // where element and adaptive faults land
  orb::ObjectRef ref;             // the single-domain servant
  // Clients that exist before arming: the bank's own, or the parties the
  // plan's client faults name (by add_client() index).
  std::vector<core::ItdosClient*> clients;

  FaultPlan plan;  // as armed; empty until then
  std::optional<FaultInjector> injector;
  std::optional<Oracle> oracle;
  std::optional<recovery::RecoveryManager> manager;
  std::optional<recovery::ProactiveScheduler> scheduler;
  std::optional<control::ResponseController> controller;
  std::size_t overloads = 0;  // explicit OVERLOAD replies clients saw
  std::int64_t last_mttr_ns = 0;  // from the latest kCompleted recovery event

  net::Simulator& sim() { return cluster ? cluster->sim() : system->sim(); }
};

struct Tally {
  std::size_t sent = 0;
  std::size_t completed = 0;
};

/// A canned scenario. `plan` may read the built deployment (node ids come
/// from its directory); a row without one arms from its own drive code.
struct Row {
  std::string name;
  Topology topology = Topology::kCluster;
  std::function<Tally(Run&)> drive;
  std::function<FaultPlan(const Run&)> plan;
  void (*tune_cluster)(bft::ClusterOptions&) = nullptr;
  void (*tune_system)(core::SystemOptions&) = nullptr;
};

shard::BankSpec bank_spec() {
  return {.shards = 2, .tellers = 1, .clients = 1, .accounts = 8};
}

void build(Run& run, const Row& row) {
  if (row.topology == Topology::kCluster) {
    bft::ClusterOptions options;
    options.f = 1;
    options.seed = run.seed;
    if (row.tune_cluster) row.tune_cluster(options);
    run.cluster = std::make_unique<bft::Cluster>(options, [](int) {
      return std::make_unique<bft::CounterStateMachine>();
    });
    return;
  }
  core::SystemOptions options;
  options.seed = run.seed;
  if (row.tune_system) row.tune_system(options);
  run.system = std::make_unique<core::ItdosSystem>(options);
  if (row.topology == Topology::kBank) {
    run.bank.emplace(shard::Bank::build(*run.system, bank_spec()));
    const shard::ShardTopology& topology = run.bank->topology();
    run.domains = {topology.front_domains().front(), topology.shard_domains()[0],
                   topology.shard_domains()[1]};
    run.target = topology.route(run.bank->accounts_of_shard(0).front());
    run.clients.push_back(&run.bank->client());
    return;
  }
  const bool persistent = row.topology == Topology::kPersistentSumDomain;
  run.target = run.system->add_domain(
      1, core::VotePolicy::exact(), [persistent](orb::ObjectAdapter& adapter, int) {
        std::shared_ptr<orb::Servant> servant = std::make_shared<SumServant>();
        if (persistent) servant = std::make_shared<PersistentSum>();
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1), std::move(servant));
      });
  run.domains = {run.target};
  run.ref = run.system->object_ref(run.target, ObjectId(1),
                                   persistent ? "IDL:fault/PSum:1.0" : "IDL:fault/Sum:1.0");
}

/// Arms every fault of `plan`, in plan order. Clients a client fault names
/// are added first, so their parties exist to be armed.
void arm(Run& run, FaultPlan plan) {
  plan.seed = run.seed;
  run.plan = plan;
  for (const ClientFault& fault : plan.client_faults) {
    while (run.clients.size() <= static_cast<std::size_t>(fault.client_index)) {
      run.clients.push_back(&run.system->add_client());
    }
  }
  FaultInjector& injector = run.injector.emplace(
      run.cluster ? run.cluster->network() : run.system->network(), std::move(plan));
  injector.arm_links();
  const FaultPlan& armed = injector.plan();
  for (const ReplicaFault& fault : armed.replica_faults) {
    injector.arm_replica(fault, run.cluster->replica(fault.rank));
  }
  for (const ElementFault& fault : armed.element_faults) {
    injector.arm_element(fault, *run.system, run.target);
  }
  for (const GmFault& fault : armed.gm_faults) injector.arm_gm(fault, *run.system);
  for (const ClientFault& fault : armed.client_faults) {
    injector.arm_client(fault, *run.clients[fault.client_index]);
  }
  for (const AdaptiveFault& fault : armed.adaptive_faults) {
    injector.arm_adaptive(fault, *run.system, run.target);
  }
}

/// Watches what the plan leaves correct (the invariants only bind correct
/// members): every GM element, every element but the target domain's
/// dissenters, every cluster replica and pre-built client without a fault.
void watch(Run& run) {
  Oracle& oracle = run.oracle.emplace(run.sim().telemetry());
  const FaultPlan& plan = run.plan;
  if (run.cluster) {
    std::set<int> faulty;
    for (const ReplicaFault& fault : plan.replica_faults) faulty.insert(fault.rank);
    for (int rank = 0; rank < run.cluster->n(); ++rank) {
      if (!faulty.contains(rank)) oracle.watch_replica(0, run.cluster->replica(rank));
    }
    return;
  }
  core::ItdosSystem& system = *run.system;
  for (int i = 0; i < system.gm_n(); ++i) {
    oracle.watch_replica(0, system.gm_element(i).replica());
    oracle.watch_gm(system.gm_element(i));
  }
  std::set<int> dissenting;
  for (const ElementFault& fault : plan.element_faults) {
    if (fault.kind == ElementFault::Kind::kDissentingReplies) dissenting.insert(fault.rank);
  }
  for (std::size_t group = 0; group < run.domains.size(); ++group) {
    const DomainId domain = run.domains[group];
    for (int rank = 0; rank < system.domain_n(domain); ++rank) {
      if (domain == run.target && dissenting.contains(rank)) continue;
      oracle.watch_replica(static_cast<int>(group) + 1,
                           system.element(domain, rank).replica());
    }
  }
  std::set<int> rogue;
  for (const ClientFault& fault : plan.client_faults) rogue.insert(fault.client_index);
  for (std::size_t i = 0; i < run.clients.size(); ++i) {
    if (!rogue.contains(static_cast<int>(i))) oracle.watch_party(run.clients[i]->party());
  }
}

std::uint64_t sum_shed_gauges(const telemetry::MetricsRegistry& registry) {
  std::uint64_t total = 0;
  for (const auto& [gauge_name, gauge] : registry.gauges()) {
    if (gauge_name.starts_with("admission.") && gauge_name.ends_with(".shed")) {
      total += static_cast<std::uint64_t>(gauge.value());
    }
  }
  return total;
}

ScenarioResult report(const std::string& name, Run& run, Tally tally) {
  const telemetry::Hub& hub = run.sim().telemetry();
  const telemetry::MetricsRegistry& reg = hub.metrics();
  ScenarioResult result;
  result.name = name;
  result.seed = run.seed;
  result.violations = run.oracle->violations();
  result.requests_sent = tally.sent;
  result.requests_completed = tally.completed;
  result.rekeys = hub.tracer().count(telemetry::TraceKind::kGmRekey);
  result.view_changes = hub.tracer().count(telemetry::TraceKind::kBftNewView);
  result.membership_updates =
      hub.tracer().count(telemetry::TraceKind::kGmMembershipUpdate);
  result.sheds = sum_shed_gauges(reg);
  result.overloads = run.overloads;
  result.adaptive_retargets = run.injector ? run.injector->retargets() : 0;
  if (run.system) {
    result.expulsions = run.system->gm_element(0).state().expulsions();
    result.detection = result.expulsions > 0;
    for (int rank = 0; rank < run.system->domain_n(run.target); ++rank) {
      // A slot whose recovery gave up stays crashed and has nothing to count.
      result.element_discards.push_back(
          run.system->element_up(run.target, rank)
              ? reg.counter_value(telemetry::metric_name(
                    "element", run.system->element(run.target, rank).smiop_node(),
                    "entries_discarded"))
              : 0);
    }
  }
  if (run.manager) {
    result.recoveries_started = reg.counter_value("recovery.started");
    result.recoveries_completed = reg.counter_value("recovery.completed");
    result.recoveries_aborted = reg.counter_value("recovery.aborted");
    result.last_mttr_ns = run.last_mttr_ns;
  }
  if (run.controller) result.control_adjustments = run.controller->adjustments();
  result.trace_jsonl = hub.tracer().export_jsonl();
  return result;
}

ScenarioResult run_row(const Row& row, std::uint64_t seed) {
  Run run;
  run.seed = seed;
  build(run, row);
  if (row.plan) arm(run, row.plan(run));
  watch(run);
  const Tally tally = row.drive(run);
  if (run.system) run.system->settle();
  run.oracle->check_liveness(tally.completed, tally.sent);
  if (run.system) {
    const core::GmStateMachine& gm = run.system->gm_element(0).state();
    run.oracle->check_expulsions(gm);
    run.oracle->check_membership(gm, run.system->directory());
  }
  return report(row.name, run, tally);
}

// --- Plan pieces and drive code the rows share. ---

/// A plan that does not depend on the deployment.
std::function<FaultPlan(const Run&)> fixed(FaultPlan plan) {
  return [plan = std::move(plan)](const Run&) { return plan; };
}

/// Every rank's outbound traffic degraded like `fault` until t = 2 s.
FaultPlan all_links(LinkFault fault) {
  FaultPlan plan;
  plan.heal_time = SimTime{seconds(2)};
  fault.window.until = plan.heal_time;
  for (int rank = 0; rank < 4; ++rank) {
    fault.from_node = NodeId(static_cast<std::uint64_t>(rank + 1));
    plan.link_faults.push_back(fault);
  }
  return plan;
}

/// Cluster ranks `a` cut off from ranks `b` over [form, heal).
PartitionWindow cut(const std::set<int>& a, const std::set<int>& b, SimTime form,
                    SimTime heal) {
  // bft::Cluster assigns replica node ids 1..3f+1 in rank order.
  PartitionWindow window{.form = form, .heal = heal};
  for (int rank : a) window.side_a.insert(NodeId(static_cast<std::uint64_t>(rank + 1)));
  for (int rank : b) window.side_b.insert(NodeId(static_cast<std::uint64_t>(rank + 1)));
  return window;
}

/// Rank 0 equivocating until t = 1 s.
FaultPlan equivocating_primary() {
  return {.replica_faults = {{.rank = 0,
                              .window = {.until = SimTime{seconds(1)}},
                              .equivocate = true}},
          .heal_time = SimTime{seconds(1)}};
}

constexpr ElementFault kRank2Dissents = {.rank = 2,
                                         .kind = ElementFault::Kind::kDissentingReplies};

/// Batch-formation + pipelined-agreement knobs for the batched fault
/// scenarios: multi-entry slots with several agreement instances in flight.
void batched_tuning(bft::ClusterOptions& options) {
  options.batch.max_entries = 4;
  options.batch.max_hold_ns = micros(150);
  options.pipeline_depth = 8;
}

constexpr int kClusterRequests = 8;

/// Fires `requests` counter increments at once, runs to the plan's heal
/// time, then gives stragglers up to `grace_after_heal` more.
std::function<Tally(Run&)> cluster_load(int requests, std::int64_t grace_after_heal) {
  return [requests, grace_after_heal](Run& run) {
    bft::Client& client = run.cluster->add_client();
    auto completed = std::make_shared<std::size_t>(0);
    for (int i = 0; i < requests; ++i) {
      // The outcome slot outlives this frame via shared_ptr: under faults a
      // completion may fire long after any particular drive step.
      client.invoke(to_bytes("add:1"), [completed](Result<Bytes> result) {
        if (result.is_ok()) ++*completed;
      });
    }
    net::Simulator& sim = run.sim();
    const SimTime deadline{run.plan.heal_time.ns + grace_after_heal};
    sim.run_until(run.plan.heal_time);
    while (*completed < static_cast<std::size_t>(requests) && sim.now() < deadline &&
           !sim.idle()) {
      sim.run_for(millis(50));
    }
    return Tally{static_cast<std::size_t>(requests), *completed};
  };
}

cdr::Value int_args(std::initializer_list<std::int64_t> values) {
  std::vector<cdr::Value> elems;
  for (const std::int64_t v : values) elems.push_back(cdr::Value::int64(v));
  return cdr::Value::sequence(std::move(elems));
}

/// Adds a correct client the oracle audits.
core::ItdosClient& add_watched_client(Run& run) {
  core::ItdosClient& client = run.system->add_client();
  run.oracle->watch_party(client.party());
  return client;
}

/// One serial invocation. It completes when it succeeds and, if `expect`
/// is set, returns that value.
void call(Run& run, Tally& tally, core::ItdosClient& client, const orb::ObjectRef& ref,
          const std::string& operation, cdr::Value args,
          std::optional<std::int64_t> expect = std::nullopt,
          std::int64_t timeout_ns = seconds(30)) {
  ++tally.sent;
  const Result<cdr::Value> result =
      run.system->invoke_sync(client, ref, operation, std::move(args), timeout_ns);
  if (result.is_ok() && (!expect || result.value().as_int64() == *expect)) {
    ++tally.completed;
  }
}

/// `requests` serial sum(i, 7) calls.
std::function<Tally(Run&)> sum_adds(int requests) {
  return [requests](Run& run) {
    core::ItdosClient& client = add_watched_client(run);
    Tally tally;
    for (int i = 0; i < requests; ++i) {
      call(run, tally, client, run.ref, "add", int_args({i, 7}), i + 7);
    }
    return tally;
  };
}

/// `count` serial add(1) calls to the PersistentSum servant.
void add_ones(Run& run, core::ItdosClient& client, int count, Tally& tally) {
  for (int i = 0; i < count; ++i) call(run, tally, client, run.ref, "add", int_args({1}));
}

/// Starts the recovery manager (on the timing-derived config unless one is
/// given) and lets the oracle learn its budgets.
recovery::RecoveryManager& start_recovery(
    Run& run, std::optional<recovery::RecoveryConfig> config = std::nullopt) {
  recovery::RecoveryManager& manager =
      config ? run.manager.emplace(*run.system, *config) : run.manager.emplace(*run.system);
  manager.watch();
  run.oracle->watch_recovery(manager);
  manager.add_listener([&run](const recovery::RecoveryEvent& event) {
    if (event.kind == recovery::RecoveryEvent::Kind::kCompleted) {
      run.last_mttr_ns = event.mttr_ns;
    }
  });
  return manager;
}

/// Six requests through the expel -> replace -> rekey loop, then two more.
Tally serve_through_recovery(Run& run) {
  core::ItdosClient& client = add_watched_client(run);
  Tally tally;
  add_ones(run, client, 6, tally);
  run.system->settle();
  add_ones(run, client, 2, tally);  // the restored 3f+1 domain must serve fresh requests
  return tally;
}

Tally recover_and_serve(Run& run) {
  start_recovery(run);
  return serve_through_recovery(run);
}

/// Every per-element node of a domain — the static ones from the directory
/// (BFT, SMIOP, the element's own client endpoints) AND each party's lazily
/// allocated per-target ordering client nodes: one side of a partition that
/// cuts ALL of the domain's traffic toward the other side while leaving
/// intra-domain and GM traffic untouched. Missing the dynamic client nodes
/// would let sealed nested requests tunnel through the cut while the
/// replies starve unrecoverably (DirectReplies are never re-sent).
std::set<NodeId> domain_nodes(core::ItdosSystem& system, DomainId domain) {
  std::set<NodeId> nodes;
  const core::DomainInfo* info = system.directory().find_domain(domain);
  for (const core::ElementInfo& element : info->elements) {
    nodes.insert({element.bft_node, element.smiop_node, element.gm_client_node,
                  element.self_client_node});
  }
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    for (const NodeId node : system.element(domain, rank).party().transport_nodes()) {
      nodes.insert(node);
    }
  }
  return nodes;
}

// --- Drive code of rows with their own machinery or setup order. ---

Tally partition_onboarding(Run& run) {
  recovery::RecoveryConfig config =
      recovery::RecoveryConfig::from_timing(run.system->directory().timing());
  // Tight enough that attempt 1 watchdog-aborts INSIDE the partition and
  // the retry completes after the heal; the multi-attempt budget the
  // oracle learns stays above the healed-path MTTR.
  config.deadline_ns = millis(400);
  config.retry_backoff_ns = millis(50);
  recovery::RecoveryManager& manager = start_recovery(run, config);

  // The partition attack forms around identities that only exist once the
  // manager picks them, so it triggers off the first kStarted event: the
  // joining identity (reused BFT slot + fresh SMIOP endpoint) is cut off
  // from its domain peers, then healed at a fixed offset.
  auto partitioned = std::make_shared<bool>(false);
  core::ItdosSystem* system = run.system.get();
  const DomainId domain = run.target;
  manager.add_listener([system, domain, partitioned](const recovery::RecoveryEvent& event) {
    if (event.kind != recovery::RecoveryEvent::Kind::kStarted || *partitioned) {
      return;
    }
    *partitioned = true;
    const core::DomainInfo* info = system->directory().find_domain(domain);
    std::set<NodeId> joiner{info->elements[event.rank].bft_node, event.admitted};
    std::set<NodeId> peers;
    for (int rank = 0; rank < static_cast<int>(info->elements.size()); ++rank) {
      if (rank == event.rank) continue;
      peers.insert(info->elements[rank].bft_node);
      peers.insert(info->elements[rank].smiop_node);
    }
    system->network().partition(joiner, peers);
    system->sim().schedule_after(millis(600), [system, joiner, peers] {
      for (NodeId a : joiner) {
        for (NodeId b : peers) system->network().set_link(a, b, true);
      }
    });
  });
  return serve_through_recovery(run);
}

Tally proactive_rounds(Run& run) {
  recovery::RecoveryManager& manager = start_recovery(run);
  core::ItdosClient& client = add_watched_client(run);
  recovery::ProactiveScheduler& scheduler = run.scheduler.emplace(manager, millis(150));
  scheduler.add_domain(run.target, run.system->domain_n(run.target));
  scheduler.start();
  // Live traffic interleaved with rejuvenation rounds: every element of
  // the domain should rotate out and back in while the client never
  // notices.
  Tally tally;
  for (int round = 0; round < 6; ++round) {
    add_ones(run, client, 1, tally);
    run.sim().run_for(millis(150));
  }
  scheduler.stop();
  run.system->settle();
  add_ones(run, client, 2, tally);  // the restored 3f+1 domain must serve fresh requests
  return tally;
}

Tally replay_storm_rounds(Run& run) {
  // Both parties were added before arming: add_client() 0 is honest, 1 is
  // the rogue the plan's client faults name.
  core::ItdosClient* honest = run.clients[0];
  core::ItdosClient* rogue = run.clients[1];
  Tally tally;
  for (int round = 0; round < 6; ++round) {
    for (core::ItdosClient* who : {rogue, honest}) {
      call(run, tally, *who, run.ref, "add", int_args({round, 7}), round + 7);
    }
  }
  return tally;
}

Tally partition_mid_transfer(Run& run) {
  core::ItdosSystem& system = *run.system;
  shard::Bank& bank = *run.bank;
  const ObjectId from = bank.accounts_of_shard(0).front();
  const ObjectId to = bank.accounts_of_shard(1).front();
  const DomainId teller = bank.topology().front_domains().front();
  const DomainId callee = bank.topology().route(from);

  Tally tally;
  std::int64_t from_balance = bank_spec().initial_balance;
  const auto transfer = [&](std::int64_t timeout_ns) {
    from_balance -= 50;
    call(run, tally, bank.client(), bank.teller_ref(), "transfer",
         int_args({static_cast<std::int64_t>(from.value),
                   static_cast<std::int64_t>(to.value), 50}),
         from_balance, timeout_ns);
  };

  // Warm-up: routes the full nested path once (GM virtual connections on
  // both hops) and measures the round-trip the partition must interrupt.
  const SimTime before = system.sim().now();
  transfer(seconds(10));
  const std::int64_t round_trip = system.sim().now().ns - before.ns;

  // Cut teller <-> callee traffic from halfway into the next transfer's
  // round-trip: the client->teller hop is already ordered, the nested hop
  // is mid-flight. Heal well within the (raised) vote timeout.
  PartitionWindow window;
  window.side_a = domain_nodes(system, teller);
  window.side_b = domain_nodes(system, callee);
  window.form = SimTime{system.sim().now().ns + round_trip / 2};
  window.heal = SimTime{window.form.ns + 2 * round_trip + millis(150)};
  arm(run, {.partitions = {window}, .heal_time = window.heal});

  transfer(seconds(30));  // rides through the partition, completes post-heal
  transfer(seconds(10));  // post-heal: the cross-domain route is live again
  return tally;
}

Tally nested_deposits(Run& run) {
  shard::Bank& bank = *run.bank;
  const ObjectId account = bank.accounts_of_shard(0).front();
  Tally tally;
  for (int round = 1; round <= 6; ++round) {
    call(run, tally, bank.client(), bank.teller_ref(), "deposit",
         int_args({static_cast<std::int64_t>(account.value), 7}),
         bank_spec().initial_balance + 7 * round);
  }
  return tally;
}

Tally overload_bursts(Run& run) {
  constexpr int kConcurrentClients = 16;
  constexpr int kRounds = 4;
  std::vector<core::ItdosClient*> clients;
  for (int i = 0; i < kConcurrentClients; ++i) clients.push_back(&add_watched_client(run));

  Tally tally;
  auto ok = std::make_shared<std::size_t>(0);
  auto overloaded = std::make_shared<std::size_t>(0);
  for (int round = 0; round < kRounds; ++round) {
    // The whole pool fires at once: depth at the replicated queues spikes
    // past max_depth and admission MUST kick in — deterministically.
    auto round_done = std::make_shared<int>(0);
    for (core::ItdosClient* client : clients) {
      ++tally.sent;
      client->orb().invoke(run.ref, "add", int_args({round, 7}),
                           [ok, overloaded, round_done](Result<cdr::Value> r) {
                             ++*round_done;
                             if (r.is_ok()) {
                               ++*ok;
                             } else if (r.status().code() == Errc::kResourceExhausted) {
                               ++*overloaded;
                             }
                           });
    }
    const SimTime deadline = run.sim().now() + seconds(20);
    while (*round_done < kConcurrentClients && run.sim().now() < deadline) {
      if (!run.sim().step()) break;
    }
  }

  // Past the adversary's window and with the burst drained, a plain serial
  // request must get a real answer — shed-forever IS starvation.
  run.sim().run_until(SimTime{run.plan.heal_time.ns + millis(50)});
  for (int i = 0; i < 2; ++i) {
    call(run, tally, *clients[0], run.ref, "add", int_args({1, 2}), 3);
  }
  run.system->settle();  // late burst replies count too

  // An explicit OVERLOAD reply is a deterministic, voted answer: for the
  // liveness rule it counts as completion (the request was not lost, it was
  // refused — and the refusal itself cleared f+1 matching ballots).
  run.overloads = *overloaded;
  tally.completed += *ok + *overloaded;
  return tally;
}

Tally duel_rounds(Run& run) {
  core::ItdosSystem& system = *run.system;
  recovery::RecoveryManager& manager = start_recovery(run);
  recovery::ProactiveScheduler& scheduler = run.scheduler.emplace(manager, seconds(1));
  scheduler.add_domain(run.target, system.domain_n(run.target));
  scheduler.start();

  control::ResponseControllerOptions copts;
  copts.interval_ns = millis(50);
  copts.law.min_period_ns = millis(300);  // floor the rotation rate: a short
                                          // run must not thrash recovery
  control::ResponseController& controller =
      run.controller.emplace(system, manager, scheduler, copts);
  controller.start();

  core::ItdosClient& client = add_watched_client(run);
  Tally tally;
  // Traffic interleaved with idle windows: the duel needs wall-clock (sim
  // time) for retargets, control ticks and recovery cycles to play out.
  for (int round = 0; round < 8; ++round) {
    add_ones(run, client, 1, tally);
    system.sim().run_for(millis(100));
  }
  scheduler.stop();
  controller.stop();
  system.settle();
  add_ones(run, client, 1, tally);
  return tally;
}

// ---------------------------------------------------------------------------
// The canned scenarios, in scenario_names() order.
// ---------------------------------------------------------------------------

const std::vector<Row>& rows() {
  using enum Topology;
  using enum ElementFault::Kind;
  using enum ClientFault::Kind;
  static const std::vector<Row> kRows = {
      // BFT-cluster scenarios: a 3f+1 replica group ordering counter
      // increments while the adversary works the network / individual
      // replicas.
      {.name = "drop_storm", .drive = cluster_load(kClusterRequests, seconds(10)),
       .plan = fixed(all_links({.drop = 0.25}))},
      {.name = "delay_spike", .drive = cluster_load(kClusterRequests, seconds(10)),
       .plan = fixed(all_links({.delay_probability = 0.5,
                                .delay_min_ns = millis(5),
                                .delay_max_ns = millis(40)}))},
      {.name = "duplicate_flood", .drive = cluster_load(kClusterRequests, seconds(10)),
       .plan = fixed(all_links({.duplicate = 0.5}))},
      // One replica's outbound traffic is bit-flipped half the time; MACs reject
      // the garbage and retransmissions recover the rest.
      {.name = "corrupt_link", .drive = cluster_load(kClusterRequests, seconds(10)),
       .plan = fixed({.link_faults = {{.from_node = NodeId(2),
                                       .window = {.until = SimTime{seconds(2)}},
                                       .corrupt = 0.5}},
                      .heal_time = SimTime{seconds(2)}})},
      {.name = "partition_minority", .drive = cluster_load(kClusterRequests, seconds(10)),
       // before the first commit, or nothing is stressed
       .plan = fixed({.partitions = {cut({3}, {0, 1, 2}, SimTime{0}, SimTime{seconds(1)})},
                      .heal_time = SimTime{seconds(1)}})},
      // Isolating the view-0 primary forces a view change; requests must still
      // complete once the group re-forms around the new primary.
      {.name = "partition_primary", .drive = cluster_load(kClusterRequests, seconds(12)),
       // before the first commit, or nothing is stressed
       .plan = fixed({.partitions = {cut({0}, {1, 2, 3}, SimTime{0}, SimTime{millis(1500)})},
                      .heal_time = SimTime{millis(1500)}})},
      {.name = "silent_replica", .drive = cluster_load(kClusterRequests, seconds(10)),
       .plan = fixed({.replica_faults = {{.rank = 3, .silent = true}},
                      .heal_time = SimTime{0}})},  // nothing heals; f = 1 absorbs the fault
      // A replica whose authenticators never verify is indistinguishable from a
      // silent one to its peers — the quorum math must absorb it.
      {.name = "corrupt_mac_replica", .drive = cluster_load(kClusterRequests, seconds(10)),
       .plan = fixed({.replica_faults = {{.rank = 3, .corrupt_macs = true}}})},
      // The view-0 primary sends conflicting pre-prepares per backup; no quorum
      // can form, the view-change timeout fires, and the next primary takes
      // over (Castro-Liskov's documented recovery; DESIGN.md §ordering).
      {.name = "equivocating_primary", .drive = cluster_load(kClusterRequests, seconds(12)),
       .plan = fixed(equivocating_primary())},
      // Same documented recovery as equivocating_primary, but the lie is now a
      // per-backup mutation of a batch ENTRY (digest recomputed, batch still
      // well-formed): prepare quorums cannot form on conflicting batch digests,
      // the view change fires, and the whole batch is either re-proposed
      // atomically by the next primary or retransmitted by the clients. The
      // oracle asserts no divergent execution and no partial entry survival.
      {.name = "batch_equivocating_primary", .drive = cluster_load(16, seconds(12)),
       .plan = fixed(equivocating_primary()),
       .tune_cluster = batched_tuning},
      // The view-0 primary is partitioned away AFTER the pipelined batches have
      // entered flight: several uncommitted agreement instances straddle the
      // view change. Every parked and in-flight entry must resurface exactly
      // once under the new primary (re-proposal from prepared proofs or client
      // retransmission after the dedup-horizon reset).
      {.name = "viewchange_mid_pipeline", .drive = cluster_load(20, seconds(12)),
       // first batches are mid-agreement
       .plan = fixed({.partitions = {cut({0}, {1, 2, 3}, SimTime{micros(250)},
                                         SimTime{millis(1500)})},
                      .heal_time = SimTime{millis(1500)}}),
       .tune_cluster = batched_tuning},
      // Phase 1: a brief primary partition forces a real view change, arming
      // every replica with a signed VIEW-CHANGE envelope. Phase 2: replica 2
      // replays its stale envelope every 100ms; correct peers must discard the
      // replays without spurious view changes or lost liveness.
      {.name = "stale_view_replay", .drive = cluster_load(kClusterRequests, seconds(12)),
       .plan = fixed({.partitions = {cut({0}, {1, 2, 3}, SimTime{0}, SimTime{millis(500)})},
                      .replica_faults = {{.rank = 2,
                                          .window = {.from = SimTime{millis(600)},
                                                     .until = SimTime{seconds(2)}},
                                          .stale_replay_period_ns = millis(100)}},
                      .heal_time = SimTime{seconds(2)}})},

      // ITDOS scenarios: the full stack — SMIOP connections, unmarshalled
      // voting, Group Manager detection / expulsion / rekey.

      // The paper's §3.6 -> §3.5 pipeline end-to-end: a dissenting element is
      // outvoted, detected from the signed-message proof, expelled, and keyed
      // out by an epoch rekey — all while the client keeps getting right
      // answers.
      {.name = "expel_rekey_e2e", .topology = kSumDomain, .drive = sum_adds(4),
       // misbehavior is sticky; expulsion IS the heal
       .plan = fixed({.element_faults = {kRank2Dissents}, .heal_time = SimTime{0}})},
      // One element of a replicated domain files a change_request framing a
      // correct peer. Replicated reporters are only believed at f+1 matching
      // reports (§3.6), so a lone rogue must never trigger an expulsion.
      {.name = "bogus_change_request", .topology = kSumDomain, .drive = sum_adds(4),
       .plan = fixed({.element_faults = {{.rank = 1, .kind = kBogusChangeRequests,
                                          // after the first connection exists
                                          .at = SimTime{millis(50)}, .victim_rank = 0}},
                      .heal_time = SimTime{millis(100)}})},
      // One element's SMIOP endpoint is cut off from every Group Manager
      // element for the whole run, so its connection-key shares never arrive
      // (and neither do the re-sent ones). The element still participates in
      // BFT ordering: it consumes the first sealed request, finds no key, and
      // files an authoritative resend request with the GM (§3.4). The run is
      // long enough (requests >> lag_window) that queue GC eventually declares
      // the stalled element dead and passes its consumption point: its own
      // queue marks virtual synchrony broken, every peer's laggard hook files a
      // change request, and the f+1 matching reports expel it (§3.6) — all
      // while the remaining three elements keep the client fully live. This is
      // the long-horizon scenario: BFT checkpoints, queue GC, laggard
      // detection and the virtual-synchrony break all only appear past ~130
      // ordered entries.
      {.name = "share_starvation", .topology = kSumDomain, .drive = sum_adds(150),
       .plan = [](const Run& run) {
         const core::SystemDirectory& directory = run.system->directory();
         PartitionWindow window{.form = SimTime{0},
                                // far past the run's traffic
                                .heal = SimTime{seconds(30)}};
         window.side_a.insert(directory.find_domain(run.target)->elements[1].smiop_node);
         for (const core::ElementInfo& gm : directory.gm().elements) {
           window.side_b.insert(gm.smiop_node);
         }
         return FaultPlan{.partitions = {window},
                          .heal_time = SimTime{0}};  // expulsion IS the heal (§3.6)
       }},
      {.name = "gm_withhold_shares", .topology = kSumDomain, .drive = sum_adds(4),
       .plan = fixed({.gm_faults = {{.index = 0, .withhold_shares = true}}})},
      {.name = "gm_corrupt_shares", .topology = kSumDomain, .drive = sum_adds(4),
       .plan = fixed({.gm_faults = {{.index = 0, .corrupt_shares = true}}})},

      // Recovery scenarios: the expel -> replace -> rekey loop of
      // src/recovery/, including attacks on the recovery machinery itself
      // (DESIGN.md §6d).

      // The tentpole end-to-end: a dissenting element is expelled on its signed
      // proof, the recovery manager admits a fresh identity through an ordered
      // membership_update, certified state and epoch-refreshed keys install,
      // and the domain is back at 3f+1 serving requests.
      {.name = "expel_replace_recover", .topology = kPersistentSumDomain,
       .drive = recover_and_serve,
       // expulsion + replacement IS the heal
       .plan = fixed({.element_faults = {kRank2Dissents}, .heal_time = SimTime{0}})},
      // Attack on recovery itself: a Byzantine peer serves MAC-valid but
      // corrupted state offers to the joining element. The f+1 byte-identical
      // bundle rule must mask it — two honest matching offers out-vote the
      // corrupt one and onboarding completes cleanly.
      {.name = "recovery_corrupt_state_offer", .topology = kPersistentSumDomain,
       .drive = recover_and_serve,
       .plan = fixed({.element_faults = {kRank2Dissents,
                                         {.rank = 0, .kind = kCorruptStateBundles}},
                      .heal_time = SimTime{0}})},  // expulsion + replacement IS the heal
      // Attack on recovery itself: the joining identity is partitioned from its
      // domain peers mid-onboarding. The watchdog must abort the stalled
      // attempt (clean retirement, never a forked domain) and the retry must
      // complete once the partition heals — MTTR inside the multi-attempt
      // budget.
      {.name = "recovery_partition_onboarding", .topology = kPersistentSumDomain,
       .drive = partition_onboarding,
       // expulsion + replacement IS the heal
       .plan = fixed({.element_faults = {kRank2Dissents}, .heal_time = SimTime{0}})},
      // A compromised singleton client duplicates every ordered submission AND
      // replays the previous sealed GIOP frame each round. Both arrive with
      // already-consumed request ids, so every element must discard them
      // identically (§3.6 stale-rid rule) — a split decision would fork the
      // domain state.
      {.name = "client_replay_storm", .topology = kSumDomain, .drive = replay_storm_rounds,
       .plan = fixed({.client_faults = {{.client_index = 1, .kind = kDuplicateRequests},
                                        {.client_index = 1, .kind = kReplayStaleFrames}},
                      .heal_time = SimTime{0}})},  // misbehavior is masked, never healed

      // Sharded multi-domain scenarios (DESIGN.md §6g): the bank of src/shard/
      // — replicated tellers in a front domain issuing nested invocations
      // into hash-sharded account domains — under inter-domain partitions and
      // callee expulsions. These are the cross-domain counterparts of the
      // single-domain scenarios above: the fault lands on the SECOND hop of a
      // nested call.

      // An inter-domain partition forms while a teller's nested transfer is in
      // flight: the client's request is already ordered in the teller domain,
      // but the nested withdraw toward the `from` account's domain cannot
      // cross. The callers' SMIOP machinery must keep the pending nested call
      // alive (BFT client retransmission carries it over the heal), the
      // transfer must complete exactly once afterwards, and nobody may be
      // expelled for a stall the NETWORK caused.
      {.name = "cross_domain_partition_mid_call", .topology = kBank,
       .drive = partition_mid_transfer,
       .plan = nullptr,  // the drive code arms the cut after a warm-up transfer
       .tune_system = [](core::SystemOptions& options) {
         // The pending cross-domain vote must out-wait the partition window, not
         // be GC'd into an error halfway through it.
         options.timing.reply_vote_timeout_ns = seconds(5);
       }},
      // A dissenting element in the CALLEE (account) domain mutates every reply
      // while the replicated tellers wait on their nested deposits. The teller
      // elements' voters mask the dissent (f+1 matching honest replies), each
      // element files its own change_request, and the GM's f+1-matching-reports
      // rule for replicated reporters (§3.6) expels the callee element — all
      // while the client's deposits keep completing with right answers.
      {.name = "callee_expulsion_mid_nested_call", .topology = kBank,
       .drive = nested_deposits,
       // misbehavior is sticky; expulsion IS the heal
       .plan = fixed({.element_faults = {kRank2Dissents}, .heal_time = SimTime{0}})},
      // No detected fault at all: the scheduler rotates every element of the
      // domain through periodic restart-from-certified-state with fresh keys,
      // staggered so the domain never drops below 3f live elements and client
      // traffic keeps completing throughout.
      {.name = "proactive_rejuvenation", .topology = kPersistentSumDomain,
       .drive = proactive_rounds,
       .plan = fixed({.heal_time = SimTime{0}})},  // expulsion + replacement IS the heal

      // Admission-control & feedback-response scenarios (DESIGN.md §6f): an
      // adaptive adversary that re-aims at the deepest-queue element from
      // live telemetry, with and without the response controller fighting
      // back.

      // Bounded admission under concurrent overload, hunted by an adaptive
      // adversary that delays whichever element currently has the deepest
      // replicated queue. Every element must shed the SAME requests (the voter
      // needs f+1 matching OVERLOAD exceptions for the client to see one), no
      // safety invariant may bend, and once the burst drains the domain must
      // serve plain requests again — admission control may say "no", but it may
      // not say it forever. The adversary only touches the network; every
      // element stays correct and stays watched.
      {.name = "adaptive_adversary_overload", .topology = kSumDomain,
       .drive = overload_bursts,
       .plan = fixed({.adaptive_faults = {{.window = {.until = SimTime{millis(500)}},
                                           .interval_ns = millis(20),
                                           .delay_probability = 0.4,
                                           .delay_min_ns = micros(200),
                                           .delay_max_ns = millis(2)}},
                      .heal_time = SimTime{millis(500)}}),
       .tune_system = [](core::SystemOptions& options) {
         options.timing.ack_interval = 2;         // tight GC: drained queues reopen fast
         options.timing.admission_max_depth = 12; // well above the post-drain residual
       }},
      // The full duel: a dissenting element plus an adaptive link adversary on
      // one side; proactive recovery, the GM strike policy and the §6f feedback
      // controller on the other. The controller starts conservative (2 strikes,
      // resting rejuvenation period), turns aggressive when the dissent shows up
      // in the suspicion counters, and stands back down once the domain is calm
      // — every move ordered through the GM and traced.
      {.name = "adaptive_adversary_vs_controller", .topology = kPersistentSumDomain,
       .drive = duel_rounds,
       .plan = fixed({.element_faults = {{.rank = 2, .kind = kDissentingReplies,
                                          .at = SimTime{millis(20)}}},
                      .adaptive_faults = {{.window = {.until = SimTime{millis(800)}},
                                           .interval_ns = millis(25),
                                           .delay_probability = 0.3,
                                           .delay_min_ns = micros(100),
                                           .delay_max_ns = millis(1)}},
                      .heal_time = SimTime{0}})},  // expulsion + replacement IS the heal
  };
  return kRows;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const Row& row : rows()) names.push_back(row.name);
  return names;
}

ScenarioResult run_scenario(const std::string& name, std::uint64_t seed) {
  for (const Row& row : rows()) {
    if (name == row.name) return run_row(row, seed);
  }
  throw std::invalid_argument("unknown fault scenario: " + name);
}

ScenarioResult run_silent_replicas(int silent_count, std::uint64_t seed) {
  FaultPlan plan;
  for (int i = 0; i < silent_count; ++i) {
    ReplicaFault fault;
    fault.rank = 3 - i;  // mute from the highest rank down
    fault.silent = true;
    plan.replica_faults.push_back(fault);
  }
  return run_row({.name = "silent_x" + std::to_string(silent_count),
                  .drive = cluster_load(4, seconds(5)),
                  .plan = fixed(std::move(plan))},
                 seed);
}

}  // namespace itdos::fault
