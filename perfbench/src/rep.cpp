// One repetition of a workload: build the deployment, establish every
// client's connection, warm up, then run the measured phase with a
// closed loop or an open loop and check every reply.
#include <algorithm>

#include "bench.hpp"
#include "load/arrival.hpp"

namespace itdos::perfbench {

namespace {

constexpr std::int64_t kInt64Range = std::int64_t{1} << 40;  // sums never overflow
constexpr std::size_t kHarvestEvents = std::size_t{1} << 16;  // tracer holds 2^18
constexpr int kMaxClientBacklog = 256;
constexpr std::int64_t kPhaseGapNs = micros(100);
constexpr std::int64_t kDrainNs = seconds(2);

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Op random_op(Rng& rng, const WorkloadSpec& spec) {
  Op op;
  op.echo = spec.echo_share > 0.0 && rng.next_double() < spec.echo_share;
  op.a = rng.next_in(-kInt64Range, kInt64Range);
  op.b = rng.next_in(-kInt64Range, kInt64Range);
  if (op.echo) {
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string payload(spec.echo_bytes, ' ');
    for (char& c : payload) c = kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
    op.payload = std::make_shared<const std::string>(std::move(payload));
  }
  return op;
}

/// Counts the invocations each element's servant executed, and times the
/// servant body when the repetition is traced.
struct DispatchLog {
  Probe* probe = nullptr;
  std::array<std::uint64_t, 8> by_rank{};
};

class BenchServant : public orb::Servant {
 public:
  BenchServant(int rank, bool corrupt, DispatchLog& log)
      : rank_(rank), corrupt_(corrupt), log_(log) {}

  std::string interface_name() const override { return kInterface; }

  void dispatch(const std::string& operation, const cdr::Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    const bool timed = log_.probe != nullptr && log_.probe->traced();
    const std::int64_t t0 = timed ? host_now_ns() : 0;
    Result<cdr::Value> result = error(Errc::kInvalidArgument, "unknown op");
    if (operation == "add") {
      std::int64_t sum = 0;
      for (const cdr::Value& v : arguments.elements()) sum += v.as_int64();
      result = cdr::Value::int64(corrupt_ ? sum + 1 : sum);
    } else if (operation == "echo") {
      result = arguments;
    }
    if (timed) {
      log_.probe->mark(kElementOrb);
      log_.probe->add_servant_ns(host_now_ns() - t0);
    }
    ++log_.by_rank[static_cast<std::size_t>(rank_)];
    sink->reply(std::move(result));  // seal + sign + send: element.orb time
  }

 private:
  int rank_;
  bool corrupt_;
  DispatchLog& log_;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The deployment plus the bookkeeping shared by both loops.
class Rep {
 public:
  Rep(const WorkloadSpec& spec, std::uint64_t seed, bool traced) : spec_(spec) {
    out_.traced = traced;
    setup0_ = host_now_ns();
    core::SystemOptions options;
    options.seed = mix(seed ^ 0x5157ULL);
    if (spec.batching) {
      options.timing.batch_max_entries = 4;
      options.timing.batch_max_hold_ns = micros(60);
      options.timing.pipeline_depth = 4;
    }
    system_ = std::make_unique<core::ItdosSystem>(options);
    probe_ = std::make_unique<Probe>(system_->sim(), traced);
    log_.probe = probe_.get();
    domain_ = system_->add_domain(1, core::VotePolicy::exact(),
                                  [this](orb::ObjectAdapter& adapter, int rank) {
                                    // Key 1 is free in a fresh domain.
                                    (void)adapter.activate_with_key(
                                        ObjectId(1), std::make_shared<BenchServant>(
                                                         rank, rank < spec_.corrupt_ranks, log_));
                                  });
    for (int c = 0; c < spec.clients; ++c) clients_.push_back(&system_->add_client());
    invokes_.assign(clients_.size(), 0);
    backlog_.assign(clients_.size(), 0);
    ref_ = system_->object_ref(domain_, ObjectId(1), kInterface);
    std::uint64_t last_node = 0;
    auto widen = [&last_node](const core::ElementInfo& e) {
      last_node = std::max({last_node, e.bft_node.value, e.smiop_node.value,
                            e.gm_client_node.value, e.self_client_node.value});
    };
    for (const auto& e : system_->directory().gm().elements) widen(e);
    for (const auto& e : system_->directory().find_domain(domain_)->elements) widen(e);
    for (core::ItdosClient* c : clients_) {
      for (NodeId n : c->party().transport_nodes()) last_node = std::max(last_node, n.value);
    }
    // Room for the per-client ordering endpoints created at first invoke.
    probe_->watch_nodes(system_->network(), last_node + 2 * clients_.size() + 8);
    assign_roles();
  }

  ~Rep() {
    // Servants, filters and completions point into this object: tear the
    // system down first.
    system_.reset();
  }
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  RepResult run(const Inputs& inputs);

 private:
  void start_batch(const std::vector<Op>& ops);
  void issue(std::size_t index, int client);
  bool run_closed(const std::vector<Op>& ops, std::size_t clients);
  void run_open(const std::vector<Op>& ops);
  void dispatch_arrival(std::size_t index);
  void assign_roles();
  void begin_measured();
  void end_measured();
  void after_step();
  void harvest_trace();

  const WorkloadSpec& spec_;
  RepResult out_;
  DispatchLog log_;
  std::unique_ptr<core::ItdosSystem> system_;
  std::unique_ptr<Probe> probe_;
  std::unique_ptr<TraceFold> fold_;
  DomainId domain_;
  orb::ObjectRef ref_;
  std::vector<core::ItdosClient*> clients_;
  std::vector<std::uint64_t> invokes_;  // ORB request ids issued, per client
  std::vector<int> backlog_;            // outstanding invocations, per client
  std::size_t cursor_ = 0;              // open loop: round-robin start

  // The batch of ops being driven. Completions and arrivals carry the
  // generation they were issued in and are ignored once it has moved on.
  const std::vector<Op>* ops_ = nullptr;
  std::vector<Outcome> outcomes_;
  std::vector<int> ready_;  // closed loop: clients whose op just completed
  std::uint64_t generation_ = 0;

  std::int64_t setup0_ = 0;
  std::uint64_t events0_ = 0;
  std::vector<std::uint64_t> sheds0_;  // per rank, at the measured phase's start
  bool crash_due_ = false;
  int crashed_rank_ = -1;
};

void Rep::start_batch(const std::vector<Op>& ops) {
  ++generation_;
  ops_ = &ops;
  outcomes_.assign(ops.size(), Outcome{});
  ready_.clear();
}

void Rep::issue(std::size_t index, int client) {
  const Op& op = (*ops_)[index];
  Outcome& o = outcomes_[index];
  o.client = client;
  o.rid = ++invokes_[static_cast<std::size_t>(client)];
  o.issue_host = host_now_ns();
  if (o.arrival_sim < 0) o.arrival_sim = system_->sim().now().ns;
  ++backlog_[static_cast<std::size_t>(client)];
  clients_[static_cast<std::size_t>(client)]->orb().invoke(
      ref_, op.echo ? "echo" : "add", op_arguments(op),
      [this, gen = generation_, index, client](Result<cdr::Value> r) {
        --backlog_[static_cast<std::size_t>(client)];
        if (gen != generation_) return;
        Outcome& done = outcomes_[index];
        done.done_host = host_now_ns();
        done.done_sim = system_->sim().now().ns;
        if (r.is_ok()) {
          (r.value() == expected_reply((*ops_)[index]) ? done.ok : done.wrong) = true;
        } else if (r.status().code() == Errc::kResourceExhausted) {
          done.overloaded = true;
        } else {
          done.failed = true;
        }
        ready_.push_back(client);
      });
}

void Rep::after_step() {
  auto& tracer = system_->sim().telemetry().tracer();
  if (tracer.events().size() >= kHarvestEvents) harvest_trace();
  if (crash_due_ && crashed_rank_ < 0) {
    crashed_rank_ = 0;
    out_.crash_sim = system_->sim().now().ns;
    system_->crash_element(domain_, 0);
  }
}

void Rep::harvest_trace() {
  auto& tracer = system_->sim().telemetry().tracer();
  if (fold_) fold_->fold(tracer.events());
  out_.trace_dropped += tracer.dropped();
  tracer.clear();
}

/// Closed loop over the first `clients` clients: each sends its next op only
/// after the previous reply. Op i belongs to client i % clients. Returns
/// false if the sim stalled.
bool Rep::run_closed(const std::vector<Op>& ops, std::size_t clients) {
  start_batch(ops);
  const std::size_t k = clients;
  auto start = [this](std::size_t client, std::size_t index) {
    const std::int64_t t0 = probe_->traced() ? host_now_ns() : 0;
    issue(index, static_cast<int>(client));
    if (probe_->traced()) probe_->add_invoke_ns(host_now_ns() - t0);
  };
  std::vector<std::size_t> current(k);
  for (std::size_t c = 0; c < k && c < ops.size(); ++c) {
    current[c] = c;
    start(c, c);
  }
  std::size_t remaining = ops.size();
  std::int64_t last_progress = system_->sim().now().ns;
  std::vector<int> done;
  while (remaining > 0) {
    if (!probe_->step()) return false;
    after_step();
    if (ready_.empty()) {
      if (system_->sim().now().ns - last_progress > seconds(30)) return false;
      continue;
    }
    done.swap(ready_);
    for (const int c : done) {
      --remaining;
      const std::size_t next = current[static_cast<std::size_t>(c)] + k;
      if (next < ops.size()) {
        current[static_cast<std::size_t>(c)] = next;
        start(static_cast<std::size_t>(c), next);
      }
    }
    done.clear();
    last_progress = system_->sim().now().ns;
  }
  return true;
}

void Rep::dispatch_arrival(std::size_t index) {
  probe_->mark(kLoadArrival);
  const std::size_t k = clients_.size();
  for (std::size_t probe = 0; probe < k; ++probe) {
    const std::size_t c = (cursor_ + probe) % k;
    if (backlog_[c] < kMaxClientBacklog) {
      cursor_ = (c + 1) % k;
      issue(index, static_cast<int>(c));
      return;
    }
  }
  cursor_ = (cursor_ + 1) % k;
  outcomes_[index].starved = true;
}

/// Open loop: every op arrives at its scheduled sim time, whatever the
/// system is doing, and goes to the next client under its backlog cap. The
/// ladder's rates run one after another, each drained before the next.
void Rep::run_open(const std::vector<Op>& ops) {
  start_batch(ops);
  net::Simulator& sim = system_->sim();
  std::size_t begin = 0;
  for (std::size_t p = 0; p < spec_.rates.size(); ++p) {
    std::size_t end = begin;
    while (end < ops.size() && ops[end].phase == static_cast<int>(p)) ++end;
    PhaseResult phase;
    phase.rate = spec_.rates[p];
    const std::int64_t host0 = host_now_ns();
    const std::int64_t start = sim.now().ns + kPhaseGapNs;
    const std::int64_t window_end = start + spec_.window_ns;
    // Rates near and past the knee only locate it: their latencies stay out
    // of the latency percentiles.
    const bool in_latency =
        spec_.latency_phases == 0 || p < static_cast<std::size_t>(spec_.latency_phases);
    phase.in_latency = in_latency;
    for (std::size_t i = begin; i < end; ++i) {
      outcomes_[i].arrival_sim = start + ops[i].arrival_ns;
      outcomes_[i].phase = static_cast<int>(p);
      outcomes_[i].in_latency = in_latency;
      sim.schedule_at(SimTime{outcomes_[i].arrival_sim}, [this, gen = generation_, i] {
        if (gen == generation_) dispatch_arrival(i);
      });
    }
    if (spec_.crash_at_ns >= 0 && p == 0) {
      sim.schedule_at(SimTime{start + spec_.crash_at_ns}, [this] { crash_due_ = true; });
    }
    auto resolved = [&](const Outcome& o) { return o.starved || o.done_sim >= 0; };
    bool window_closed = false;
    std::size_t pending_from = begin;  // every op before it is resolved
    while (true) {
      if (!window_closed && sim.now().ns >= window_end) {
        window_closed = true;
        for (std::size_t i = begin; i < end; ++i) {
          if (outcomes_[i].client >= 0 && outcomes_[i].done_sim < 0) ++phase.backlog_at_end;
        }
      }
      while (pending_from < end && resolved(outcomes_[pending_from])) ++pending_from;
      if (window_closed && pending_from == end) break;
      if (sim.now().ns > window_end + kDrainNs) break;
      if (!probe_->step()) break;
      after_step();
      ready_.clear();
    }
    phase.host_ns = host_now_ns() - host0;
    for (std::size_t i = begin; i < end; ++i) {
      Outcome& o = outcomes_[i];
      if (!resolved(o)) o.failed = true;  // never completed
      ++phase.attempted;
      if (o.ok) {
        phase.latencies.push_back(o.done_sim - o.arrival_sim);
        if (o.done_sim <= window_end) ++phase.done_in_window;
      } else {
        ++phase.errors;
      }
    }
    out_.phases.push_back(std::move(phase));
    begin = end;
  }
}

void Rep::assign_roles() {
  std::map<std::uint64_t, int> client_of_node;
  std::map<std::uint64_t, bool> server_replica;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    core::ItdosClient* client = clients_[c];
    client_of_node[client->smiop_node().value] = static_cast<int>(c);
    for (NodeId n : client->party().transport_nodes()) {
      const bool smiop = n == client->smiop_node();
      probe_->set_role(n, smiop ? kClientSmiop : kClientBft, smiop);
    }
  }
  for (const auto& e : system_->directory().find_domain(domain_)->elements) {
    probe_->set_role(e.bft_node, kElementBft, false);
    probe_->set_role(e.smiop_node, kElementSmiop, true);
    probe_->set_role(e.gm_client_node, kElementClient, false);
    probe_->set_role(e.self_client_node, kElementClient, false);
    server_replica[e.bft_node.value] = true;
  }
  for (const auto& e : system_->directory().gm().elements) {
    probe_->set_role(e.bft_node, kGm, false);
    probe_->set_role(e.smiop_node, kGm, true);
    probe_->set_role(e.gm_client_node, kGm, false);
    probe_->set_role(e.self_client_node, kGm, false);
  }
  if (probe_->traced()) {
    fold_ = std::make_unique<TraceFold>(1, std::move(client_of_node), std::move(server_replica));
  }
}

void Rep::begin_measured() {
  auto& hub = system_->sim().telemetry();
  hub.metrics().reset();
  hub.tracer().clear();
  BufStats::reset();
  probe_->stats().clear();
  events0_ = system_->sim().events_executed();
  sheds0_.clear();
  for (int r = 0; r < system_->domain_n(domain_); ++r) {
    sheds0_.push_back(system_->element(domain_, r).queue().sheds());
  }
}

void Rep::end_measured() {
  harvest_trace();
  out_.roles = probe_->stats();
  const auto& reg = system_->sim().telemetry().metrics();
  out_.events = system_->sim().events_executed() - events0_;
  auto& counts = out_.counts;
  counts["net.packets"] = static_cast<double>(reg.counter_value("net.packets_delivered"));
  counts["net.bytes"] = static_cast<double>(reg.counter_value("net.bytes_delivered"));
  counts["buf.copies"] = static_cast<double>(BufStats::copies);
  counts["buf.bytes_copied"] = static_cast<double>(BufStats::bytes_copied);
  for (const auto& e : system_->directory().find_domain(domain_)->elements) {
    const std::string p = "bft." + e.bft_node.to_string() + ".";
    counts["bft.macs"] += static_cast<double>(reg.counter_value(p + "macs_computed"));
    for (const char* sent : {"pre_prepares_sent", "prepares_sent", "commits_sent",
                             "checkpoints_sent"}) {
      counts["bft.msgs"] += static_cast<double>(reg.counter_value(p + sent));
    }
  }
  for (core::ItdosClient* c : clients_) {
    counts["itdos.vote_timeouts"] += static_cast<double>(
        reg.counter_value("smiop." + c->smiop_node().to_string() + ".votes_timed_out"));
  }
  for (const auto& [name, gauge] : reg.gauges()) {
    if (name.starts_with("queue.") && name.ends_with(".depth")) {
      counts["itdos.queue_depth_peak"] =
          std::max(counts["itdos.queue_depth_peak"], static_cast<double>(gauge.peak()));
    }
  }
  // Every correct element sheds the same entries: count each shed once.
  // The queue's count is cumulative, so take its growth over the phase.
  double sheds = 0;
  for (int r = 0; r < system_->domain_n(domain_); ++r) {
    if (r == crashed_rank_) continue;
    const std::uint64_t now = system_->element(domain_, r).queue().sheds();
    sheds = std::max(sheds, static_cast<double>(now - sheds0_[static_cast<std::size_t>(r)]));
  }
  counts["itdos.admission_sheds"] = sheds;
  if (const telemetry::Histogram* h = reg.find_histogram("batch.size"); h && h->count() > 0) {
    counts["batch.slots"] = static_cast<double>(h->count());
    counts["batch.entries"] = h->mean() * static_cast<double>(h->count());
  }
  if (const telemetry::Histogram* h = reg.find_histogram("batch.hold_ns"); h && h->count() > 0) {
    counts["batch.hold_ns_p50"] = static_cast<double>(h->percentile(50.0));
  }
}

RepResult Rep::run(const Inputs& inputs) {
  net::Simulator& sim = system_->sim();
  // Set-up: every client's first voted reply (GM open, DPRF key shares).
  if (!run_closed(inputs.setup, clients_.size())) out_.problems.push_back("set-up stalled");
  for (const Outcome& o : outcomes_) {
    if (!o.ok) out_.problems.push_back("set-up request failed");
  }
  assign_roles();  // again: the ordering endpoints exist now
  out_.setup_ns = host_now_ns() - setup0_;
  out_.gm_setup_ns = probe_->stats().ns[kGm];

  if (!run_closed(inputs.warmup, clients_.size())) out_.problems.push_back("warm-up stalled");
  for (const Outcome& o : outcomes_) {
    if (!o.ok) out_.problems.push_back("warm-up request failed");
  }

  begin_measured();
  const std::int64_t host0 = host_now_ns();
  const std::int64_t sim0 = sim.now().ns;
  if (spec_.open_loop) {
    run_open(inputs.measured);
  } else {
    if (!run_closed(inputs.measured, clients_.size())) {
      out_.problems.push_back("measured phase stalled");
    }
    PhaseResult phase;
    for (Outcome& o : outcomes_) {
      if (o.done_sim < 0) o.failed = true;
      ++phase.attempted;
      if (o.ok) {
        phase.latencies.push_back(o.done_sim - o.arrival_sim);
        ++phase.done_in_window;
      } else {
        ++phase.errors;
      }
    }
    out_.phases.push_back(std::move(phase));
  }
  out_.measured_host_ns = host_now_ns() - host0;
  out_.measured_sim_ns = sim.now().ns - sim0;
  if (!spec_.open_loop) out_.phases.front().host_ns = out_.measured_host_ns;
  end_measured();
  out_.outcomes = outcomes_;

  // Open loop: requests overlap, so host time per invocation is measured by
  // a serial probe from one client after the measured phase.
  if (!inputs.probe.empty()) {
    if (!run_closed(inputs.probe, 1)) out_.problems.push_back("host probe stalled");
    out_.probe = outcomes_;
    for (const Outcome& o : out_.probe) {
      if (!o.ok) out_.problems.push_back(o.wrong ? "wrong reply value" : "host probe request failed");
    }
  }

  // Correctness: values, exactly-once execution, trace completeness.
  bool errors = false;
  for (const Outcome& o : out_.outcomes) {
    if (o.wrong) out_.problems.push_back("wrong reply value");
    errors |= !o.ok;
  }
  for (const Op& op : inputs.measured) ++out_.op_counts[op.echo ? "echo" : "add"];

  // Exactly once: a client decides on f+1 replies, so a lagging element may
  // still be executing. Let the deployment settle, then every live element
  // must have executed every invocation of the repetition once; the crashed
  // one a prefix.
  sim.run_until(sim.now() + millis(200));
  std::uint64_t invoked = 0;
  for (const std::uint64_t n : invokes_) invoked += n;
  double dispatches = 0;
  for (int r = 0; r < system_->domain_n(domain_); ++r) {
    const std::uint64_t runs = log_.by_rank[static_cast<std::size_t>(r)];
    dispatches += static_cast<double>(runs);
    const bool live = r != crashed_rank_;
    if (runs > invoked || (live && !errors && runs != invoked)) {
      out_.problems.push_back("element " + std::to_string(r) + " executed " +
                              std::to_string(runs) + " of " + std::to_string(invoked) +
                              " invocations");
    }
  }
  out_.counts["orb.dispatches_per_invocation"] = dispatches / static_cast<double>(invoked);
  if (out_.trace_dropped > 0) out_.problems.push_back("tracer dropped events");

  // Every sim-time observable, hashed: traced and untraced repetitions of
  // one seed must agree on it exactly.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<Outcome>* list : {&out_.outcomes, &out_.probe}) {
    for (const Outcome& o : *list) {
      h = fnv(h, static_cast<std::uint64_t>(o.done_sim - o.arrival_sim));
      h = fnv(h, (o.ok ? 1 : 0) | (o.failed ? 2 : 0) | (o.starved ? 4 : 0) | (o.overloaded ? 8 : 0));
    }
  }
  h = fnv(h, out_.events);
  h = fnv(h, static_cast<std::uint64_t>(out_.counts["net.packets"]));
  h = fnv(h, static_cast<std::uint64_t>(out_.counts["net.bytes"]));
  h = fnv(h, static_cast<std::uint64_t>(out_.measured_sim_ns));
  out_.fingerprint = h;

  if (probe_->traced()) {
    out_.stages = fold_->stages();
    out_.new_views = fold_->new_views();
    for (const Outcome& o : out_.outcomes) {
      const auto it = fold_->request_traces().find({o.client, o.rid});
      out_.trace_of_outcome.push_back(it == fold_->request_traces().end() ? 0 : it->second);
    }
    const RoleStats& s = out_.roles;
    std::uint64_t n = 0;
    std::uint64_t bytes = 0;
    for (int k = 0; k < kKindCount; ++k) {
      n += s.kind_events[kElementBft][static_cast<std::size_t>(k)];
      bytes += s.kind_bytes[kElementBft][static_cast<std::size_t>(k)];
    }
    out_.bft_packet_bytes = n == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(n);
  }
  return std::move(out_);
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Rng rng(mix(seed ^ 0x1a7b0ULL));
  Inputs in;
  for (int c = 0; c < spec.clients; ++c) {
    Op op;
    op.a = rng.next_in(-kInt64Range, kInt64Range);
    op.b = c;
    in.setup.push_back(std::move(op));
  }
  for (int i = 0; i < spec.warmup_per_client * spec.clients; ++i) {
    in.warmup.push_back(random_op(rng, spec));
  }
  if (!spec.open_loop) {
    for (int i = 0; i < spec.measured; ++i) in.measured.push_back(random_op(rng, spec));
    return in;
  }
  for (int i = 0; i < spec.host_probe; ++i) in.probe.push_back(random_op(rng, spec));
  for (std::size_t p = 0; p < spec.rates.size(); ++p) {
    load::ArrivalConfig arrival;
    arrival.kind = load::ArrivalKind::kFixedRate;
    arrival.rate_per_s = spec.rates[p];
    arrival.horizon_ns = spec.window_ns;
    for (const std::int64_t t : load::arrival_schedule(arrival, mix(seed + 101 * (p + 1)))) {
      Op op = random_op(rng, spec);
      op.phase = static_cast<int>(p);
      op.arrival_ns = t;
      in.measured.push_back(std::move(op));
    }
  }
  return in;
}

cdr::Value op_arguments(const Op& op) {
  if (op.echo) return cdr::Value::sequence({cdr::Value::string(*op.payload)});
  return cdr::Value::sequence({cdr::Value::int64(op.a), cdr::Value::int64(op.b)});
}

cdr::Value expected_reply(const Op& op) {
  if (op.echo) return op_arguments(op);
  return cdr::Value::int64(op.a + op.b);
}

RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs, std::uint64_t seed,
                  bool traced) {
  Rep rep(spec, seed, traced);
  return rep.run(inputs);
}

}  // namespace itdos::perfbench
