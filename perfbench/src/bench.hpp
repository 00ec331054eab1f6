// Shared vocabulary of the ITDOS benchmark (perfbench/README.md): workload
// specs, the seeded inputs, the event probe that times the simulator from
// outside, and the per-repetition result the report is assembled from.
//
// Everything here measures the stack through public functions only: the
// benchmark drives Simulator::step() itself, watches deliveries through
// pass-through inbound filters, times its own servant, and reads the
// telemetry registry and tracer. Nothing under src/ knows it exists.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "itdos/system.hpp"

namespace itdos::perfbench {

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}



// ---------------------------------------------------------------------------
// Workloads and inputs
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  int clients = 1;
  bool batching = false;        // batch_max_entries 4, 60us hold, pipeline 4
  int warmup_per_client = 0;    // closed-loop requests excluded from timing
  int measured = 0;             // closed loop: requests in the measured phase
  std::vector<double> rates;    // open loop: offered-rate ladder (req/s)
  std::int64_t window_ns = 0;   // open loop: arrival window per ladder rate
  double echo_share = 0.0;      // fraction of requests that are echo
  std::size_t echo_bytes = 0;   // echo payload size
  std::int64_t crash_at_ns = -1;  // crash rank 0 this far into the window
  int latency_phases = 0;       // open loop: leading ladder rates in the latency
                                // percentiles (0 = all)
  std::int64_t latency_limit_ns = 0;  // sim p99 limit for sim_capacity_rps
  int host_probe = 0;     // open loop: serial requests timed for host latency
  int corrupt_ranks = 0;  // self-tests: ranks [0, n) answer add with a wrong sum
};

/// One generated request. `arrival_ns` is the offset into its ladder phase
/// (open loop); closed-loop requests are issued back to back.
struct Op {
  bool echo = false;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::shared_ptr<const std::string> payload;  // echo only
  int phase = 0;
  std::int64_t arrival_ns = 0;
};

struct Inputs {
  std::vector<Op> setup;    // one add per client: connection establishment
  std::vector<Op> warmup;   // closed-loop warm-up, round-robin over clients
  std::vector<Op> measured;
  std::vector<Op> probe;    // open loop: serial requests after the measured phase
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);
cdr::Value op_arguments(const Op& op);
/// The reply value a correct replicated domain must vote for `op`.
cdr::Value expected_reply(const Op& op);

inline constexpr const char* kInterface = "IDL:perfbench/Calc:1.0";

// ---------------------------------------------------------------------------
// Event probe
// ---------------------------------------------------------------------------

/// Who handled a simulator event. Packet deliveries are attributed to the
/// receiving node's role; other events are timers, except consume events in
/// which the benchmark's servant ran (element.orb) and the benchmark's own
/// arrival events (load.arrival). client.invoke is host time spent issuing
/// closed-loop invocations between events.
enum Role : int {
  kClientInvoke = 0,
  kClientSmiop,
  kClientBft,
  kElementBft,
  kElementSmiop,
  kElementClient,
  kElementOrb,
  kGm,
  kLoadArrival,
  kTimer,
  kOtherNode,
  kRoleCount,
};

const char* role_name(int role);

/// Message kind index: BFT MsgType values 1..10, SMIOP types at 16 + type.
inline constexpr int kKindCount = 32;
inline constexpr int kSmiopKindBase = 16;
std::string kind_name(int kind);

struct RoleStats {
  std::array<std::int64_t, kRoleCount> ns{};
  std::array<std::uint64_t, kRoleCount> events{};
  std::array<std::array<std::int64_t, kKindCount>, kRoleCount> kind_ns{};
  std::array<std::array<std::uint64_t, kKindCount>, kRoleCount> kind_events{};
  std::array<std::array<std::uint64_t, kKindCount>, kRoleCount> kind_bytes{};
  std::int64_t servant_ns = 0;          // servant self time (dispatch body)
  std::int64_t servant_in_bft_ns = 0;   // ... of which inside replica events
  std::int64_t step_ns = 0;             // every timed step
  std::uint64_t steps = 0;

  void clear() { *this = RoleStats{}; }
};

/// Times simulator steps and attributes them. Untraced, step() is a bare
/// Simulator::step() and no filter is installed, so both modes execute the
/// same event sequence.
class Probe {
 public:
  Probe(net::Simulator& sim, bool traced) : sim_(sim), traced_(traced) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool traced() const { return traced_; }

  /// Installs a pass-through inbound filter on node ids [1, last].
  void watch_nodes(net::Network& net, std::uint64_t last);
  void set_role(NodeId node, Role role, bool smiop_kinds);

  bool step();

  /// Relabels the event being executed (servant, arrival handler).
  void mark(Role role) {
    if (traced_ && !cur_.packet) cur_.mark = role;
  }
  void add_servant_ns(std::int64_t ns);
  void add_invoke_ns(std::int64_t ns) {
    stats_.ns[kClientInvoke] += ns;
    ++stats_.events[kClientInvoke];
  }

  RoleStats& stats() { return stats_; }

 private:
  struct Current {
    bool packet = false;
    std::uint64_t node = 0;
    std::uint8_t type = 0;
    std::size_t bytes = 0;
    int mark = -1;
  };
  struct NodeRole {
    Role role = kOtherNode;
    bool smiop = false;
  };

  net::Simulator& sim_;
  bool traced_;
  Current cur_;
  std::map<std::uint64_t, NodeRole> roles_;
  RoleStats stats_;
};

// ---------------------------------------------------------------------------
// Sim-time stages folded from the tracer
// ---------------------------------------------------------------------------

/// Per-request sim timestamps (ns; -1 = stage never seen for this trace id).
struct Stages {
  std::int64_t sent = -1;        // smiop.request_sent at the client
  std::int64_t pre_prepare = -1; // first bft.pre_prepare
  std::int64_t prepared = -1;    // first bft.commit sent (a replica prepared)
  std::int64_t executed = -1;    // f+1th bft.execute of the last ordered slot
  std::int64_t appended = -1;    // f+1th queue.append
  std::int64_t vote_open = -1;
  std::int64_t decided = -1;     // vote.decide at the client
  std::uint64_t ballots = 0;     // ballots in hand at the decision
  // bookkeeping
  std::uint64_t exec_seq = 0;
  int exec_count = 0;
  std::uint64_t append_index = 0;  // queue index + 1 of the latest entry
  int append_count = 0;
};

/// Folds trace events incrementally, so the tracer can be cleared per window
/// (it stores 2^18 events, then only counts drops).
class TraceFold {
 public:
  TraceFold(int f, std::map<std::uint64_t, int> client_of_node,
            std::map<std::uint64_t, bool> server_replica)
      : f_(f),
        client_of_node_(std::move(client_of_node)),
        server_replica_(std::move(server_replica)) {}

  void fold(const std::vector<telemetry::TraceEvent>& events);

  /// (client, rid) -> trace id, learned from request_sent events.
  const std::map<std::pair<int, std::uint64_t>, std::uint64_t>& request_traces() const {
    return request_traces_;
  }
  const std::map<std::uint64_t, Stages>& stages() const { return stages_; }
  std::uint64_t new_views() const { return new_views_; }

 private:
  int f_;
  std::map<std::uint64_t, int> client_of_node_;
  std::map<std::uint64_t, bool> server_replica_;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> request_traces_;
  std::map<std::uint64_t, Stages> stages_;
  std::uint64_t new_views_ = 0;
};

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// Outcome of one request of the measured phase.
struct Outcome {
  int client = -1;
  int phase = 0;                    // ladder phase (open loop)
  bool in_latency = true;           // counted in the latency percentiles
  std::uint64_t rid = 0;            // ORB request id on that client
  std::int64_t arrival_sim = -1;    // scheduled arrival (open) / issue (closed)
  std::int64_t done_sim = -1;
  std::int64_t issue_host = 0;
  std::int64_t done_host = 0;
  bool ok = false;          // voted reply with the expected value
  bool wrong = false;       // voted reply with another value
  bool overloaded = false;
  bool failed = false;      // vote timeout, transport error, never completed
  bool starved = false;     // every client at its backlog cap
};

struct PhaseResult {
  double rate = 0.0;
  bool in_latency = true;  // its requests count in the latency percentiles
  std::int64_t host_ns = 0;
  std::vector<std::int64_t> latencies;  // sim ns, correct replies
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t done_in_window = 0;  // correct replies completed in the window
  std::uint64_t backlog_at_end = 0;  // outstanding at the window's end
};

struct RepResult {
  bool traced = false;
  std::int64_t setup_ns = 0;
  std::int64_t measured_host_ns = 0;
  int sub_seed = 0;
  double scale = 1.0;  // host ns -> reference-machine ns (see main.cpp)
  std::int64_t measured_sim_ns = 0;
  std::vector<Outcome> outcomes;
  std::vector<PhaseResult> phases;
  std::vector<Outcome> probe;     // open loop: the serial host-latency probe
  std::int64_t crash_sim = -1;
  std::uint64_t events = 0;       // simulator events in the measured phase
  std::uint64_t fingerprint = 0;  // hash of every sim-time observable
  std::vector<std::string> problems;  // correctness violations

  // Registry / BufStats reads over the measured phase.
  std::map<std::string, double> counts;

  // Traced repetitions only.
  RoleStats roles;
  std::int64_t gm_setup_ns = 0;
  std::map<std::uint64_t, Stages> stages;          // by trace id
  std::vector<std::uint64_t> trace_of_outcome;     // parallel to outcomes
  std::uint64_t new_views = 0;
  std::uint64_t trace_dropped = 0;

  // Sizes the replay reproduces (plaintext GIOP bytes, per op kind).
  std::map<std::string, std::uint64_t> op_counts;  // "add" / "echo"
  double bft_packet_bytes = 0.0;                   // mean, element.bft deliveries
};

RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs, std::uint64_t seed,
                  bool traced);

// ---------------------------------------------------------------------------
// Replayed layer costs
// ---------------------------------------------------------------------------

struct ReplayCosts {
  double seal_us = 0.0;       // seal one request plaintext (mix-weighted)
  double open_us = 0.0;       // open one sealed reply
  double mac_us = 0.0;        // SessionKeys::tag at the agreement-message size
  double marshal_us = 0.0;    // encode_giop(request) + encode_giop(reply)
  double unmarshal_us = 0.0;  // parse_giop(request) + parse_giop(reply)
  double vote_add_us = 0.0;   // core::Vote::add, per ballot
};

ReplayCosts replay_costs(const Inputs& inputs, const RepResult& traced_rep, std::uint64_t seed);

}  // namespace itdos::perfbench
