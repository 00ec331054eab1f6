// Declarative, seed-deterministic fault schedules (the adversary's script).
//
// A FaultPlan says WHAT goes wrong and WHEN, in simulated time: lossy /
// slow / duplicating / corrupting links, partition windows that form and
// heal, and Byzantine behaviors activated per BFT replica, ITDOS element or
// Group Manager element. fault::FaultInjector turns the plan into network
// interceptors and scheduled events; fault::Oracle checks that the system
// upholds the paper's safety and liveness guarantees under it.
//
// Everything is driven by the plan's own Rng stream, so a (scenario, seed)
// pair replays byte-identically — the trace JSONL of a faulty run is itself
// a regression artifact (see src/telemetry/trace.hpp).
#pragma once

#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace itdos::fault {

/// Half-open activity window in simulated time: [from, until).
struct TimeWindow {
  SimTime from{0};
  SimTime until{std::numeric_limits<std::int64_t>::max()};

  bool contains(SimTime t) const { return t.ns >= from.ns && t.ns < until.ns; }
  bool bounded() const {
    return until.ns != std::numeric_limits<std::int64_t>::max();
  }
};

/// Degrades traffic a node emits (optionally only toward one peer) while the
/// window is open. Effects compose per packet: corruption mutates the
/// payload, then the drop/duplicate/delay dice roll independently.
struct LinkFault {
  NodeId from_node{};
  std::optional<NodeId> to_node{};  // nullopt: every destination
  TimeWindow window{};
  double drop = 0.0;               // P(packet silently vanishes)
  double duplicate = 0.0;          // P(an extra delayed copy is injected)
  double corrupt = 0.0;            // P(one payload byte is flipped)
  double delay_probability = 0.0;  // P(packet is held back...)
  std::int64_t delay_min_ns = 0;   // ...for a uniform extra delay
  std::int64_t delay_max_ns = 0;

  bool applies_to(NodeId from, NodeId to, SimTime t) const {
    return from == from_node && (!to_node || *to_node == to) &&
           window.contains(t);
  }
};

/// A network partition that forms at `form` and heals at `heal`; while it
/// holds, no packet crosses between side_a and side_b.
struct PartitionWindow {
  std::set<NodeId> side_a{};
  std::set<NodeId> side_b{};
  SimTime form{0};
  SimTime heal{0};
};

/// Byzantine behaviors for one BFT replica (by rank), active in the window.
/// The behavior set maps onto bft::Replica::ByzantineHooks; stale-view
/// replays additionally fire every `stale_replay_period_ns` inside the
/// window (0 = never).
struct ReplicaFault {
  int rank = 0;
  TimeWindow window{};
  bool silent = false;
  bool corrupt_macs = false;
  bool equivocate = false;
  std::int64_t stale_replay_period_ns = 0;
};

/// Byzantine behaviors for one ITDOS domain element (by rank), active from
/// `at` onward (element misbehavior is sticky: detection should expel it).
struct ElementFault {
  enum class Kind {
    kDissentingReplies,     // mutate every reply value (voter must mask it)
    kBogusChangeRequests,   // frame a correct element with forged proof
    kCorruptStateBundles,   // serve corrupt state offers to a joining
                            // replacement (f+1 matching rule must mask it)
  };
  int rank = 0;
  Kind kind = Kind::kDissentingReplies;
  SimTime at{0};
  int victim_rank = 0;  // kBogusChangeRequests: the framed element
};

/// Misbehavior of one compromised singleton client party, active from `at`
/// onward: duplicated ordered submissions and/or replays of previously
/// sealed GIOP frames. Every element must discard both identically (stale
/// rid, §3.6) — a split decision would fork the domain.
struct ClientFault {
  enum class Kind {
    kDuplicateRequests,   // each ordered request submitted twice
    kReplayStaleFrames,   // resubmit the previous sealed frame each round
  };
  int client_index = 0;   // which add_client() party is compromised
  Kind kind = Kind::kDuplicateRequests;
  SimTime at{0};
};

/// Misbehavior of one Group Manager element, active from `at` onward.
struct GmFault {
  int index = 0;
  bool withhold_shares = false;
  bool corrupt_shares = false;
  SimTime at{0};
};

/// An ADAPTIVE adversary: instead of a scripted target, it reads the same
/// live telemetry the §6f feedback controller does (the replicated
/// queue.<node>.depth gauges) every `interval_ns` and re-aims its link
/// degradation at whichever element of the domain currently has the deepest
/// queue — the worst possible victim, since delaying the most-loaded
/// element's traffic compounds its backlog and makes it look like a
/// laggard. Each retarget is traced (adversary.retarget), so the duel
/// between this adversary and the response controller is replayable.
struct AdaptiveFault {
  TimeWindow window{};
  std::int64_t interval_ns = millis(50);  // retarget cadence
  // Degradation applied to the current target's OUTBOUND traffic.
  double drop = 0.0;
  double delay_probability = 0.0;
  std::int64_t delay_min_ns = 0;
  std::int64_t delay_max_ns = 0;
};

/// Codes carried in kFaultInject trace events (field `a`).
enum class InjectKind : std::uint64_t {
  kDrop = 1,
  kDelay = 2,
  kDuplicate = 3,
  kCorrupt = 4,
  kPartitionForm = 5,
  kPartitionHeal = 6,
  kByzantineOn = 7,
  kByzantineOff = 8,
  kElementFault = 9,
  kGmFault = 10,
  kClientFault = 11,
  kAdaptiveRetarget = 12,
};

/// The adversary's full script for one run. Every member has a default, so
/// a plan can be written as designated-initializer data naming only the
/// faults it injects.
struct FaultPlan {
  std::uint64_t seed = 1;  // drives the injector's OWN dice, not the sim's
  std::vector<LinkFault> link_faults{};
  std::vector<PartitionWindow> partitions{};
  std::vector<ReplicaFault> replica_faults{};
  std::vector<ElementFault> element_faults{};
  std::vector<GmFault> gm_faults{};
  std::vector<ClientFault> client_faults{};
  std::vector<AdaptiveFault> adaptive_faults{};

  /// When the last injected fault is over: the oracle's liveness check
  /// demands every correct-client request completes after this point.
  SimTime heal_time{0};
};

}  // namespace itdos::fault
