// Canned fault scenarios. Each is a row of one table in scenario.cpp: a
// deployment (BFT cluster, one ITDOS domain, or the 2-shard bank), a
// FaultPlan, and a drive function. One runner takes every row through the
// same path: build the deployment, arm the plan, watch every member the plan
// leaves correct, drive the client workload through the fault window, and
// report what the oracles saw. Each (name, seed) pair is fully
// deterministic, so the returned trace JSONL is byte-stable across runs —
// tests/fault/ sweeps these as ctest cases, tests/fault/trace_golden.txt
// pins their seed-4242 digests, and scripts/soak.sh sweeps random seeds.
//
// DESIGN.md §6b ("Fault model & oracles") maps each scenario to the paper
// section whose claim it stresses and describes the runner.
#pragma once

#include <string>
#include <vector>

#include "fault/oracle.hpp"
#include "fault/plan.hpp"

namespace itdos::fault {

struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;

  std::vector<Violation> violations;
  std::size_t requests_sent = 0;
  std::size_t requests_completed = 0;

  bool detection = false;        // a fault was detected (expulsion ordered)
  std::uint64_t expulsions = 0;  // GM expulsions in the final state
  std::uint64_t rekeys = 0;      // gm.rekey trace events
  std::uint64_t view_changes = 0;  // bft.new_view trace events

  // Recovery scenarios (src/recovery/): expel -> replace -> rekey cycles.
  std::uint64_t recoveries_started = 0;
  std::uint64_t recoveries_completed = 0;
  std::uint64_t recoveries_aborted = 0;    // watchdog aborts (retried)
  std::int64_t last_mttr_ns = 0;           // trigger -> restored 3f+1
  std::uint64_t membership_updates = 0;    // gm.membership_update trace events
  // Per-rank entries_discarded of the server domain: a compromised client's
  // duplicates/replays must be discarded IDENTICALLY at every element.
  std::vector<std::uint64_t> element_discards;

  // Admission-control / adaptive-adversary scenarios (§6f).
  std::uint64_t sheds = 0;            // replicated admission sheds (any element)
  std::uint64_t overloads = 0;        // explicit OVERLOAD replies clients saw
  std::uint64_t adaptive_retargets = 0;  // adversary.retarget events
  std::uint64_t control_adjustments = 0; // control.adjust events

  std::string trace_jsonl;  // full causal trace (byte-stable per seed)

  bool clean() const { return violations.empty(); }
};

/// Names of all canned scenarios, in a fixed order.
std::vector<std::string> scenario_names();

/// Runs one canned scenario. Throws std::invalid_argument on unknown names.
ScenarioResult run_scenario(const std::string& name, std::uint64_t seed);

/// The f-boundary harness: a BFT cluster (f = 1) with `silent_count`
/// replicas muted from t = 0. With silent_count <= f every request must
/// complete; at f+1 the quorum is gone and the oracle must report the
/// liveness loss (tests assert the DETECTION, not silence).
ScenarioResult run_silent_replicas(int silent_count, std::uint64_t seed);

}  // namespace itdos::fault
