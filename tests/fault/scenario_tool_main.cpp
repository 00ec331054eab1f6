// fault_scenario_tool — CLI front end over the canned fault scenarios.
//
//   fault_scenario_tool list
//   fault_scenario_tool run <scenario> <seed> [trace-out.jsonl]
//   fault_scenario_tool sweep <base-seed> <iterations>
//   fault_scenario_tool probe <seed> [trace-out.jsonl]
//
// `run` executes one scenario, optionally dumps its causal trace JSONL, and
// exits nonzero if the oracle recorded any violation (printing the forensic
// lines to stderr). `sweep` runs every scenario across consecutive seeds —
// the engine behind scripts/soak.sh. Determinism tests run `run` twice with
// the same seed and diff the two trace files.
//
// `probe` deliberately crosses the f+1 boundary (two silent replicas with
// f=1) and expects the oracle to object: it exits nonzero if NO violation
// was recorded. It exists so the oracle's own alarm path — including the
// oracle.violation trace events — is exercised by tooling, not just unit
// tests (scripts/trace_coverage.py consumes its trace).
#include "fault/scenario.hpp"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

namespace {

int usage() {
  std::cerr << "usage: fault_scenario_tool list\n"
            << "       fault_scenario_tool run <scenario> <seed> "
               "[trace-out.jsonl]\n"
            << "       fault_scenario_tool sweep <base-seed> <iterations>\n"
            << "       fault_scenario_tool probe <seed> [trace-out.jsonl]\n";
  return 2;
}

void print_violations(const itdos::fault::ScenarioResult& result) {
  for (const itdos::fault::Violation& v : result.violations) {
    std::cerr << "VIOLATION " << itdos::fault::violation_kind_name(v.kind)
              << " node=" << v.node.value << " a=" << v.a << " b=" << v.b
              << " : " << v.detail << "\n";
  }
}

/// Writes the run's trace JSONL to `trace_path` (skipped when empty).
/// Returns false, after saying why, when the file cannot be opened.
bool write_trace(const itdos::fault::ScenarioResult& result,
                 const std::string& trace_path) {
  if (trace_path.empty()) return true;
  std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write trace to " << trace_path << "\n";
    return false;
  }
  out << result.trace_jsonl;
  return true;
}

int run_one(const std::string& name, std::uint64_t seed,
            const std::string& trace_path) {
  const itdos::fault::ScenarioResult result =
      itdos::fault::run_scenario(name, seed);
  if (!write_trace(result, trace_path)) return 2;
  std::cout << result.name << " seed=" << result.seed << " completed "
            << result.requests_completed << "/" << result.requests_sent
            << " expulsions=" << result.expulsions
            << " rekeys=" << result.rekeys
            << " view_changes=" << result.view_changes
            << " violations=" << result.violations.size() << "\n";
  if (!result.clean()) {
    print_violations(result);
    return 1;
  }
  if (result.requests_completed != result.requests_sent) {
    std::cerr << "LIVENESS: only " << result.requests_completed << "/"
              << result.requests_sent << " requests completed\n";
    return 1;
  }
  return 0;
}

int probe(std::uint64_t seed, const std::string& trace_path) {
  // Two silent replicas with f=1 is one beyond what the quorum math absorbs;
  // a healthy oracle MUST flag the stalled requests.
  const itdos::fault::ScenarioResult result =
      itdos::fault::run_silent_replicas(2, seed);
  if (!write_trace(result, trace_path)) return 2;
  std::cout << result.name << " seed=" << result.seed << " completed "
            << result.requests_completed << "/" << result.requests_sent
            << " violations=" << result.violations.size() << "\n";
  print_violations(result);
  if (result.clean()) {
    std::cerr << "PROBE FAILURE: oracle recorded no violation beyond the "
                 "f+1 boundary\n";
    return 1;
  }
  return 0;
}

int sweep(std::uint64_t base_seed, std::uint64_t iterations) {
  int failures = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    for (const std::string& name : itdos::fault::scenario_names()) {
      if (run_one(name, base_seed + i, "") != 0) ++failures;
    }
  }
  if (failures != 0) {
    std::cerr << failures << " scenario run(s) failed\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "list") {
    for (const std::string& name : itdos::fault::scenario_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (mode == "run" && (argc == 4 || argc == 5)) {
    const std::string trace_path = (argc == 5) ? argv[4] : "";
    try {
      return run_one(argv[2], std::stoull(argv[3]), trace_path);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  if (mode == "sweep" && argc == 4) {
    return sweep(std::stoull(argv[2]), std::stoull(argv[3]));
  }
  if (mode == "probe" && (argc == 3 || argc == 4)) {
    const std::string trace_path = (argc == 4) ? argv[3] : "";
    return probe(std::stoull(argv[2]), trace_path);
  }
  return usage();
}
