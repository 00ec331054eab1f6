#!/usr/bin/env bash
# Smoke-run one small shard of every paper-experiment bench binary and
# validate the BENCH_<name>.json each one emits against bench/bench_schema.json.
#
# Registered as the `bench_smoke` ctest (label: bench):
#   ctest --test-dir build -L bench
# or standalone:
#   scripts/bench_smoke.sh [build_dir] [--strict]
#
# --strict turns delivery-delay tail regressions (see bench_gate.py) into a
# nonzero exit instead of a warning.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
STRICT=""
ARGS=()
for arg in "$@"; do
  if [[ "${arg}" == "--strict" ]]; then STRICT="--strict"; else ARGS+=("${arg}"); fi
done
set -- "${ARGS[@]:-}"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
BUILD_DIR="$(cd "${BUILD_DIR}" 2>/dev/null && pwd || echo "${BUILD_DIR}")"
BENCH_DIR="${BUILD_DIR}/bench"
SCHEMA="${REPO_ROOT}/bench/bench_schema.json"

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: no bench binaries in ${BENCH_DIR}; build the tree first:" >&2
  echo "  cmake -B '${BUILD_DIR}' -S '${REPO_ROOT}' && cmake --build '${BUILD_DIR}'" >&2
  exit 1
fi

# Reports are written to the working directory; run in a scratch dir so smoke
# runs never clobber full-run reports.
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT
cd "${WORK_DIR}"

# binary -> one cheap shard that still exercises telemetry (a simulated system
# that gets harvested, or a host-timed hot loop), so every report carries
# counters AND at least one latency histogram.
BENCHES=(
  "fig1_end_to_end:BM_Fig1EndToEnd/1/"
  "fig2_stack_breakdown:BM_Layer_Marshal/64\$|BM_Layer_Mac/|BM_Sha256/"
  "fig3_connection_establishment:BM_Fig3WarmConnection/1/"
  "e1_group_size_scaling:BM_E1OrderingCost/1/|BM_E1BatchPipelineSweep"
  "e2_voting:BM_E2ExactUnmarshalled/4\$"
  "e3_state_sync:BM_E3SnapshotStateTransfer/1024\$"
  "e4_threshold_keys:BM_E4TraditionalKeygen\$"
  "e5_early_vote:BM_E5DecideLatency/0/"
  "e6_expulsion_rekey:BM_E6ProofVerification/1\$"
  "e7_it_overhead:BM_E7Itdos/1/"
  "e8_nested_invocations:BM_E8NestedDepth/0/"
  "e9_large_messages:BM_E9PayloadSweep/1024/"
  "a1_ablations:BM_A1Adaptive\$"
  "e10_recovery:BM_E10ExpelToRestored/"
  "e11_offered_load:BM_E11Attack"
  "e12_sharded_bank:BM_E12"
)

for entry in "${BENCHES[@]}"; do
  bench="${entry%%:*}"
  filter="${entry#*:}"
  binary="${BENCH_DIR}/${bench}"
  if [[ ! -x "${binary}" ]]; then
    echo "error: missing bench binary ${binary}" >&2
    exit 1
  fi
  echo "== ${bench} (${filter})"
  "${binary}" --benchmark_filter="${filter}" --benchmark_min_time=0.05 >/dev/null
  if [[ ! -f "BENCH_${bench}.json" ]]; then
    echo "error: ${bench} did not write BENCH_${bench}.json" >&2
    exit 1
  fi
done

python3 "${REPO_ROOT}/scripts/validate_bench_json.py" --schema "${SCHEMA}" BENCH_*.json
echo "bench smoke OK: ${#BENCHES[@]} reports validated against $(basename "${SCHEMA}")"

# Perf gate: delivery-delay tails (p95/p99) vs the previous smoke run, an
# absolute MTTR ceiling on the e10 recovery report (repair must land well
# inside the watchdog deadline), an advisory p99-at-offered-load ceiling
# on the e11 curves (the pre-knee rate must stay servable), and an advisory
# batched-speedup floor on the e1 batch sweep (batching + pipelining must
# keep beating the single-slot baseline at saturation). Warn by default;
# --strict makes a regression fail the test. The baseline is then refreshed
# so the next run compares against this one.
BASELINE_DIR="${ITDOS_BENCH_BASELINE_DIR:-${BUILD_DIR}/bench_baseline}"
mkdir -p "${BASELINE_DIR}"
python3 "${REPO_ROOT}/scripts/bench_gate.py" --baseline "${BASELINE_DIR}" \
  --p99-ceiling-at-load 1600:50000000 --min-batch-speedup 2.0 ${STRICT} \
  BENCH_*.json
cp BENCH_*.json "${BASELINE_DIR}/"
