#!/usr/bin/env bash
# Two checks on the causal traces of the canned fault scenarios, registered
# together as the `fault_trace_determinism` ctest:
#
#   1. Run-twice: the same scenario with the same seed twice must give
#      byte-identical traces (trace_diff.py reports the first divergent
#      event otherwise).
#   2. Golden: every scenario `fault_scenario_tool list` names, plus the f+1
#      boundary probe, at seed 4242 must hash to the sha256 pinned in
#      tests/fault/trace_golden.txt. Mismatching names are printed.
#
# A change that alters a trace on purpose re-blesses the golden file with
# (from the repository root, after building):
#
#   tool=build/tests/fault_scenario_tool; t=$(mktemp)
#   { sed -n '/^#/p' tests/fault/trace_golden.txt
#     for n in $("$tool" list); do "$tool" run "$n" 4242 "$t" >/dev/null
#       echo "$n $(sha256sum < "$t" | cut -d' ' -f1)"; done
#     "$tool" probe 4242 "$t" >/dev/null
#     echo "probe $(sha256sum < "$t" | cut -d' ' -f1)"; } > "$t.golden"
#   mv "$t.golden" tests/fault/trace_golden.txt; rm -f "$t"
#
# usage: trace_determinism_check.sh <fault_scenario_tool> <trace_diff.py> <workdir>
set -euo pipefail

TOOL="${1:?path to fault_scenario_tool}"
DIFF="${2:?path to trace_diff.py}"
WORKDIR="${3:?scratch directory for trace files}"
GOLDEN="$(cd "$(dirname "$0")/.." && pwd)/tests/fault/trace_golden.txt"

SCENARIOS="${ITDOS_TRACE_SCENARIOS:-expel_rekey_e2e partition_primary drop_storm}"
SEED="${ITDOS_TRACE_SEED:-4242}"

mkdir -p "$WORKDIR"

status=0
for scenario in $SCENARIOS; do
  a="$WORKDIR/${scenario}_a.jsonl"
  b="$WORKDIR/${scenario}_b.jsonl"
  "$TOOL" run "$scenario" "$SEED" "$a" >/dev/null
  "$TOOL" run "$scenario" "$SEED" "$b" >/dev/null
  if python3 "$DIFF" "$a" "$b"; then
    echo "determinism OK: $scenario seed=$SEED"
  else
    echo "determinism FAILED: $scenario seed=$SEED" >&2
    status=1
  fi
done

# Golden digests: a run that fails its oracle still leaves a trace to hash,
# so the tool's exit status is not what decides a match here.
digest() { sha256sum < "$1" | cut -d' ' -f1; }
actual="$WORKDIR/golden_actual.txt"
: > "$actual"
for scenario in $("$TOOL" list); do
  "$TOOL" run "$scenario" 4242 "$WORKDIR/golden.jsonl" >/dev/null 2>&1 || true
  echo "$scenario $(digest "$WORKDIR/golden.jsonl")" >> "$actual"
done
"$TOOL" probe 4242 "$WORKDIR/golden.jsonl" >/dev/null 2>&1 || true
echo "probe $(digest "$WORKDIR/golden.jsonl")" >> "$actual"

mismatched=$(grep -v '^#' "$GOLDEN" | sort | comm -3 - <(sort "$actual") |
             awk '{print $1}' | sort -u)
if [ -z "$mismatched" ]; then
  echo "golden OK: $(wc -l < "$actual") traces at seed 4242 match $GOLDEN"
else
  echo "golden FAILED: traces at seed 4242 differ from $GOLDEN for:" >&2
  echo "$mismatched" | sed 's/^/  /' >&2
  status=1
fi
exit $status
