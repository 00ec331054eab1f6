#!/usr/bin/env python3
"""Gate on `fault_scenario_tool sweep 1 40`: every canned fault scenario at
seeds 1-40 (about 2 s), registered as the `fault_sweep` ctest (label fault).

The sweep must report violations in exactly the known failing runs below
and nowhere else. A new violation fails the gate, and so does a known run
that stops failing, so the list shrinks only on purpose, by editing it.

usage: fault_sweep_gate.py <fault_scenario_tool>
"""

import re
import subprocess
import sys

BASE_SEED = 1
ITERATIONS = 40

# Known violations, as (scenario, seed): runs that fail today and are
# tracked in ROADMAP.md ("The fault sweep already fails"). Both are
# drop_storm liveness failures ("never completed after faults healed"):
# agreement messages the storm drops are never retransmitted, so a slot
# that loses them waits on view changes that lose them again. A change that
# moves the shared RNG stream may move a failure into or out of this range:
# edit the list, with its ROADMAP entry, rather than loosening the gate.
# Outside the gated range, `fault_scenario_tool sweep` fails 11 runs at
# seeds 41-240 and 73 at seeds 241-1040, all liveness (86 over 1-1040:
# drop_storm 69, adaptive_adversary_overload 16, delay_spike 1). The
# client's measured retransmission timeout moved the list from drop_storm
# 10, 16 and 24 (3, 16 and 75 failing runs before).
KNOWN_FAILURES = {
    ("drop_storm", 11),
    ("drop_storm", 15),
}

LINE = re.compile(r"^(\S+) seed=(\d+) .* violations=(\d+)$")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.run([argv[1], "sweep", str(BASE_SEED), str(ITERATIONS)],
                          capture_output=True, text=True, check=False)
    runs = 0
    failing = set()
    for line in proc.stdout.splitlines():
        match = LINE.match(line.strip())
        if not match:
            continue
        runs += 1
        if int(match.group(3)) != 0:
            failing.add((match.group(1), int(match.group(2))))
    if runs == 0:
        print("no scenario runs parsed from the sweep output", file=sys.stderr)
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return 1
    status = 0
    for name, seed in sorted(failing - KNOWN_FAILURES):
        print(f"NEW violation: {name} seed={seed}")
        status = 1
    for name, seed in sorted(KNOWN_FAILURES - failing):
        print(f"known failure now passes: {name} seed={seed} "
              "(remove it from KNOWN_FAILURES)")
        status = 1
    # The tool exits non-zero exactly when some run failed.
    if (proc.returncode != 0) != bool(failing):
        print(f"tool exit status {proc.returncode} disagrees with the "
              f"{len(failing)} failing run(s) parsed", file=sys.stderr)
        status = 1
    print(f"{runs} runs, {len(failing)} with violations "
          f"({len(failing & KNOWN_FAILURES)} known)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
