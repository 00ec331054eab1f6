#!/usr/bin/env python3
"""The benchmark's own tests: tracing must not perturb the simulation, a seed
must reproduce its sim-time results, and wrong replies must fail the run.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark like perfbench/run.py does, then runs the real
workloads with --seconds 0: the fewest repetitions that fix every sim-time
metric (three, or six traced).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402  (perfbench/run.py)

BINARY = None


def bench(workload, seed, trace, *extra):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n")
    sim = [l for l in lines if l.startswith("# sim-check ")]
    return proc, json.loads(lines[-1]), sim[0][len("# sim-check "):] if sim else None


class TracingDoesNotPerturb(unittest.TestCase):
    def test_traced_and_untraced_runs_agree_on_every_sim_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain, plain_result, plain_sim = bench(workload, 7, 0)
                traced, traced_result, traced_sim = bench(workload, 7, 1)
                self.assertEqual(plain.returncode, 0, plain.stderr)
                self.assertEqual(traced.returncode, 0, traced.stderr)
                # sim_* metrics and net.events_per_req, printed identically.
                self.assertEqual(plain_sim, traced_sim)
                check = json.loads(plain_sim)
                for name in ("sim_latency_p50_us", "sim_latency_p99_us", "sim_goodput_rps"):
                    self.assertEqual(check[name], plain_result["metrics"][name]["value"])
                self.assertEqual(check["net.events_per_req"],
                                 traced_result["metrics"]["net.events_per_req"]["value"])
                self.assertEqual(traced_result["metrics"]["error_rate"]["value"], 0)


class SeedsAreInputs(unittest.TestCase):
    def test_same_seed_same_simulation_other_seed_other_inputs(self):
        _, _, first = bench("small_serial", 3, 0)
        _, _, again = bench("small_serial", 3, 0)
        _, _, other = bench("small_serial", 4, 0)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


class OutputsAreChecked(unittest.TestCase):
    def test_wrong_voted_replies_fail_the_run(self):
        # Three of four elements agree on a wrong sum: the voter accepts it,
        # and only the benchmark's own check can catch it.
        proc, result, _ = bench("small_serial", 5, 0, "--corrupt-elements", "3")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("wrong reply value", proc.stderr)
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
