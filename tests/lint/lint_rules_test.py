#!/usr/bin/env python3
"""Tests for tools/itdos_lint.py: every rule ID fires on its fixture, stops
firing when the rule is disabled, and is silenced by an explained allow().

Stdlib-only (unittest + subprocess); registered as the `lint_fixtures` ctest
(label: lint). Run standalone with:  python3 tests/lint/lint_rules_test.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "itdos_lint.py")
ANALYZE = os.path.join(REPO, "tools", "itdos_analyze")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    """Returns (exit_code, findings) from a --json lint run."""
    proc = subprocess.run(
        [sys.executable, LINT, "--json", *args],
        capture_output=True, text=True, check=False)
    findings = json.loads(proc.stdout) if proc.stdout.strip() else []
    return proc.returncode, findings


def run_analyze(*args, baseline=False):
    """Returns (exit_code, findings) from a --json itdos_analyze run.
    Fixture runs skip the checked-in baseline (it describes src/, not them)."""
    extra = () if baseline else ("--no-baseline",)
    proc = subprocess.run(
        [sys.executable, ANALYZE, "--json", "--no-trace-check",
         *extra, *args],
        capture_output=True, text=True, check=False)
    findings = json.loads(proc.stdout) if proc.stdout.strip() else []
    return proc.returncode, findings


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def rules_of(findings):
    return {f["rule"] for f in findings}


class RuleFires(unittest.TestCase):
    """Each rule ID must fire on its bad fixture — and stop when disabled."""

    def assert_rule(self, rule, path, *extra, min_count=1):
        code, findings = run_lint(path, "--no-trace-check", *extra)
        hits = [f for f in findings if f["rule"] == rule]
        self.assertEqual(code, 1, f"expected findings in {path}: {findings}")
        self.assertGreaterEqual(len(hits), min_count,
                                f"{rule} did not fire on {path}: {findings}")
        # Disabling the rule must silence exactly those findings.
        code_off, findings_off = run_lint(path, "--no-trace-check",
                                          "--disable", rule, *extra)
        self.assertNotIn(rule, rules_of(findings_off),
                         f"{rule} fired despite --disable")
        return hits

    def test_det001_fires_on_every_category(self):
        hits = self.assert_rule("DET-001", fixture("det001_bad.cpp"),
                                min_count=6)
        messages = " ".join(h["message"] for h in hits)
        for needle in ("steady_clock", "time()", "random_device", "rand()",
                       "getenv", "pointer-to-integer", "hash over a pointer"):
            self.assertIn(needle, messages)

    def test_det002_fires_per_container(self):
        self.assert_rule("DET-002", fixture("det002_bad.cpp"), min_count=2)

    def test_proto001_fires_on_call_discards_only(self):
        hits = self.assert_rule("PROTO-001", fixture("proto001_bad.cpp"),
                                min_count=2)
        # The `(void)state;` unused-param idiom must NOT be flagged.
        lines = {h["line"] for h in hits}
        self.assertEqual(len(lines), 2, hits)

    def test_proto002_fires_in_cdr_scope(self):
        self.assert_rule("PROTO-002", fixture("cdr", "proto002_bad.cpp"),
                         min_count=2)

    def test_proto002_accepts_visible_bounds_checks(self):
        code, findings = run_lint(fixture("cdr", "proto002_ok.cpp"),
                                  "--no-trace-check")
        self.assertEqual(code, 0, findings)

    def test_trace001_fires_on_desynced_tables(self):
        code, findings = run_lint(
            fixture("trace001", "trace.cpp"),  # any file; TRACE-001 is global
            "--trace-hpp", fixture("trace001", "trace.hpp"),
            "--trace-cpp", fixture("trace001", "trace.cpp"))
        self.assertEqual(code, 1)
        messages = " ".join(f["message"] for f in findings
                            if f["rule"] == "TRACE-001")
        self.assertIn("kGhost", messages)      # enum entry with no string
        self.assertIn("kStray", messages)      # string for undeclared entry
        self.assertIn("fixture.same", messages)  # duplicate wire name
        code_off, findings_off = run_lint(
            fixture("trace001", "trace.cpp"), "--disable", "TRACE-001",
            "--trace-hpp", fixture("trace001", "trace.hpp"),
            "--trace-cpp", fixture("trace001", "trace.cpp"))
        self.assertNotIn("TRACE-001", rules_of(findings_off))

    def test_buf001_fires_per_owning_param(self):
        hits = self.assert_rule("BUF-001", fixture("itdos", "buf001_bad.hpp"),
                                min_count=4)
        messages = " ".join(h["message"] for h in hits)
        for needle in ("payload", "frame", "wire", "entry"):
            self.assertIn(f"`{needle}`", messages)

    def test_buf001_accepts_views_refs_and_suppressed_sinks(self):
        code, findings = run_lint(fixture("itdos", "buf001_ok.hpp"),
                                  "--no-trace-check")
        self.assertEqual(code, 0, findings)

    def test_buf001_covers_control_loop_headers(self):
        # src/control/ actuates via ordered GM commands — its headers are
        # message-path headers, and the DET rules bite there too.
        hits = self.assert_rule(
            "BUF-001", fixture("control", "buf001_controller_bad.hpp"),
            min_count=2)
        messages = " ".join(h["message"] for h in hits)
        for needle in ("command", "frame"):
            self.assertIn(f"`{needle}`", messages)
        _, findings = run_lint(
            fixture("control", "buf001_controller_bad.hpp"),
            "--no-trace-check")
        self.assertIn("DET-001", rules_of(findings),
                      "host-clock read in a control-loop header not flagged")

    def test_buf001_covers_load_harness_headers(self):
        self.assert_rule("BUF-001",
                         fixture("load", "buf001_generator_bad.hpp"))

    def test_buf001_covers_shard_routing_headers(self):
        # src/shard/ resolves every routed invocation, so its headers are
        # message-path headers — and routing must be deterministic, so a
        # host-clock read there is a DET finding too.
        hits = self.assert_rule(
            "BUF-001", fixture("shard", "buf001_router_bad.hpp"))
        self.assertIn("`sealed`", hits[0]["message"])
        _, findings = run_lint(fixture("shard", "buf001_router_bad.hpp"),
                               "--no-trace-check")
        self.assertIn("DET-001", rules_of(findings),
                      "host-clock read in a shard-routing header not flagged")

    def test_buf001_covers_batch_formation_headers(self):
        # src/batch/ parks encoded request frames on the ordering hot path;
        # an owning-Bytes enqueue would copy every frame, and a host-clock
        # read would break formation determinism.
        hits = self.assert_rule(
            "BUF-001", fixture("batch", "buf001_former_bad.hpp"),
            min_count=3)
        self.assertIn("`encoded`", hits[0]["message"])
        _, findings = run_lint(fixture("batch", "buf001_former_bad.hpp"),
                               "--no-trace-check")
        self.assertIn("DET-001", rules_of(findings),
                      "host-clock read in a formation header not flagged")

    def test_meta001_fires_on_unexplained_suppression(self):
        self.assert_rule("META-001", fixture("unexplained.cpp"))


class AnalyzerRuleFires(unittest.TestCase):
    """tools/itdos_analyze: each rule fires on its bad fixture, stays quiet
    on its good fixture, and is silenced by an explained allow()."""

    def assert_triplet(self, rule, bad, good, suppressed, min_count=1):
        code, findings = run_analyze(fixture("analyze", bad))
        hits = [f for f in findings if f["rule"] == rule]
        self.assertEqual(code, 1, f"expected findings in {bad}: {findings}")
        self.assertGreaterEqual(len(hits), min_count,
                                f"{rule} did not fire on {bad}: {findings}")
        code_off, findings_off = run_analyze(fixture("analyze", bad),
                                             "--disable", rule)
        self.assertNotIn(rule, rules_of(findings_off),
                         f"{rule} fired despite --disable")
        code_ok, findings_ok = run_analyze(fixture("analyze", good))
        self.assertEqual(code_ok, 0, f"{good} must be clean: {findings_ok}")
        code_sup, findings_sup = run_analyze(fixture("analyze", suppressed))
        self.assertEqual(code_sup, 0,
                         f"allow() did not silence {rule}: {findings_sup}")
        return hits

    def test_taint001_covers_every_sink_class(self):
        hits = self.assert_triplet(
            "TAINT-001", "taint001_bad.cpp", "taint001_ok.cpp",
            "taint001_suppressed.cpp", min_count=7)
        messages = " ".join(h["message"] for h in hits)
        for needle in (".resize()", ".reserve()", "loop bound", "memcpy",
                       "array-new", "scratch[...]", ".subspan()"):
            self.assertIn(needle, messages)

    def test_taint001_covers_batch_entry_decode(self):
        # A Byzantine primary controls a batch's entry_count; sizing the
        # entry loop from the raw field must fire, and the real guard shape
        # (cap + remaining-bytes check, as in batch::BatchMsg::decode) must
        # kill the taint.
        code, findings = run_analyze(
            fixture("batch", "taint001_decode_bad.cpp"))
        self.assertEqual(code, 1, findings)
        hits = [f for f in findings if f["rule"] == "TAINT-001"]
        self.assertGreaterEqual(len(hits), 2, findings)
        messages = " ".join(h["message"] for h in hits)
        self.assertIn(".reserve()", messages)
        self.assertIn("loop bound", messages)
        code_ok, findings_ok = run_analyze(
            fixture("batch", "taint001_decode_ok.cpp"))
        self.assertEqual(code_ok, 0,
                         f"guarded batch decode must be clean: {findings_ok}")

    def test_taint001_tracks_flows_across_tus(self):
        code, findings = run_analyze(fixture("analyze", "xtu"))
        self.assertEqual(code, 1, findings)
        hits = [f for f in findings if f["rule"] == "TAINT-001"]
        # Exactly the two BAD lines in wire_caller.cpp: the summary-reported
        # callee sink and the local sink fed by a tainted-returning callee.
        self.assertEqual(len(hits), 2, hits)
        messages = " ".join(h["message"] for h in hits)
        self.assertIn("fill_scratch", messages)   # sink-param summary
        self.assertIn("wire_helpers.cpp", messages)  # points into the other TU
        self.assertTrue(all("wire_caller.cpp" in h["file"] for h in hits),
                        hits)

    def test_taint002_fires_per_premature_mutation(self):
        hits = self.assert_triplet(
            "TAINT-002", os.path.join("itdos", "taint002_bad.cpp"),
            os.path.join("itdos", "taint002_ok.cpp"),
            os.path.join("itdos", "taint002_suppressed.cpp"), min_count=4)
        messages = " ".join(h["message"] for h in hits)
        for needle in ("last_sender_", "pending_", "seen_", "delivered_"):
            self.assertIn(f"`{needle}`", messages)

    def test_taint002_relay_drop_before_mac(self):
        # A primary drops a relayed copy of a request it already proposed
        # before any MAC work. Read-only lookups (find, contains) there are
        # fine; operator[] (which inserts) and insert() are not.
        code, findings = run_analyze(
            fixture("analyze", "itdos", "taint002_relay_bad.cpp"))
        self.assertEqual(code, 1, findings)
        hits = [f for f in findings if f["rule"] == "TAINT-002"]
        self.assertEqual(len(hits), 2, hits)
        messages = " ".join(h["message"] for h in hits)
        for needle in ("clients_", "relayed_"):
            self.assertIn(f"`{needle}`", messages)
        code_ok, findings_ok = run_analyze(
            fixture("analyze", "itdos", "taint002_relay_ok.cpp"))
        self.assertEqual(code_ok, 0,
                         f"read-only relay drop must be clean: {findings_ok}")

    def test_taint002_decided_drop_before_mac(self):
        # A replica drops a vote for an already-decided slot before its MAC
        # check. find_entry, find and contains there are fine; a subscript
        # of the log ring is not (it names the agreement log, which is
        # protocol state, not a logger).
        code, findings = run_analyze(
            fixture("analyze", "itdos", "taint002_decided_drop_bad.cpp"))
        self.assertEqual(code, 1, findings)
        hits = [f for f in findings if f["rule"] == "TAINT-002"]
        self.assertEqual(len(hits), 1, hits)
        self.assertIn("`log_`", hits[0]["message"])
        code_ok, findings_ok = run_analyze(
            fixture("analyze", "itdos", "taint002_decided_drop_ok.cpp"))
        self.assertEqual(code_ok, 0,
                         f"read-only decided-slot drop must be clean: {findings_ok}")

    def test_proto003_fires_with_and_without_default(self):
        hits = self.assert_triplet(
            "PROTO-003", "proto003_bad.cpp", "proto003_ok.cpp",
            "proto003_suppressed.cpp", min_count=2)
        messages = " ".join(h["message"] for h in hits)
        self.assertIn("kHeartbeat", messages)
        self.assertIn("`default:` label does not count", messages)

    def test_buf002_fires_per_escape_shape(self):
        hits = self.assert_triplet(
            "BUF-002", "buf002_bad.cpp", "buf002_ok.cpp",
            "buf002_suppressed.cpp", min_count=4)
        messages = " ".join(h["message"] for h in hits)
        for needle in ("`held_`", "`queue_`", "local `local`"):
            self.assertIn(needle, messages)

    def test_epoch001_fires_per_raw_relop(self):
        hits = self.assert_triplet(
            "EPOCH-001", "epoch001_bad.cpp", "epoch001_ok.cpp",
            "epoch001_suppressed.cpp", min_count=4)
        messages = " ".join(h["message"] for h in hits)
        for op in ("`<`", "`>`", "`<=`", "`>=`"):
            self.assertIn(op, messages)


class AnalyzerTreeAndCli(unittest.TestCase):
    def test_src_analyzes_clean_under_checked_in_baseline(self):
        code, findings = run_analyze(os.path.join(REPO, "src"),
                                     baseline=True)
        self.assertEqual(code, 0,
                         "src/ must stay analyzer-clean:\n" +
                         "\n".join(f"{f['file']}:{f['line']} {f['rule']} "
                                   f"{f['message']}" for f in findings))

    def test_with_lint_unifies_both_gates(self):
        # One invocation, both tools' rules: a lint-only fixture must fail
        # through the analyzer driver too.
        code, findings = run_analyze(fixture("det001_bad.cpp"), "--with-lint")
        self.assertEqual(code, 1)
        self.assertIn("DET-001", rules_of(findings))

    def test_unknown_rule_is_a_usage_error(self):
        code, _ = run_analyze(fixture("analyze", "proto003_ok.cpp"),
                              "--disable", "NOPE-999")
        self.assertEqual(code, 2)

    def test_list_rules_names_every_stable_id(self):
        proc = subprocess.run([sys.executable, ANALYZE, "--list-rules"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        for rule in ("TAINT-001", "TAINT-002", "PROTO-003", "BUF-002",
                     "EPOCH-001", "DET-001", "BUF-001"):
            self.assertIn(rule, proc.stdout)

    def test_sarif_artifact_is_well_formed(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            sarif_path = os.path.join(tmp, "out.sarif")
            code, _ = run_analyze(fixture("analyze", "epoch001_bad.cpp"),
                                  "--sarif", sarif_path)
            self.assertEqual(code, 1)
            with open(sarif_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.assertEqual(doc["version"], "2.1.0")
            run = doc["runs"][0]
            rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
            self.assertIn("EPOCH-001", rules)
            self.assertTrue(any(r["ruleId"] == "EPOCH-001"
                                for r in run["results"]))


class SuppressionsWork(unittest.TestCase):
    def test_explained_allows_silence_all_rules(self):
        code, findings = run_lint(fixture("suppressed.cpp"),
                                  "--no-trace-check")
        self.assertEqual(code, 0, f"allow() did not silence: {findings}")


class RealTreeIsClean(unittest.TestCase):
    def test_src_lints_clean(self):
        code, findings = run_lint(os.path.join(REPO, "src"))
        self.assertEqual(code, 0,
                         "src/ must stay lint-clean:\n" +
                         "\n".join(f"{f['file']}:{f['line']} {f['rule']} "
                                   f"{f['message']}" for f in findings))

    def test_real_trace_tables_are_in_sync(self):
        # TRACE-001 against the real telemetry tables, standalone.
        code, findings = run_lint(os.path.join(REPO, "src", "telemetry",
                                               "trace.cpp"))
        self.assertEqual(code, 0, findings)


class CliContract(unittest.TestCase):
    def test_unknown_rule_is_a_usage_error(self):
        code, _ = run_lint(fixture("suppressed.cpp"), "--disable", "NOPE-999")
        self.assertEqual(code, 2)

    def test_list_rules_names_every_stable_id(self):
        proc = subprocess.run([sys.executable, LINT, "--list-rules"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        for rule in ("DET-001", "DET-002", "PROTO-001", "PROTO-002",
                     "TRACE-001", "BUF-001", "META-001"):
            self.assertIn(rule, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
