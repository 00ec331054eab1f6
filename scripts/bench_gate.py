#!/usr/bin/env python3
"""Perf gate: compare net.delivery_delay_ns tails against a saved baseline.

For every BENCH_<name>.json in the current run that carries a
net.delivery_delay_ns histogram, compare p95/p99 against the same report in
the baseline directory. A tail that grew beyond --tolerance (relative) is a
regression: warn by default, fail with --strict.

Additionally, any report carrying a recovery.mttr_ns histogram (the e10
recovery bench) is gated against an ABSOLUTE ceiling: mean time to repair is
measured in deterministic simulated time, so its max must stay inside the
recovery watchdog deadline regardless of host speed.

Reports that carry buffer copy accounting alongside an op counter (the e9
large-message bench exports buf.copies / buf.bytes_copied and e9.ops) get an
ADVISORY copies-per-op check: the zero-copy message path budgets a fixed
number of counted copies per invocation, and a jump past --copies-per-op
means an owning-buffer copy crept back in. Advisory means warn-only unless
--strict.

Reports that carry offered-load curves (the e11 bench exports a "curves"
block of latency-vs-offered-load points) get an ADVISORY p99 ceiling at a
named offered rate: --p99-ceiling-at-load RATE:NS requires that at RATE
requests/s at least one recorded configuration (curve) holds its p99
latency under NS simulated nanoseconds — i.e. the system, with its best
available response configuration, can still sustain that load. Curves
without a point at exactly RATE are skipped.

Reports whose curves are named "shards_<n>" (the e12 sharded-bank bench)
get an ADVISORY horizontal-scaling floor: at the top offered rate the two
curve families share, the largest shard count's goodput must be at least
--min-shard-goodput-scaling times the single-shard goodput. The single
domain saturating its admission bound while four domains absorb the same
stream IS the sharding claim; a ratio collapse means routing stopped
spreading the key mix.

Reports with batch_<n> curves (the e1 batch-size x pipeline-depth sweep)
get an ADVISORY batched-speedup floor: the best batched+pipelined goodput
must be at least --min-batch-speedup times the single-slot baseline
(batch_1 at depth 1). A collapse means batch formation quietly stopped
coalescing (or pipelining stopped overlapping agreement instances).

usage: bench_gate.py --baseline DIR [--strict] [--tolerance 0.25]
                     [--mttr-ceiling-ns N] [--copies-per-op N]
                     [--p99-ceiling-at-load RATE:NS]
                     [--min-shard-goodput-scaling X]
                     [--min-batch-speedup X] BENCH_*.json

Exit status: 0 OK (or warnings without --strict), 1 regression under
--strict, 2 usage error. Missing baseline files are never an error — first
runs simply seed the baseline.
"""

import argparse
import json
import os
import sys

HISTOGRAM = "net.delivery_delay_ns"
PERCENTILES = ("p95", "p99")

# Recovery MTTR (simulated ns) must stay inside the fault oracle's recovery
# budget — watchdog deadline (2s) x max attempts (3) + retry backoff (100ms)
# x 2 — the bound past which the oracle calls a recovery_deadline violation.
# A repair that needs a watchdog retry is still legal; one that outlives the
# budget is not.
MTTR_HISTOGRAM = "recovery.mttr_ns"
DEFAULT_MTTR_CEILING_NS = 6_200_000_000

# Advisory zero-copy budget: counted copies per e9 invocation. The converted
# message path makes a bounded number of explicit copies per call (unseal
# output, and read_raw/read_into sites for small fixed fields such as MAC
# tags and digests in per-packet decode); the e9 sweep measures ~80 such
# copies per invocation averaged over its payload ladder, since every
# request is one ordered entry (~1050 when large requests were fragmented
# and gathered). A by-value buffer parameter regressing back into the
# per-hop path multiplies the figure.
COPIES_COUNTER = "buf.copies"
BYTES_COPIED_COUNTER = "buf.bytes_copied"
OPS_COUNTER = "e9.ops"
DEFAULT_COPIES_PER_OP = 1500


# Advisory offered-load ceiling: at this offered rate (requests/s), the best
# configuration's p99 must stay under this many simulated nanoseconds. The
# default pins the e11 sweep's pre-knee rate with generous headroom over the
# controller-on curve.
DEFAULT_P99_AT_LOAD = "1600:50000000"

# Advisory sharding floor: goodput at the top shared rate, largest shard
# count vs one shard. The e12 ladder tops out past the single-domain knee,
# where measured scaling is ~4.5x; 2.0 leaves room for admission-tuning
# drift while still catching a routing layer that stopped fanning out.
DEFAULT_SHARD_SCALING = 2.0

# Advisory batching floor: reports with batch_<n> curves (the e1 batch-size
# x pipeline-depth sweep) must show the best batched+pipelined goodput at
# least this many times the single-slot baseline (batch_1 at depth 1). The
# measured sweep peaks >10x; 2.0 catches a formation layer that silently
# stopped coalescing without flapping on scheduler noise.
DEFAULT_BATCH_SPEEDUP = 2.0


def parse_rate_spec(spec):
    """Parses "RATE:NS" into (float, int); raises ValueError on junk."""
    rate_text, _, ns_text = spec.partition(":")
    if not ns_text:
        raise ValueError(f"expected RATE:NS, got {spec!r}")
    return float(rate_text), int(ns_text)


def check_p99_at_load(path, rate, ceiling_ns):
    """Returns (checked, violation_message_or_None) for one report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return False, None
    curves = report.get("curves")
    if not curves:
        return False, None
    # "Best configuration wins": the claim gated here is that the system CAN
    # sustain the rate, not that every (deliberately crippled) configuration
    # does — the controller-off curve collapsing past the knee is the point.
    best_curve, best_p99 = None, None
    for name, points in sorted(curves.items()):
        for point in points:
            if point.get("rate_per_s") != rate:
                continue
            p99 = point.get("p99_ns", 0)
            if best_p99 is None or p99 < best_p99:
                best_curve, best_p99 = name, p99
    if best_p99 is None:
        return False, None
    status = "VIOLATION" if best_p99 > ceiling_ns else "ok"
    print(f"  {os.path.basename(path)} p99@{rate:g}req/s: {best_p99} ns "
          f"[{best_curve}] (ceiling {ceiling_ns} ns, {status})")
    if best_p99 > ceiling_ns:
        return True, (f"{os.path.basename(path)} best p99 at {rate:g} req/s "
                      f"is {best_p99} ns [{best_curve}], advisory ceiling "
                      f"{ceiling_ns} ns")
    return True, None


def check_shard_scaling(path, floor):
    """Returns (checked, violation_message_or_None) for one report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return False, None
    shard_curves = {}
    for name, points in (report.get("curves") or {}).items():
        prefix, _, count_text = name.partition("_")
        if prefix != "shards" or not count_text.isdigit() or not points:
            continue
        shard_curves[int(count_text)] = {p["rate_per_s"]: p.get("goodput_per_s", 0.0)
                                         for p in points}
    if len(shard_curves) < 2:
        return False, None
    low, high = min(shard_curves), max(shard_curves)
    shared_rates = set(shard_curves[low]) & set(shard_curves[high])
    if not shared_rates:
        return False, None
    top_rate = max(shared_rates)
    base = shard_curves[low][top_rate]
    scaled = shard_curves[high][top_rate]
    ratio = scaled / base if base > 0 else float("inf")
    status = "VIOLATION" if ratio < floor else "ok"
    print(f"  {os.path.basename(path)} goodput@{top_rate:g}req/s: "
          f"shards_{low}={base:.0f}/s -> shards_{high}={scaled:.0f}/s "
          f"({ratio:.2f}x, floor {floor:g}x, {status})")
    if ratio < floor:
        return True, (f"{os.path.basename(path)} goodput scaled only "
                      f"{ratio:.2f}x from {low} to {high} shards at "
                      f"{top_rate:g} req/s (advisory floor {floor:g}x)")
    return True, None


def check_batch_speedup(path, floor):
    """Returns (checked, violation_message_or_None) for one report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return False, None
    batch_curves = {}
    for name, points in (report.get("curves") or {}).items():
        prefix, _, count_text = name.partition("_")
        if prefix != "batch" or not count_text.isdigit() or not points:
            continue
        batch_curves[int(count_text)] = points
    if 1 not in batch_curves or len(batch_curves) < 2:
        return False, None
    # Single-slot baseline: no formation, depth-1 clients (rate_per_s keys
    # the pipeline depth on these curves).
    baseline = next((p.get("goodput_per_s", 0.0) for p in batch_curves[1]
                     if p.get("rate_per_s") == 1), 0.0)
    if baseline <= 0:
        return False, None
    best_goodput, best_label = 0.0, None
    for entries, points in sorted(batch_curves.items()):
        if entries == 1:
            continue
        for point in points:
            goodput = point.get("goodput_per_s", 0.0)
            if goodput > best_goodput:
                best_goodput = goodput
                best_label = f"batch_{entries}@depth{point.get('rate_per_s'):g}"
    ratio = best_goodput / baseline
    status = "VIOLATION" if ratio < floor else "ok"
    print(f"  {os.path.basename(path)} batched goodput: {best_goodput:.0f}/s "
          f"[{best_label}] vs single-slot {baseline:.0f}/s "
          f"({ratio:.2f}x, floor {floor:g}x, {status})")
    if ratio < floor:
        return True, (f"{os.path.basename(path)} batched+pipelined goodput "
                      f"is only {ratio:.2f}x the single-slot baseline "
                      f"(advisory floor {floor:g}x)")
    return True, None


def check_copies_per_op(path, ceiling):
    """Returns (checked, violation_message_or_None) for one report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return False, None
    counters = report.get("counters", {})
    copies = counters.get(COPIES_COUNTER)
    ops = counters.get(OPS_COUNTER)
    if copies is None or not ops:
        return False, None
    per_op = copies / ops
    per_op_bytes = counters.get(BYTES_COPIED_COUNTER, 0) / ops
    status = "VIOLATION" if per_op > ceiling else "ok"
    print(f"  {os.path.basename(path)} {COPIES_COUNTER}/op: {per_op:.1f} "
          f"({per_op_bytes:.0f} bytes/op, ceiling {ceiling}, {status})")
    if per_op > ceiling:
        return True, (f"{os.path.basename(path)} makes {per_op:.1f} counted "
                      f"buffer copies per op (advisory ceiling {ceiling})")
    return True, None


def check_mttr(path, ceiling_ns):
    """Returns (checked, violation_message_or_None) for one report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return False, None
    hist = report.get("histograms", {}).get(MTTR_HISTOGRAM)
    if not hist:
        return False, None
    worst = hist["max"]
    print(f"  {os.path.basename(path)} {MTTR_HISTOGRAM}.max: {worst} ns "
          f"(ceiling {ceiling_ns} ns, "
          f"{'VIOLATION' if worst > ceiling_ns else 'ok'})")
    if worst > ceiling_ns:
        return True, (f"{os.path.basename(path)} {MTTR_HISTOGRAM}.max "
                      f"{worst} ns exceeds ceiling {ceiling_ns} ns")
    return True, None


def load_tail(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench_gate: cannot parse {path}: {exc}", file=sys.stderr)
        return None
    hist = report.get("histograms", {}).get(HISTOGRAM)
    if not hist:
        return None
    return {p: hist[p] for p in PERCENTILES}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory holding previous BENCH_*.json")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero on regression instead of warning")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative growth (default 0.25 = +25%%)")
    parser.add_argument("--mttr-ceiling-ns", type=int,
                        default=DEFAULT_MTTR_CEILING_NS,
                        help="absolute ceiling on recovery.mttr_ns max "
                             "(simulated ns; default: the 2s watchdog "
                             "deadline)")
    parser.add_argument("--copies-per-op", type=float,
                        default=DEFAULT_COPIES_PER_OP,
                        help="advisory ceiling on counted buffer copies per "
                             "benchmark op (reports with buf.copies + "
                             "e9.ops counters)")
    parser.add_argument("--p99-ceiling-at-load", default=DEFAULT_P99_AT_LOAD,
                        metavar="RATE:NS",
                        help="advisory ceiling on the best curve's p99 "
                             "latency at RATE requests/s (reports with a "
                             "curves block)")
    parser.add_argument("--min-shard-goodput-scaling", type=float,
                        default=DEFAULT_SHARD_SCALING, metavar="X",
                        help="advisory floor on goodput scaling from the "
                             "smallest to the largest shard count (reports "
                             "with shards_<n> curves)")
    parser.add_argument("--min-batch-speedup", type=float,
                        default=DEFAULT_BATCH_SPEEDUP, metavar="X",
                        help="advisory floor on best batched+pipelined "
                             "goodput vs the single-slot baseline (reports "
                             "with batch_<n> curves)")
    parser.add_argument("reports", nargs="+")
    args = parser.parse_args()
    try:
        load_rate, load_ceiling_ns = parse_rate_spec(args.p99_ceiling_at_load)
    except ValueError as exc:
        print(f"bench_gate: bad --p99-ceiling-at-load: {exc}", file=sys.stderr)
        return 2

    mttr_failures = []
    mttr_checked = 0
    for path in args.reports:
        checked, violation = check_mttr(path, args.mttr_ceiling_ns)
        mttr_checked += checked
        if violation:
            mttr_failures.append(violation)
    if mttr_failures:
        for message in mttr_failures:
            print(f"bench_gate FAIL: {message}", file=sys.stderr)
        # MTTR is deterministic simulated time: a breach is a hard failure
        # even without --strict.
        return 1
    if mttr_checked:
        print(f"bench_gate: {mttr_checked} MTTR report(s) within the "
              f"{args.mttr_ceiling_ns} ns ceiling")

    copy_warnings = []
    copies_checked = 0
    for path in args.reports:
        checked, violation = check_copies_per_op(path, args.copies_per_op)
        copies_checked += checked
        if violation:
            copy_warnings.append(violation)
    if copy_warnings:
        verb = "FAIL" if args.strict else "WARN"
        for message in copy_warnings:
            print(f"bench_gate {verb}: {message}", file=sys.stderr)
        if args.strict:
            return 1
    elif copies_checked:
        print(f"bench_gate: {copies_checked} report(s) within the "
              f"{args.copies_per_op} copies/op advisory ceiling")

    load_warnings = []
    load_checked = 0
    for path in args.reports:
        checked, violation = check_p99_at_load(path, load_rate,
                                               load_ceiling_ns)
        load_checked += checked
        if violation:
            load_warnings.append(violation)
    if load_warnings:
        verb = "FAIL" if args.strict else "WARN"
        for message in load_warnings:
            print(f"bench_gate {verb}: {message}", file=sys.stderr)
        if args.strict:
            return 1
    elif load_checked:
        print(f"bench_gate: {load_checked} report(s) within the p99 ceiling "
              f"at {load_rate:g} req/s")

    shard_warnings = []
    shards_checked = 0
    for path in args.reports:
        checked, violation = check_shard_scaling(
            path, args.min_shard_goodput_scaling)
        shards_checked += checked
        if violation:
            shard_warnings.append(violation)
    if shard_warnings:
        verb = "FAIL" if args.strict else "WARN"
        for message in shard_warnings:
            print(f"bench_gate {verb}: {message}", file=sys.stderr)
        if args.strict:
            return 1
    elif shards_checked:
        print(f"bench_gate: {shards_checked} report(s) above the "
              f"{args.min_shard_goodput_scaling:g}x shard-scaling floor")

    batch_warnings = []
    batch_checked = 0
    for path in args.reports:
        checked, violation = check_batch_speedup(path, args.min_batch_speedup)
        batch_checked += checked
        if violation:
            batch_warnings.append(violation)
    if batch_warnings:
        verb = "FAIL" if args.strict else "WARN"
        for message in batch_warnings:
            print(f"bench_gate {verb}: {message}", file=sys.stderr)
        if args.strict:
            return 1
    elif batch_checked:
        print(f"bench_gate: {batch_checked} report(s) above the "
              f"{args.min_batch_speedup:g}x batched-speedup floor")

    regressions = []
    compared = 0
    for path in args.reports:
        current = load_tail(path)
        if current is None:
            continue
        base_path = os.path.join(args.baseline, os.path.basename(path))
        if not os.path.isfile(base_path):
            print(f"bench_gate: no baseline for {os.path.basename(path)} "
                  "(seeding)")
            continue
        baseline = load_tail(base_path)
        if baseline is None:
            continue
        compared += 1
        for pct in PERCENTILES:
            before, after = baseline[pct], current[pct]
            limit = before * (1.0 + args.tolerance)
            status = "REGRESSION" if after > limit and before > 0 else "ok"
            print(f"  {os.path.basename(path)} {HISTOGRAM}.{pct}: "
                  f"{before} -> {after} ns ({status})")
            if status == "REGRESSION":
                regressions.append((os.path.basename(path), pct, before,
                                    after))

    if regressions:
        verb = "FAIL" if args.strict else "WARN"
        for name, pct, before, after in regressions:
            growth = (after - before) / before * 100.0
            print(f"bench_gate {verb}: {name} {HISTOGRAM}.{pct} grew "
                  f"{growth:.0f}% ({before} -> {after} ns, tolerance "
                  f"+{args.tolerance * 100:.0f}%)", file=sys.stderr)
        if args.strict:
            return 1
    elif compared:
        print(f"bench_gate: {compared} report(s) within "
              f"+{args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
