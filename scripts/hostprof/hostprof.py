#!/usr/bin/env python3
"""Sampling host profiler: run a command under hostprof.c, then report.

gprof misses time inside libc and libstdc++ (memcpy, malloc, vector growth)
and splits a callee's time among its callers by call count; perf and
valgrind are not always installed. This tool needs only a C compiler and
binutils' nm. The LD_PRELOAD shim (hostprof.c, next to this file) samples
the whole call stack every millisecond of CPU time; this script maps each
address to a symbol through the saved /proc/self/maps and `nm`, and prints:

  self        the share of samples whose innermost frame is each symbol;
  inclusive   the share of samples with each symbol anywhere on the stack;
  libc leaf by first app caller
              samples whose innermost frame is in a shared library (libc,
              libstdc++, libm), charged to the first frame in the profiled
              executable above it, so a `memcpy` or `malloc` is seen under
              the code that asked for it;
  groups      the inclusive share of the CDR codec, crypto, the BFT layer
              and the simulator core;
  under R     for --under R, the frames between a frame matching R and the
              leaf (what R's time is spent in), e.g. vector growth beneath
              cdr::Encoder or malloc beneath Envelope::decode;
  callers R   for --callers R, the first frame in the profiled executable
              above the innermost frame matching R that does not match R
              itself (who R's time is spent for), e.g. which code paths
              reach malloc or a std::map search.

Samples with `calibration_kernel_ns` on the stack are excluded from every
share: the perfbench times that kernel around each repetition and it is not
ITDOS code. Each list shows its top --top N entries (25 by default).

Symbols come from `nm`, so a function the compiler inlined is charged to
the function it was inlined into. Build with -g and pass --inline to expand
inlined frames through `addr2line -i` instead.

Allocation mode: `run --alloc N` builds the shim to interpose malloc and
record the stack of every Nth call instead of sampling CPU time. Each
sample then stands for N heap allocations (the report says so), its leaf
is `malloc`, and every list reads the same way: `--callers '^malloc'`
names the code that allocates, `--under` what it allocates through. A
count per operation is samples * N divided by the operations run. The
shim holds 4M words (about 130k stacks); past that it drops samples and
says how many at exit, so keep allocation runs short (small_serial at
N = 16: `--seconds 1`).

Profiling the perfbench, one command per workload. Build the benchmark once
(`python3 perfbench/run.py --workload small_serial --seed 5 --seconds 1`
builds into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench), then
run its binary directly, so that cmake and the compiler are not profiled:

  B=.bench_build/perfbench/itdos_perfbench
  scripts/hostprof/hostprof.py run --out prof_small -- \\
      $B --workload small_serial --seed 5 --seconds 20 --trace 0
  scripts/hostprof/hostprof.py run --out prof_large -- \\
      $B --workload large_serial --seed 5 --seconds 20 --trace 0
  scripts/hostprof/hostprof.py run --out prof_batched -- \\
      $B --workload batched_open --seed 5 --seconds 20 --trace 0
  scripts/hostprof/hostprof.py run --out prof_crash -- \\
      $B --workload primary_crash --seed 5 --seconds 20 --trace 0

`run` builds the shim into --out, runs the command there with LD_PRELOAD
set, and reports. `report DIR` reports again on a finished run, with other
options, e.g.:

  scripts/hostprof/hostprof.py report prof_small \\
      --under 'cdr::Encoder::' --under 'Envelope::decode'
  scripts/hostprof/hostprof.py report prof_small --top 10 --callers '^malloc'
  scripts/hostprof/hostprof.py run --alloc 16 --out alloc_small -- \\
      $B --workload small_serial --seed 5 --seconds 1 --trace 0
"""

import argparse
import bisect
import collections
import glob
import os
import re
import shutil
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

EXCLUDE = r"calibration_kernel_ns"
GROUPS = [
    ("cdr codec", r"itdos::cdr::(Encoder|Decoder)::"),
    ("crypto", r"itdos::crypto::"),
    ("bft", r"itdos::bft::"),
    ("simulator", r"itdos::net::"),
]


ALLOC_FILE = "hostprof.alloc"  # in a run directory: N of an allocation run


def build_shim(out_dir, alloc_every):
    """Compiles hostprof.c into `out_dir` (sampling every `alloc_every`th
    malloc when non-zero, CPU time otherwise); returns the shared object
    path."""
    shim = os.path.join(out_dir, "hostprof.so")
    cc = os.environ.get("CC") or shutil.which("cc") or "gcc"
    subprocess.run([cc, "-shared", "-fPIC", "-O2", "-DHOSTPROF_ALLOC_EVERY=%d" % alloc_every,
                    "-o", shim, os.path.join(HERE, "hostprof.c")], check=True)
    return shim


class Symbols:
    """Address -> symbol for one mapped ELF file, through nm."""

    def __init__(self, path):
        self.path = path
        self.relative = self._is_shared(path)
        self.starts, self.ends, self.names = [], [], []
        entries = self._nm(path, dynamic=False) or self._nm(path, dynamic=True)
        entries.sort()
        for start, size, name in entries:
            self.starts.append(start)
            self.ends.append(start + size if size else None)
            self.names.append(name)

    @staticmethod
    def _is_shared(path):
        try:
            with open(path, "rb") as f:
                header = f.read(18)
        except OSError:
            return True
        # e_type: ET_EXEC (2) is linked at its run-time addresses; ET_DYN
        # (3: shared objects and PIE executables) is relative to its base.
        return len(header) < 18 or struct.unpack_from("<H", header, 16)[0] != 2

    @staticmethod
    def _nm(path, dynamic):
        cmd = ["nm", "-n", "-S", "-C", "--defined-only"] + (["-D"] if dynamic else []) + [path]
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True).stdout
        except OSError:
            return []
        entries = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "TtWwi":
                entries.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
            elif len(parts) == 3 and parts[1] in "TtWwi":
                entries.append((int(parts[0], 16), 0, parts[2]))
        return entries

    def lookup(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0 and (self.ends[i] is None or vaddr < self.ends[i]):
            return self.names[i]
        return None


class Maps:
    """The profiled process's mappings, from its saved /proc/self/maps."""

    def __init__(self, maps_path):
        self.ranges = []  # (start, end, path)
        self.base = {}  # path -> lowest mapped address (its load base)
        with open(maps_path) as f:
            for line in f:
                parts = line.split(None, 5)
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in parts[0].split("-"))
                path = parts[5].strip()
                self.ranges.append((start, end, path))
                if int(parts[2], 16) == 0:
                    self.base[path] = min(self.base.get(path, start), start)
        self.ranges.sort()
        self.starts = [r[0] for r in self.ranges]
        self.symbols = {}

    def file_of(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.ranges[i][1]:
            return self.ranges[i][2]
        return None

    def symbolize(self, addr):
        path = self.file_of(addr)
        if path is None:
            return None, "[unknown 0x%x]" % addr
        syms = self.symbols.get(path)
        if syms is None:
            syms = self.symbols[path] = Symbols(path)
        vaddr = addr - self.base.get(path, 0) if syms.relative else addr
        name = syms.lookup(vaddr)
        return path, name or "%s+0x%x" % (os.path.basename(path), vaddr)


def expand_inline(maps, stacks):
    """Replaces each frame of the profiled executable with its inline chain
    (addr2line -i), innermost first, when the executable has debug info."""
    exe_addrs = collections.defaultdict(set)
    for stack in stacks:
        for path, _, addr in stack:
            if path is not None and not is_library(path):
                exe_addrs[path].add(addr)
    chains = {}
    for path, addrs in exe_addrs.items():
        offset = maps.base.get(path, 0) if Symbols._is_shared(path) else 0
        order = sorted(addrs)
        query = "\n".join("%x" % (a - offset) for a in order)
        # -a prints each queried address before its (function, file:line)
        # pairs: one pair, or one per inlined level.
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path], input=query,
                             stdout=subprocess.PIPE, text=True).stdout.splitlines()
        names, pair_half = None, 0
        it = iter(order)
        for line in out:
            if line.startswith("0x") and pair_half == 0:
                names = chains[(path, next(it))] = []
            elif names is not None:
                if pair_half == 0 and line != "??":
                    names.append(line)
                pair_half ^= 1  # function lines alternate with file:line
    expanded = []
    for stack in stacks:
        frames = []
        for path, name, addr in stack:
            chain = chains.get((path, addr))
            if chain:
                frames.extend((path, n, addr) for n in chain)
            else:
                frames.append((path, name, addr))
        expanded.append(frames)
    return expanded


def load_run(directory, use_inline):
    """Every (pid) profile in `directory` as symbolized stacks, innermost
    frame first, with the profiler's own handler frames removed."""
    stacks = []
    for samples_path in sorted(glob.glob(os.path.join(directory, "hostprof.*.samples"))):
        maps = Maps(samples_path[: -len("samples")] + "maps")
        with open(samples_path, "rb") as f:
            data = f.read()
        words = struct.unpack("<%dQ" % (len(data) // 8), data[: len(data) // 8 * 8])
        pos = 0
        raw = []
        while pos < len(words) and words[pos] != 0:
            n = words[pos]
            raw.append(words[pos + 1: pos + 1 + n])
            pos += 1 + n
        run_stacks = []
        for frames in raw:
            # Drop the handler (in the shim) and the signal trampoline below
            # it; the next frame is the interrupted pc, and every frame after
            # it is a return address, looked up one byte back so a call at
            # the end of a function is charged to that function.
            i = 0
            while i < len(frames) and (maps.file_of(frames[i]) or "").endswith("hostprof.so"):
                i += 1
            i += 1
            stack = []
            for k, addr in enumerate(frames[i:]):
                lookup = addr if k == 0 else addr - 1
                path, name = maps.symbolize(lookup)
                stack.append((path, name, lookup))
            if stack:
                run_stacks.append(stack)
        if use_inline:
            run_stacks = expand_inline(maps, run_stacks)
        stacks.extend(run_stacks)
    return stacks


def is_library(path):
    return path is not None and (path.endswith(".so") or ".so." in path)


def pct(n, total):
    return 100.0 * n / total if total else 0.0


def report(directory, args):
    stacks = load_run(directory, args.inline)
    if not stacks:
        print("hostprof: no samples under %s" % directory, file=sys.stderr)
        return 1
    exclude = re.compile(EXCLUDE)
    kept = [s for s in stacks if not any(exclude.search(name) for _, name, _ in s)]
    total = len(kept)
    print("# hostprof: %d samples, %d excluded (/%s/), %d counted"
          % (len(stacks), len(stacks) - total, EXCLUDE, total))
    alloc_path = os.path.join(directory, ALLOC_FILE)
    if os.path.exists(alloc_path):
        with open(alloc_path) as f:
            every = int(f.read())
        print("# allocation samples: one per %d mallocs, about %d counted mallocs"
              % (every, every * total))

    self_counts = collections.Counter(s[0][1] for s in kept)
    incl_counts = collections.Counter()
    for s in kept:
        incl_counts.update({name for _, name, _ in s})

    print("\n## self (innermost frame)")
    for name, n in self_counts.most_common(args.top):
        print("%6.2f%%  %s" % (pct(n, total), name))

    print("\n## inclusive (anywhere on the stack)")
    for name, n in incl_counts.most_common(args.top):
        print("%6.2f%%  %s" % (pct(n, total), name))

    print("\n## libc leaf by first app caller")
    leaf_callers = collections.Counter()
    for s in kept:
        if not is_library(s[0][0]):
            continue
        caller = next((name for path, name, _ in s if not is_library(path)), "[none]")
        leaf_callers[(s[0][1], caller)] += 1
    for (leaf, caller), n in leaf_callers.most_common(args.top):
        print("%6.2f%%  %s  <-  %s" % (pct(n, total), leaf, caller))

    print("\n## groups (inclusive)")
    for label, pattern in GROUPS:
        rx = re.compile(pattern)
        n = sum(1 for s in kept if any(rx.search(name) for _, name, _ in s))
        print("%6.2f%%  %s  /%s/" % (pct(n, total), label, pattern))

    for pattern in args.under:
        rx = re.compile(pattern)
        below = collections.Counter()
        hits = 0
        for s in kept:
            idx = next((i for i, (_, name, _) in enumerate(s) if rx.search(name)), None)
            if idx is None:
                continue
            hits += 1
            below.update({name for _, name, _ in s[:idx]} or {"[self]"})
        print("\n## under /%s/: %d samples (%.2f%%); frames between it and the leaf"
              % (pattern, hits, pct(hits, total)))
        for name, n in below.most_common(args.top):
            print("%6.2f%%  %s" % (pct(n, total), name))

    for pattern in args.callers:
        rx = re.compile(pattern)
        callers = collections.Counter()
        hits = 0
        for s in kept:
            idx = next((i for i, (_, name, _) in enumerate(s) if rx.search(name)), None)
            if idx is None:
                continue
            hits += 1
            callers[next((name for path, name, _ in s[idx + 1:]
                          if not is_library(path) and not rx.search(name)), "[none]")] += 1
        print("\n## callers of /%s/: %d samples (%.2f%%); first app frame above it"
              % (pattern, hits, pct(hits, total)))
        for name, n in callers.most_common(args.top):
            print("%6.2f%%  %s" % (pct(n, total), name))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run_p = sub.add_parser("run", help="profile a command, then report")
    run_p.add_argument("--out", required=True, help="directory for the shim and the profile")
    run_p.add_argument("--alloc", type=int, default=0, metavar="N",
                       help="sample the stack of every Nth malloc instead of CPU time")
    report_p = sub.add_parser("report", help="report on a finished run")
    report_p.add_argument("dir")
    for p in (run_p, report_p):
        p.add_argument("--under", action="append", default=[], metavar="REGEX")
        p.add_argument("--callers", action="append", default=[], metavar="REGEX",
                       help="list the first app frames above a frame matching REGEX")
        p.add_argument("--top", type=int, default=25, metavar="N",
                       help="entries per list (default 25)")
        p.add_argument("--inline", action="store_true",
                       help="expand inlined frames with addr2line (needs -g)")
    args, command = parser.parse_known_args()
    if args.top < 1:
        parser.error("--top must be at least 1")
    if args.mode == "run" and args.alloc < 0:
        parser.error("--alloc must not be negative")

    if args.mode == "report":
        return report(args.dir, args)

    if command and command[0] == "--":
        command = command[1:]
    if not command:
        parser.error("run needs a command after --")
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    for old in glob.glob(os.path.join(out, "hostprof.*.*")) + [os.path.join(out, ALLOC_FILE)]:
        if os.path.exists(old):
            os.remove(old)
    shim = build_shim(out, args.alloc)
    if args.alloc > 0:
        with open(os.path.join(out, ALLOC_FILE), "w") as f:
            f.write("%d\n" % args.alloc)
    command[0] = os.path.abspath(command[0]) if os.path.exists(command[0]) else command[0]
    env = dict(os.environ, LD_PRELOAD=shim)
    proc = subprocess.run(command, cwd=out, env=env)
    if proc.returncode != 0:
        print("hostprof: command exited with %d" % proc.returncode, file=sys.stderr)
    return report(out, args)


if __name__ == "__main__":
    sys.exit(main())
