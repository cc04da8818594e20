#!/usr/bin/env python3
"""perfbench: the gpuwmm end-to-end benchmark (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RECORD_A RECORD_B

The first form builds gpuwmm and the benchmark from source into
.bench_build/perfbench (incremental after the first run), runs one
workload and prints its table; the last line of standard output is the
result as one JSON object. Each run also writes a result record to
.bench_build/perfbench-results/ and says whether it is comparable with the
previous record of the same workload and mode. The second form compares
two records metric by metric, or reports them as not comparable when their
host fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"

# A run measures for --seconds, then finishes its last repetition and the
# identity repetition; this bounds the whole benchmark process.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# setup_s is the median over this many fresh set-up processes.
SETUP_PROCESSES = 16

# Fingerprint fields that must match for two records to be comparable.
# Seed and commit differ between the runs one compares on purpose.
COMPARABLE_FIELDS = ("nproc", "compiler", "build_type", "jobs", "batch")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail("no gpuwmm sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in %s); run from a full checkout" % ROOT, 2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        left = max(1.0, deadline - time.monotonic())
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=left)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench"


def time_setups(cmd, count):
    """Wall times of fresh benchmark processes that do only the
    per-process set-up (start, pool and per-thread warm-up, store or corpus
    open) and exit."""
    times = []
    for _ in range(count):
        # No timeout: with one, subprocess polls for the exit in growing
        # sleeps, which quantises these few-millisecond times.
        start = time.perf_counter()
        done = subprocess.run(cmd + ["--setup-only", "1"],
                              stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail("set-up failed with status %d" % done.returncode)
    return times


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.decode().strip() or "unknown"


def source_digest():
    """A digest of the sources the benchmark builds: identifies the code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def comparability(a, b):
    """The fingerprint fields in which records a and b differ."""
    fa, fb = a["fingerprint"], b["fingerprint"]
    return [f for f in COMPARABLE_FIELDS if fa.get(f) != fb.get(f)]


def load_record(path):
    with open(path) as f:
        return json.load(f)


def compare(path_a, path_b):
    a, b = load_record(path_a), load_record(path_b)
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("not comparable: different workloads or modes")
        return 3
    diff = comparability(a, b)
    if diff:
        print("not comparable: fingerprints differ in " + ", ".join(
            "%s (%s vs %s)" % (f, a["fingerprint"].get(f),
                               b["fingerprint"].get(f)) for f in diff))
        return 3
    print("%-34s %16s %16s %9s  unit" % ("metric", "A", "B", "B/A-1"))
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = "%+8.2f%%" % (100 * (vb / va - 1)) if va else "     n/a"
        print("%-34s %16.6g %16.6g %9s  %s" % (name, va, vb, change,
                                               ma["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    mode = "%s-trace%s" % (args.workload, args.trace)
    previous = sorted(RESULTS_DIR.glob(mode + "-*.json"))
    record = RESULTS_DIR / ("%s-%d-seed%d.json" % (mode, time.time_ns(),
                                                   args.seed))
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--work-dir", str(WORK_DIR), "--record", str(record),
           "--commit", commit_id(), "--source-digest", source_digest()]
    # setup_s samples half its processes before the run and half after,
    # so one slow spell on a shared host sways the median less.
    setups = time_setups(cmd, SETUP_PROCESSES // 2) if args.trace == "0" \
        else []
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail("benchmark exited with status %d" % done.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setups:
        setups += time_setups(cmd, SETUP_PROCESSES - len(setups))
        setup_s = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print("  %-34s %18.6f s  (median of %d fresh processes)" % (
            "setup_s", setup_s, SETUP_PROCESSES))
        if record.is_file():
            saved = load_record(record)
            saved["metrics"]["setup_s"] = result["metrics"]["setup_s"]
            with open(record, "w") as f:
                json.dump(saved, f, indent=1)
    if previous and record.is_file():
        diff = comparability(load_record(previous[-1]), load_record(record))
        print("record %s: %s previous record %s" % (
            record.name,
            "not comparable (fingerprints differ in %s) with" % ", ".join(diff)
            if diff else "comparable with", previous[-1].name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
