#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the engine from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

The run fails (non-zero exit, no result line) when the build fails, a
correctness check fails, a metric is missing or has the wrong unit, or a
deterministic count differs from an earlier run of the same seed and
arguments in this checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def parse_output(stdout):
    """Splits the binary's stdout into its tagged lines and the result."""
    tagged = {}
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("the workload printed nothing")
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag.startswith("PERFBENCH_"):
            tagged[tag] = json.loads(body)
    return tagged, json.loads(lines[-1])


def complete_metrics(result, not_measured, declared):
    """Adds the metrics the workload does not exercise (as 0) and checks
    that the names and units are exactly those BENCHMARK.json declares."""
    metrics = result["metrics"]
    for name in not_measured:
        if name in metrics:
            fail(f"metric {name} is both measured and not measured")
        if name not in declared:
            fail(f"unknown not-measured metric {name}")
        metrics[name] = {"value": 0, "unit": declared[name]}
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    for name, entry in metrics.items():
        if entry["unit"] != declared[name]:
            fail(f"metric {name} has unit {entry['unit']}, "
                 f"BENCHMARK.json says {declared[name]}")


def binary_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_determinism(record_dir, key, counts):
    """Compares the run's deterministic counts with the first run of the same
    binary, seed and arguments in this checkout, and records them if it is
    the first."""
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        diff = {k: (first[k], v) for k, v in counts.items()
                if k in first and first[k] != v}
        if diff:
            fail(f"determinism bug: counts differ from the first run of "
                 f"{key} (first, now): {diff}", code=4)
        first.update(counts)
        counts = first
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(counts, f, sort_keys=True)
    os.replace(tmp, path)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    binary = build(os.path.join(target_dir, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}", code=2)
    tagged, result = parse_output(done.stdout)

    meta = tagged.get("PERFBENCH_META", {})
    meta.update({"git_sha": git_sha(), "nproc": os.cpu_count(),
                 "wall_s": round(time.monotonic() - started, 3)})
    print("meta " + json.dumps(meta, sort_keys=True))
    complete_metrics(result, tagged.get("PERFBENCH_NOT_MEASURED", []),
                     declared)
    for name in sorted(result["metrics"]):
        entry = result["metrics"][name]
        print(f"{name} = {entry['value']} {entry['unit']}")

    key = (f"{args.workload}-seed{args.seed}-s{args.seconds:g}-"
           f"{binary_digest(binary)}")
    check_determinism(os.path.join(target_dir, "perfbench-determinism"), key,
                      tagged.get("PERFBENCH_DETERMINISTIC", {}))

    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True or result["attempted"] < 1:
        fail("malformed result line")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
