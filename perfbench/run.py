#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0

The program (perfbench/main.cc and the workload files next to it) is
compiled with CMake into the build directory (`$CARGO_TARGET_DIR`, else
`.bench_build`), then run once. Its last stdout line carries every metric
value; this script keeps the ones BENCHMARK.json lists -- the end-to-end
metrics for `--trace 0`, the per-layer metrics for `--trace 1` -- prints
them with unit and direction, and ends with the one-line JSON result:

    {"correct": true, "attempted": 264, "failed": 0, "metrics": {...}}

`failed` counts jobs whose output did not match its reference, out of
`attempted` jobs. Counters the program marks exact must also repeat bit for
bit across runs of the same seed and binary; the values of each seed are
kept under the build directory and compared on every later run.

Exit codes: 0 result correct, 1 result printed but not correct, 2 build
or set-up failure (no result), 3 timeout (no result).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 170  # the whole run, build excluded
BUILD_LIMIT_S = 800


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_LIMIT_S)
            except subprocess.TimeoutExpired:
                fail(3, "build timed out")
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(cmake_dir, ignore_errors=True)
                fail(2, "build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_exact_repeats(build_dir, binary, workload, seed, record):
    """Compares this run's exact counters with an earlier run of the same
    seed and binary; returns the names that differ."""
    exact = {name: record["values"][name] for name in record["exact"]}
    key = {"binary": sha256(binary), "workload": workload, "seed": seed}
    path = os.path.join(build_dir, "exact", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier["key"] == key:
            return sorted(name for name, value in exact.items()
                          if name in earlier["exact"]
                          and earlier["exact"][name] != value)
    with open(path, "w") as f:
        json.dump({"key": key, "exact": exact}, f)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="corrupt one reference to show the checks fire")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(build_dir, "work", f"{run_name}-{os.getpid()}")
    os.makedirs(workdir)
    trace_path = os.path.join(build_dir, "traces", f"{run_name}.trace.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-out", trace_path]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"run exceeded {RUN_LIMIT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(2, f"benchmark program exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    errors = []
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(record["values"]) - known)
    if unknown:
        errors.append("metrics missing from BENCHMARK.json: " +
                      ", ".join(unknown))
    metrics = {}
    for m in wanted:
        if m["name"] in record["values"]:
            value = record["values"][m["name"]]  # null when not finite
        else:
            # A per-layer metric of a layer this workload never calls.
            value = None if "bound" in m else 0.0
        if value is None or not math.isfinite(value) or (
                "bound" in m and value <= 0):
            errors.append(f"metric {m['name']} missing, not finite or, "
                          f"end to end, not positive: {value}")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    varied = check_exact_repeats(build_dir, binary, args.workload, args.seed,
                                 record)
    if varied:
        errors.append("exact counters differ from an earlier run of this "
                      "seed: " + ", ".join(varied))
    if record["exact_mismatches"]:
        errors.append("exact counters varied between passes")
    if done.returncode != 0 or record["failed"]:
        errors.append(f"{record['failed']} of {record['attempted']} job "
                      f"outputs failed their check (exit code "
                      f"{done.returncode})")
    for e in errors:
        print(f"perfbench: ERROR: {e}", file=sys.stderr)

    arrow = {"lower": "↓", "higher": "↑"}
    print(f"\n{args.workload}, seed {args.seed}, "
          f"{'per-layer (traced)' if args.trace else 'end-to-end'} metrics:")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {arrow[m['better']]} {m['name']:<26} "
                  f"{metrics[m['name']]['value']:>16.6g} {m['unit']}")
    context = dict(record["context"], workload=args.workload,
                   wall_s=round(time.monotonic() - started, 3))
    print("context: " + json.dumps(context, sort_keys=True))
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{run_name}.json"), "w") as f:
        json.dump(dict(record, context=context, errors=errors), f, indent=1)

    result = {"correct": not errors, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if not errors else 1)


if __name__ == "__main__":
    main()
