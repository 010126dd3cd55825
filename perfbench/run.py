#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs
one workload (or all of them), checking the result against
BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload epoch-256 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 7 --seconds 20          # every workload
    python3 perfbench/run.py --self-test                     # arithmetic tests

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is non-zero
when a correctness check failed or the run could not be made.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def newest_source():
    """Newest modification time among the sources the binary is built from."""
    newest = 0.0
    for top in (HERE, os.path.join(ROOT, "src")):
        for dirpath, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cc", ".h", ".txt")):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the netpack sources (src/) are missing; run from a repository checkout")
    out = build_dir()
    binary = os.path.join(out, target)
    if os.path.isfile(binary) and os.path.getmtime(binary) >= newest_source():
        return binary
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", BUILD_JOBS])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build failed: " + " ".join(step))
    if not os.path.isfile(binary):
        die(f"build produced no {target}")
    return binary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Run one workload; returns (result dict, ok)."""
    work = os.path.join(build_dir(), f"work-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        die(f"{workload} failed (exit code {done.returncode})")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        die(f"{workload} reported undeclared metrics: {', '.join(unknown)}")
    metrics = {}
    for name, unit in units.items():
        if name in measured:
            if measured[name]["unit"] != unit:
                die(f"{name}: unit {measured[name]['unit']} != declared {unit}")
            value = measured[name]["value"]
        elif trace:
            value = 0  # the layer is not exercised by this workload
        else:
            die(f"{workload} did not report {name}")
        metrics[name] = {"value": value, "unit": unit}
    for problem in raw["problems"]:
        print(f"correctness check failed: {problem}", file=sys.stderr)
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    return result, result["correct"] and result["attempted"] >= 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's arithmetic self-test")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        die("--seconds must be positive")
    binary = build("perfbench")

    if args.workload is not None:
        result, ok = run_workload(binary, spec, args.workload, args.seed,
                                  seconds, args.trace)
        print(json.dumps(result))
        sys.exit(0 if ok else 1)

    summary = {}
    all_ok = True
    for name in names:
        print(f"== {name}")
        result, ok = run_workload(binary, spec, name, args.seed, seconds, args.trace)
        print(json.dumps(result))
        summary[name] = result
        all_ok = all_ok and ok
    print(json.dumps({"correct": all_ok, "workloads": summary}))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
