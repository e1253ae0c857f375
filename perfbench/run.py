#!/usr/bin/env python3
"""Build the nga libraries and the benchmark driver, then run one workload.

    python3 perfbench/run.py --workload kws_overload --seed 1 --seconds 40 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; the first run configures and compiles, later
runs rebuild only what changed. Before every workload the benchmark's own
statistics are self-tested, and after it the printed metrics are checked
against BENCHMARK.json. The last stdout line is the driver's JSON result;
the exit code is non-zero when the build, the self-test, an output check or
the schema check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "kws_bench", "perfbench_selftest"], BUILD_TIMEOUT_S)


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def schema_errors(result, trace):
    """Names/units the result lacks or adds against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    errors = [f"missing {k}" for k in want if k not in got]
    errors += [f"unexpected {k}" for k in got if k not in want]
    errors += [f"{k}: unit {got[k]} != {u}" for k, u in want.items()
               if k in got and got[k] != u]
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kws_overload", "kws_offline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    if not run_quiet([os.path.join(build_dir, "perfbench_selftest")], 60):
        log("self-test failed")
        return 1

    trace_dir = os.path.join(ROOT, target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "kws_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"no result line (exit code {proc.returncode})")
        return 1
    errors = schema_errors(result, args.trace)
    if errors:
        log("metrics do not match BENCHMARK.json: " + "; ".join(errors))
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
