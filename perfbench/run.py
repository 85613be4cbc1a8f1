#!/usr/bin/env python3
"""Builds and runs one workload of the usuba-cpp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
check that the build is current. The benchmark binary then runs the
workload, checks every output against the reference ciphers, and prints
the workload's parameters and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are exactly
those BENCHMARK.json names: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1. A per-layer metric of a layer the
workload's load does not reach reads 0; the line before the result
names those. With --trace 1 the spans the run recorded are written to
.bench_build/trace-<workload>.json.

Any failure to build or run exits non-zero without printing a result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("bulk_ctr", "svc_shared_key", "svc_own_keys")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, log, cwd=None):
    """Runs a build step, its output appended to log (never stdout)."""
    with open(log, "a") as out:
        proc = subprocess.run(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from the root of a checkout")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            run_checked(["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], log)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_checked(["cmake", "--build", build_dir, "-j", jobs], log)
    binary = os.path.join(build_dir, "usuba_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no usuba_perfbench")
    return binary


def bench_env(tmp_dir):
    """The environment the benchmark runs in: no USUBA_* variable (every
    knob is pinned in code anyway), the host compiler the JIT finds by
    default, and temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("USUBA_") and k != "CC"}
    os.makedirs(tmp_dir, exist_ok=True)
    env["TMPDIR"] = tmp_dir
    return env


def run_workload(binary, args, trace_out, env):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark and any host compiler it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with status {proc.returncode}")
    return out


def manifest_units(root, trace):
    """{name: unit} of the metrics BENCHMARK.json asks this run for."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        return {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metrics of BENCHMARK.json: {e}")


def check_result(text, units, trace):
    """Returns the binary's lines, the result line conformed to the
    manifest: every metric it names, in its unit, and no other."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")
    got = result["metrics"]
    for name, metric in got.items():
        if set(metric) != {"value", "unit"}:
            fail(f"metric {name} is malformed")
        if name in units and metric["unit"] != units[name]:
            fail(f"metric {name} is in {metric['unit']}, not {units[name]}")
    extra = sorted(set(got) - set(units))
    if extra:
        print(f"perfbench: not in BENCHMARK.json, left out: {extra}",
              file=sys.stderr)
    missing = [name for name in units if name not in got]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {missing}")
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in units.items()}
    lines[-1] = json.dumps(result)
    if trace:
        lines.insert(-1, json.dumps({"layers_not_reached": missing}))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    trace_out = os.path.join(root, ".bench_build",
                             f"trace-{args.workload}.json")
    units = manifest_units(root, args.trace)
    out = run_workload(binary, args, trace_out,
                       bench_env(os.path.join(root, ".bench_build", "tmp")))
    for line in check_result(out, units, args.trace):
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
