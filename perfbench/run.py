#!/usr/bin/env python3
"""The AsyncG benchmark: builds the program from source, runs one workload,
checks its outputs and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload live-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --selftest              # the benchmark's own tests

Run it from the root of a checkout. The build lives in .bench_build/ and
every file a run writes stays under it. The workloads and the metrics with
their units come from BENCHMARK.json; each workload's frozen parameters
and each metric's notes from perfbench/spec.json, which must name the same
workloads and metrics. The last line is one JSON object with the keys
correct, attempted, failed and metrics; it holds the end-to-end metrics
with --trace 0 and the per-layer metrics with --trace 1.
Any output mismatch (warning set, merged DOT, a failed request) makes the
run incorrect and the exit code 1.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "run")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json plus perfbench/spec.json; raises ValueError when the
    two do not name the same workloads and metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if sorted(workloads) != sorted(spec["workloads"]):
        raise ValueError("workloads differ from BENCHMARK.json")
    if sorted(metrics) != sorted(spec["metrics"]):
        raise ValueError("metrics differ from BENCHMARK.json: %s" % ", ".join(
            sorted(set(metrics) ^ set(spec["metrics"]))))
    return {
        "workloads": workloads,
        "workload_spec": {w: spec["workloads"][w] for w in workloads},
        "end_to_end": bench["end_to_end"],
        "per_layer": bench["per_layer"],
    }


def build(targets):
    """Configures (once) and builds the given targets; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no AsyncG sources next to perfbench/ (missing src/)")
        return False
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def binary(name):
    return os.path.join(BUILD_DIR, name)


def fingerprint(spec, workload):
    """Host facts recorded with every result."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = {}
    try:
        out = subprocess.run([binary("agbench"), "--probe"], capture_output=True,
                             text=True, timeout=30).stdout
        probe = json.loads(out.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError, subprocess.TimeoutExpired):
        pass
    w = spec["workload_spec"].get(workload, {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel_release": platform.release(),
        "build_type": BUILD_TYPE + " (assertions on)",
        "io_uring_probe": probe.get("uring", {}),
        "workload": workload,
        "threads": w.get("threads"),
        "connections": w.get("connections"),
    }


def read_expected(workload):
    with open(os.path.join(HERE, "expected", workload + ".txt")) as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, correct)."""
    w = spec["workload_spec"][workload]
    workdir = os.path.join(WORK_DIR, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary("agbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    for key, value in w["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % workload)
        return None, False
    finally:
        # Trace files are large and only needed inside the run.
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("run.py: %s printed no result (exit %d)" % (workload, proc.returncode))
        return None, False

    correct = proc.returncode == 0 and not out["problems"]
    failed = out["failed"]
    expected = read_expected(workload)
    if out["warnings"] != expected:
        correct = False
        failed += 1
        log("run.py: %s warning set differs from perfbench/expected/%s.txt"
            % (workload, workload))
        for line in sorted(set(expected) ^ set(out["warnings"])):
            log("  %s %s" % ("-" if line in expected else "+", line))
    metrics = dict(out["metrics"])
    attempted = max(1, out["attempted"])
    if trace:
        metrics["bench.error_rate"] = failed / attempted
    missing = [n for n in units if n not in metrics]
    if missing:
        correct = False
        log("run.py: %s did not report %s" % (workload, ", ".join(missing)))
    if failed:
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items() if n in metrics},
    }
    return {"result": result, "info": out["info"],
            "warnings": out["warnings"]}, correct


def print_table(workload, res):
    print("== %s (error_rate %.3g, %d attempted)" % (
        workload, res["result"]["failed"] / res["result"]["attempted"],
        res["result"]["attempted"]))
    for name, m in res["result"]["metrics"].items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  info: " + json.dumps(res["info"], sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build(["agbench_selftest"]):
            return 2
        return subprocess.run([binary("agbench_selftest")]).returncode

    if not args.workload:
        ap.error("--workload is required")
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("run.py: cannot read BENCHMARK.json and perfbench/spec.json: %s"
            % e)
        return 2
    workloads = spec["workloads"] if args.workload == "all" else [args.workload]
    unknown = [w for w in workloads if w not in spec["workload_spec"]]
    if unknown:
        log("run.py: unknown workload %s" % ", ".join(unknown))
        return 2
    if not build(["agbench"]):
        return 2

    print("host: " + json.dumps(fingerprint(spec, args.workload),
                                sort_keys=True), flush=True)
    ok = True
    last = None
    for workload in workloads:
        res, correct = run_workload(spec, workload, args.seed, args.seconds,
                                    args.trace)
        if res is None:
            return 1
        print_table(workload, res)
        ok = ok and correct
        last = res["result"]
    if len(workloads) == 1:
        print(json.dumps(last), flush=True)
    else:
        print(json.dumps({"correct": ok}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
