#!/usr/bin/env python3
"""The ftmc performance benchmark.

One run builds the worker (perfbench/CMakeLists.txt, against the
repository's src/ tree), runs one workload in its own process, and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (a layer the workload does not reach reads 0) and
writes the run's spans to .bench_out/<workload>.trace.json.

Steadiness mode: run every workload (or the one named by --workload)
with seeds --seed .. --seed+N-1 and print each metric's median and
quartiles; --save keeps the values, --compare checks two saved sets
against the bounds of BENCHMARK.json.

    python3 perfbench/run.py --repeat 10 [--seed 1] [--save a.json]
    python3 perfbench/run.py --compare a.json b.json
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKER_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build_worker():
    """Configures (once) and builds the worker; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(out, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "--target", "perfbench_worker",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_worker")


def run_worker(worker, workload, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("FTMC_OBS", None)  # the worker switches counters itself
    cmd = [worker, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no report")
    return json.loads(lines[-1])


def result_line(config, report, trace):
    """The benchmark's output object: every metric of the run's kind,
    with its unit; the worker's own errors go to stderr."""
    correct = bool(report["correct"])
    for error in report.get("errors", []):
        log("check failed: " + error)
    measured = report["metrics"]
    wanted = config["per_layer"] if trace else config["end_to_end"]
    names = {m["name"] for m in wanted}
    for name in measured:
        if name not in names:
            log(f"worker reported unknown metric {name}")
            correct = False
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            if not trace:
                log(f"worker did not report {m['name']}")
                correct = False
            value = 0.0  # a layer this workload does not reach
        if not math.isfinite(value):
            log(f"{m['name']} is not finite")
            correct = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(config, args, worker):
    workloads = [w["name"] for w in config["workloads"]]
    if args.workload:
        workloads = [args.workload]
    saved = {}
    for workload in workloads:
        values = {m["name"]: [] for m in config["end_to_end"]}
        shares = []
        for seed in range(args.seed, args.seed + args.repeat):
            line = result_line(config, run_worker(
                worker, workload, seed, config["run_seconds"], 0), False)
            if not line["correct"]:
                log(f"{workload} seed {seed}: incorrect")
            shares.append([line["failed"], line["attempted"]])
            for name, m in line["metrics"].items():
                values[name].append(m["value"])
        saved[workload] = {"metrics": values, "failed": shares}
        print(f"{workload} ({args.repeat} seeds from {args.seed})")
        for m in config["end_to_end"]:
            q1, q2, q3 = quartiles(values[m["name"]])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            print(f"  {m['name']:<16} median {q2:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f} "
                  f"(bound {m['bound']}) {m['unit']}")
        print(f"  failed/attempted: {sorted({f / a for f, a in shares})}",
              flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


def compare(config, path_a, path_b):
    """Checks set B against set A: every spread (setup_s aside) within
    its bound, no median worse by more than its bound, and equal shares
    of failed operations."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for workload in a:
        for m in config["end_to_end"]:
            name, bound = m["name"], m["bound"]
            for label, run in (("A", a), ("B", b)):
                q1, q2, q3 = quartiles(run[workload]["metrics"][name])
                spread = (q3 - q1) / q2
                if name != "setup_s" and spread > bound:
                    ok = False
                    print(f"{workload} {name}: spread {spread:.3f} of set "
                          f"{label} exceeds {bound}")
            med_a = statistics.median(a[workload]["metrics"][name])
            med_b = statistics.median(b[workload]["metrics"][name])
            change = (med_b - med_a) / med_a
            worse = -change if m["better"] == "higher" else change
            status = "FAIL" if worse > bound else "ok"
            ok = ok and status == "ok"
            print(f"{workload:<13} {name:<16} {med_a:<12.6g} -> "
                  f"{med_b:<12.6g} {100 * change:+6.1f}% (bound "
                  f"{100 * bound:.0f}%) {status}")
        share_a = {f / n for f, n in a[workload]["failed"]}
        share_b = {f / n for f, n in b[workload]["failed"]}
        if share_a != share_b or len(share_a) != 1:
            ok = False
            print(f"{workload}: failed shares differ: {share_a} vs {share_b}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    try:
        config = load_config()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.compare:
        return compare(config, *args.compare)
    names = [w["name"] for w in config["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload}; choose from {names}")
        return 2
    if args.repeat is None and args.workload is None:
        log("--workload is required")
        return 2
    try:
        worker = build_worker()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.repeat:
        repeat(config, args, worker)
        return 0
    seconds = args.seconds if args.seconds else config["run_seconds"]
    try:
        report = run_worker(worker, args.workload, args.seed, seconds,
                            args.trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(f"{args.workload}: {e}")
        return 1
    print(json.dumps(result_line(config, report, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
