#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Builds dra-server and the benchmark client from this checkout's sources
(into .bench_build/perfbench), runs the client, checks that its result
line has exactly the metrics BENCHMARK.json names, and prints that line
last on stdout. Everything else goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "compile-cold", "serve-churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the client and dra-server."""
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "dra-server", "-j", str(min(4, os.cpu_count() or 1))])
    with open(logpath, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed")
                return False
    return True


def expected_metrics(trace):
    """(name -> unit) of the metrics a result line must carry."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses and checks one result line; returns (result, problem)."""
    try:
        res = json.loads(line)
    except ValueError:
        return None, "result line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are not correct, attempted, failed, metrics"
    if not isinstance(res["correct"], bool):
        return None, "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            return None, f"{k} is not a whole number"
    if res["attempted"] < 1:
        return None, "nothing was attempted"
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return None, f"metric names differ: missing {missing}, extra {extra}"
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want[name]:
            return None, f"{name}: unit {m.get('unit')} != {want[name]}"
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            return None, f"{name}: value is not a finite number"
    return res, None


def pin_to_one_cpu():
    """Pins this process, and so the client and server it spawns, to the
    lowest CPU it may use. On a shared VM a request that hops between
    vCPUs waits for the host to wake the idle one; that wait swung
    serve-hot throughput threefold between identical runs. On one CPU the
    two connections and two workers still interleave, time-sliced."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def stop_group(proc):
    """Kills whatever is left of the client's process group and waits
    until all of it has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_client(bdir, workload, seed, seconds, trace, smoke=False):
    """Runs the client once; returns its checked result or None."""
    work = os.path.relpath(os.path.join(bdir, f"work-{os.getpid()}"), ROOT)
    cmd = [os.path.join(bdir, "perfbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={1 if trace else 0}",
           "--server-bin=" + os.path.join(bdir, "dra_tools", "dra-server"),
           f"--work-dir={work}",
           "--pinned=" + os.path.join(HERE, "pinned.json")]
    if smoke:
        cmd.append("--smoke")
    # The client and the servers it spawns share a new process group, so
    # nothing outlives the run even if the client dies.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    stop_group(proc)
    if out is None:
        log(f"{workload}: client timed out")
        return None
    if proc.returncode != 0:
        log(f"{workload}: client exited with {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    res, problem = check_result(lines[-1] if lines else "", trace)
    if problem:
        log(f"{workload}: {problem}")
        return None
    return res


def smoke(bdir):
    """All three workloads and their traced runs at toy size."""
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            res = run_client(bdir, w, 1, 1, trace, smoke=True)
            good = res is not None and res["correct"] and res["failed"] == 0
            log(f"smoke {w} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload and traced run at toy size")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bdir = build_dir()
    if not build(bdir):
        return 1
    pin_to_one_cpu()
    if args.smoke:
        return 0 if smoke(bdir) else 1
    res = run_client(bdir, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if res is None:
        return 1
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
