#!/usr/bin/env python3
"""Builds and runs the cold/warm pipeline benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload cold_cctld --seed 7 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
simulator from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. The simulator's worker count is pinned to
min(4, available cores).

Every measured step runs in a fresh process, so its peak RSS is that
process's VmHWM and no step inherits another's heap:

  cold_cctld, cold_root: cold builds, each into a fresh cache directory and
      followed by one checked warm replay pass, until --seconds have passed;
      metrics are medians over builds.
  warm_replay: one cold build fills the cache (the set-up), then one
      process replays it for --seconds.
  --trace 1: one traced process reports the per-layer metrics.

The last line of stdout is the JSON result. --selftest runs every
workload, untraced and traced, twice at reduced scale (CLOUDDNS_QUERIES)
and checks that the deterministic counts ("[det]" lines: allocation counts,
layer counters, digests) repeat exactly.
"""
import argparse
import contextlib
import fcntl
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_cctld", "cold_root", "warm_replay")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        jobs = str(len(os.sched_getaffinity(0)))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


class StepFailed(Exception):
    pass


def run_step(binary, step, workload, seed, scratch, deadline, seconds=None,
             extra_env=None):
    """Runs one benchmark step; echoes its output, returns its JSON."""
    env = dict(os.environ)
    env["CLOUDDNS_THREADS"] = str(min(4, len(os.sched_getaffinity(0))))
    env.update(extra_env or {})
    cmd = [binary, "--step", step, "--workload", workload, "--seed",
           str(seed), "--scratch", scratch]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise StepFailed(f"step {step} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    print(f"[step] {step}: {lines[-1]}")
    return json.loads(lines[-1])


def run_workload(binary, workload, seed, seconds, trace, extra_env=None):
    """Runs one workload; returns the result object."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    root = tempfile.mkdtemp(prefix="run-", dir=build_root())
    try:
        def step(name, scratch, step_seconds=None):
            return run_step(binary, name, workload, seed, scratch, deadline,
                            step_seconds, extra_env)

        if trace:
            return step("trace", root)
        if workload == "warm_replay":
            fill = step("fill", root)
            replay = step("replay", root, seconds)
            steps = [fill, replay]
            metrics = {
                "setup_s": fill["metrics"]["wall_s"],
                "allocs_per_client_query":
                    fill["metrics"]["allocs_per_client_query"],
                "peak_rss_mb": replay["metrics"]["peak_rss_mb"],
            }
        else:
            steps = []
            start = time.monotonic()
            while not steps or time.monotonic() - start < seconds:
                scratch = os.path.join(root, f"build{len(steps)}")
                steps.append(step("build", scratch))
                shutil.rmtree(scratch, ignore_errors=True)

            def median(name):
                values = [s["metrics"][name]["value"] for s in steps]
                return {"value": statistics.median(values),
                        "unit": steps[0]["metrics"][name]["unit"]}

            metrics = {name: median(name) for name in
                       ("setup_s", "allocs_per_client_query", "peak_rss_mb")}
            qps = median("cold_client_qps")["value"]
            print(f"[cold] {len(steps)} builds, median {qps:.0f} client "
                  "queries/s (wall clock)")
        return {
            "correct": all(s["correct"] for s in steps),
            "attempted": sum(s["attempted"] for s in steps),
            "failed": sum(s["failed"] for s in steps),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def det_lines(output):
    return sorted({line for line in output.splitlines()
                   if line.startswith("[det]")})


def selftest(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            outputs = []
            for attempt in range(2):
                start = time.monotonic()
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured):
                    result = run_workload(binary, workload, 20201027, 1,
                                          trace, {"CLOUDDNS_QUERIES": "20000"})
                elapsed = time.monotonic() - start
                det = det_lines(captured.getvalue())
                log(f"[selftest] {workload} trace={trace} run {attempt}: "
                    f"{elapsed:.1f}s, attempted {result['attempted']}, "
                    f"failed {result['failed']}, {len(det)} deterministic "
                    "lines")
                if not result["correct"] or result["failed"] != 0:
                    failures += 1
                outputs.append(det)
            if not outputs[0] or outputs[0] != outputs[1]:
                failures += 1
                log(f"[selftest] {workload} trace={trace}: deterministic "
                    "counts differ between two runs")
                for line in sorted(set(outputs[0]) ^ set(outputs[1])):
                    log(f"  {line}")
    log(f"[selftest] {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20201027)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    try:
        if args.selftest:
            return selftest(binary)
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    except (StepFailed, subprocess.TimeoutExpired) as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
