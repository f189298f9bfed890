#!/usr/bin/env python3
"""Wall-clock benchmark of the scd library: build, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke [--seed <n>]

The first call builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build
output goes to standard error.

--trace 0 runs the named workload in its own process for about --seconds
seconds of timed work and prints its end-to-end metrics. --trace 1 prints
the per-layer ledger: each of the four workloads runs its traced ledger in
its own process, and the metrics are named <workload>.<layer>.<metric>.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--smoke runs every workload and every ledger at tiny sizes, checks
included, in a few seconds; it exercises the benchmark's own code.

While a measured run goes, one SCHED_IDLE spinner per usable CPU keeps
the CPUs from halting (see keep_awake()).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fit_threads", "proc_dense", "proc_sparse", "serve_refresh"]
# Wall-clock limit of one invocation; the traced run's four ledgers share it.
DEADLINE_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


# One spinner: pinned to a CPU, at SCHED_IDLE, until its parent is gone
# or its lifetime ends.
SPINNER = """
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent, end = os.getppid(), time.monotonic() + float(sys.argv[2])
while os.getppid() == parent and time.monotonic() < end:
    for _ in range(20000):
        pass
"""


def keep_awake():
    """Start one SCHED_IDLE busy loop per usable CPU; returns them.

    The benchmark's threads and processes hand work to each other
    thousands of times a second and sleep in between. On a virtual
    machine a CPU with nothing to run halts, and waking it again waits
    for the host to schedule it: on a busy host that wait took the proc
    workloads to 2.6x their time and showed as up to 18% steal. A
    SCHED_IDLE task runs only when nothing else wants its CPU and gives
    way at once to any task that wakes there, so the CPUs stay running
    and a wake-up costs what it costs the guest alone. The spinners are
    not children of the measured process, so they are not in its CPU
    time or peak RSS.
    """
    spinners = []
    for cpu in sorted(os.sched_getaffinity(0)):
        spinners.append(subprocess.Popen(
            [sys.executable, "-c", SPINNER, str(cpu), str(DEADLINE_S + 5)]))
    return spinners


def stop(spinners):
    for spinner in spinners:
        spinner.kill()
    for spinner in spinners:
        spinner.wait()


def run_binary(binary, args, deadline):
    """Run one benchmark process; echo its tables, return its result.

    The process gets its own process group, so a run that overstays the
    deadline is killed together with any worker processes it forked. It
    stays in this session: a new session is a new scheduler autogroup,
    and the spinners' autogroup would then get a fair share of the CPUs
    against it, SCHED_IDLE or not.
    """
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(args)} exceeded the {DEADLINE_S} s limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result from {' '.join(args)}")
    return result


def merge(results):
    """Sum operation counts of several results; prefix their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, result in results:
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if not opts.smoke and opts.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    spinners = [] if opts.smoke else keep_awake()
    try:
        result = run(binary, opts)
    finally:
        stop(spinners)
    print(json.dumps(result))


def run(binary, opts):
    """Run the mode `opts` asks for; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--seed", str(opts.seed)]
    if opts.smoke:
        results = []
        for workload in WORKLOADS:
            for extra in ([], ["--ledger"]):
                label = workload + (".ledger" if extra else "")
                results.append((label, run_binary(
                    binary, ["--workload", workload, "--seconds", "0",
                             "--smoke"] + common + extra, deadline)))
        result = merge(results)
    elif opts.trace == 1:
        result = merge([(w, run_binary(binary, ["--workload", w, "--ledger"]
                                       + common, deadline))
                        for w in WORKLOADS])
    else:
        result = run_binary(binary, ["--workload", opts.workload,
                                     "--seconds", str(opts.seconds)] + common,
                            deadline)
    return result


if __name__ == "__main__":
    main()
