"""Run one workload in this process and print its raw measurements as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
            [--tasks K] [--trace-out FILE] [--setup-samples N] [--setup-only]

run.py starts a fresh worker for every measurement, so memory peaks and
import costs never carry over from another workload or pass.  The worker
imports ``christoffel`` from the ``src`` directory of the checkout it sits
in, runs the fixed warm-up tasks (set-up ends here), then runs the seeded
task list in a closed loop: one caller, one task at a time, each timed
from its first library call to its last.  It stops at the first round
boundary after the given seconds.  Output checks run between tasks and
are not timed.  Between rounds it can time fresh set-ups in child
processes, spread over the run.  Every timing is also reported at the reference
speed of speed.py.  After the loop it runs the workload's self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_TASKS = 100      # at least 10 samples beyond the 90th percentile
LOOP_LIMIT_S = 120   # keeps a whole run under its 180 s limit on a slowed-down build
CLI_CALL_LIMIT_S = 60


def import_library():
    sys.path.insert(0, SRC)
    import christoffel
    found = os.path.dirname(os.path.abspath(christoffel.__file__))
    if found != os.path.join(SRC, "christoffel"):
        raise SystemExit(f"imported christoffel from {found}, not from {SRC}")
    return christoffel


class CliRunner:
    """Runs ``christoffel`` commands through launcher.py, one process at a time."""

    def __init__(self, tracer=None, span_file=None):
        self.tracer = tracer
        self.span_file = span_file

    def call(self, argv):
        cmd = [sys.executable, os.path.join(HERE, "launcher.py")]
        if self.tracer is not None:
            cmd += ["--trace-out", self.span_file]
        proc = subprocess.run(cmd + ["--"] + argv, capture_output=True, text=True,
                              timeout=CLI_CALL_LIMIT_S)
        if self.tracer is not None and os.path.exists(self.span_file):
            with open(self.span_file) as f:
                self.tracer.merge(json.load(f), self.tracer.task)
            os.remove(self.span_file)
        return proc.returncode, proc.stdout


def run_task(workload, lib, task):
    """(start, end, error message or None) of one task; a failure never stops the run."""
    start = time.perf_counter()
    try:
        out = workload.run(lib, task)
    except Exception as exc:  # counted as a failed task
        return start, time.perf_counter(), f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    try:
        return start, end, workload.check(task, out)
    except Exception as exc:  # a check that cannot read the output fails the task
        return start, end, f"check raised {type(exc).__name__}: {exc}"


def setup_sample(workload) -> tuple[float, float, float]:
    """(start, end, set-up seconds) of one fresh process.

    For cli-session that is the wall time of an interpreter that imports
    ``christoffel.cli`` and exits; otherwise the import and warm-up time a
    fresh worker reports.
    """
    if workload.name == "cli-session":
        cmd = [sys.executable, os.path.join(HERE, "launcher.py")]
    else:
        cmd = [sys.executable, __file__, "--workload", workload.name, "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_CALL_LIMIT_S)
    end = time.perf_counter()
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
    if workload.name == "cli-session":
        return start, end, end - start
    return start, end, json.loads(proc.stdout)["setup_s"]


def self_test(workload, lib) -> list[dict]:
    """Each self-test task must pass its check, and fail it once corrupted."""
    results = []
    for task in workload.selftest:
        out = workload.run(lib, task)
        clean = workload.check(task, out)
        caught = workload.check(task, workload.corrupt(lib, task, out))
        results.append({"task": repr(task), "clean_error": clean, "corrupted_error": caught,
                        "passed": clean is None and caught is not None})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tasks", type=int, help="run exactly this many tasks")
    parser.add_argument("--trace-out", help="trace the run and write its spans here")
    parser.add_argument("--setup-samples", type=int, default=0,
                        help="time this many fresh set-ups, spread over the run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from speed import SpeedLog
    from tracer import Tracer
    from workloads import WORKLOADS, task_list_digest
    workload = WORKLOADS[args.workload]
    in_process = workload.name != "cli-session"

    start = time.perf_counter()
    lib = import_library() if in_process else None
    for task in workload.warmup:
        workload.run(lib, task)
    end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": end - start}))
        return 0
    speed = SpeedLog()
    speed.probe()
    setups = []

    tasks = workload.generate(args.seed)
    tracer = Tracer() if args.trace_out else None
    if not in_process:
        lib = CliRunner(tracer, args.trace_out and args.trace_out + ".child.json")
    elif tracer is not None:
        tracer.install()

    round_size = workload.round_size
    spans, failures = [], []
    loop_start = time.perf_counter()
    next_setup = 0.0
    while True:
        done = len(spans)
        now = time.perf_counter() - loop_start
        if done % round_size == 0 and len(setups) < args.setup_samples and now >= next_setup:
            setups.append(setup_sample(workload))
            next_setup += args.seconds / args.setup_samples
        if args.tasks is not None:
            if done >= args.tasks or now > LOOP_LIMIT_S:
                break
        elif (now >= args.seconds and done >= MIN_TASKS
              and done % round_size == 0) or now > LOOP_LIMIT_S:
            break
        if tracer is not None:
            tracer.task = done
        speed.probe_if_due()
        start, end, error = run_task(workload, lib, tasks[done % len(tasks)])
        spans.append((start, end))
        if error is not None:
            failures.append([done, error])
    speed.probe()
    loop_s = time.perf_counter() - loop_start
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mib = resource.getrusage(usage).ru_maxrss / 1024
    while len(setups) < args.setup_samples:
        setups.append(setup_sample(workload))
        speed.probe()

    result = {"digest": task_list_digest(tasks), "failures": failures, "loop_s": loop_s,
              "raw_latencies": [end - start for start, end in spans],
              "latencies": [speed.to_reference(end - start, start, end) for start, end in spans],
              "raw_setups": [seconds for _, _, seconds in setups],
              "setups": [speed.to_reference(s, start, end) for start, end, s in setups],
              "probe_s": sorted(speed.values)[len(speed.values) // 2],
              "peak_rss_mib": peak_rss_mib}
    if tracer is None:
        result["self_test"] = self_test(workload, lib)
    else:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer)
        tracer.dump(args.trace_out, {"workload": workload.name, "seed": args.seed,
                                     "tasks": len(spans)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
