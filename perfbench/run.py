"""Benchmark of the christoffel package: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout; it uses that checkout's ``src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass and the tracing overhead.  The last
line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS, task_list_digest  # noqa: E402

CHILD_LIMIT_S = 170
SETUP_SAMPLES = 9


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          timeout=CHILD_LIMIT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(name: str, *extra: str) -> dict:
    return child([os.path.join(HERE, "worker.py"), "--workload", name, *extra])


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above its rank."""
    rank = math.ceil(0.9 * len(values))
    return sorted(values)[rank - 1], len(values) - rank


def provenance(seed: int) -> dict:
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    is_repo = git("rev-parse", "--show-toplevel") == ROOT
    status = git("status", "--porcelain") if is_repo else None
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model or platform.processor() or "unknown", "seed": seed,
            "git_commit": git("rev-parse", "HEAD") if is_repo else None,
            "git_dirty": None if status is None else bool(status)}


def check_failures(label: str, result: dict, lines: list[str]) -> int:
    for index, message in result["failures"][:10]:
        lines.append(f"FAILED {label} task {index}: {message}")
    return len(result["failures"])


def run(args) -> tuple[dict, list[str]]:
    workload = WORKLOADS[args.workload]
    tasks = workload.generate(args.seed)
    digest = task_list_digest(tasks)
    deterministic = digest == task_list_digest(workload.generate(args.seed))
    lines = [f"workload {args.workload}, seed {args.seed}, task list {digest} "
             f"({len(tasks)} tasks, regenerated identically: {deterministic})"]
    prov = provenance(args.seed)

    if not args.trace:
        main = worker(args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--setup-samples", str(SETUP_SAMPLES))
        lat, setups = main["latencies"], main["setups"]
        failed = check_failures("", main, lines)
        attempted = len(lat)
        p90_value, beyond = p90(lat)
        metrics = {
            "tasks_per_s": ((attempted - failed) / sum(lat), "1/s"),
            "task_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "task_p90_ms": (p90_value * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "success_rate": ((attempted - failed) / attempted, "fraction"),
            "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
        }
        prov["samples"] = {"task_p50_ms": attempted, "task_p90_ms": attempted,
                           "beyond_p90": beyond, "setup_s": len(setups)}
        for entry in main["self_test"]:
            lines.append(f"self-test {entry['task']}: clean output "
                         f"{'accepted' if entry['clean_error'] is None else 'REJECTED'}; "
                         f"corrupted output rejected: {entry['corrupted_error']}")
        self_test_ok = all(entry["passed"] for entry in main["self_test"])
        digests = {digest, main["digest"]}
        raw = main["raw_latencies"]
        lines.append(f"{attempted} tasks in {main['loop_s']:.2f} s, {failed} failed; "
                     f"median calibration probe {main['probe_s'] * 1e3:.4f} ms")
        lines.append(f"measured seconds, not scaled to the reference speed: "
                     f"timed {sum(raw):.3f} s, task p50 {statistics.median(raw) * 1e3:.4f} ms, "
                     f"p90 {p90(raw)[0] * 1e3:.4f} ms, set-up {statistics.median(main['raw_setups']):.4f} s")
    else:
        os.makedirs(OUT, exist_ok=True)
        trace_file = os.path.join(OUT, f"trace-{args.workload}.bin")
        plain = worker(args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds / 2))
        traced = worker(args.workload, "--seed", str(args.seed),
                        "--tasks", str(len(plain["latencies"])), "--trace-out", trace_file)
        failed = (check_failures("untraced", plain, lines)
                  + check_failures("traced", traced, lines))
        attempted = len(plain["latencies"]) + len(traced["latencies"])
        count = len(traced["latencies"])
        untraced_s = sum(plain["latencies"][:count])
        overhead_s = sum(traced["latencies"]) - untraced_s
        metrics = {name: (traced["layers"].get(name, 0), unit) for name, unit in metric_names()}
        metrics["trace.overhead_s"] = (overhead_s, "s")
        metrics["trace.overhead_frac"] = (overhead_s / untraced_s, "fraction")
        prov["samples"] = {"traced_tasks": count, "spans": traced["spans"]}
        self_test_ok = True
        digests = {digest, plain["digest"], traced["digest"]}
        lines.append(f"traced {count} tasks: {traced['spans']} spans written to "
                     f"{os.path.relpath(trace_file, ROOT)}; untraced {untraced_s:.3f} s, "
                     f"traced {untraced_s + overhead_s:.3f} s")

    for name, (value, unit) in metrics.items():
        if not args.trace or not name.endswith(".calls") or value:
            lines.append(f"  {name:48s} {value:.6g} {unit}")
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    correct = deterministic and len(digests) == 1 and failed == 0 and self_test_ok
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}, lines


def self_test_all() -> bool:
    ok = True
    for name in WORKLOADS:
        for entry in worker(name, "--tasks", "0")["self_test"]:
            ok = ok and entry["passed"]
            print(f"{name} {entry['task']}: clean -> {entry['clean_error']}; "
                  f"corrupted -> {entry['corrupted_error']}")
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only show that each workload's check rejects a corrupted output")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "christoffel", "__init__.py")):
        print(f"no christoffel sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(ROOT, "src", "christoffel")], check=True,
                       capture_output=True, timeout=CHILD_LIMIT_S)
        if args.self_test:
            return 0 if self_test_all() else 1
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run(args)
    except (BenchmarkError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
