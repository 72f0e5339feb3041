"""Paired comparison of two checkouts with the unchanged benchmark.

    python3 tools/bench_compare.py --base REF [--change REF] --number NN --tag TAG
        --workload W [--workload W ...] [--pairs P] [--seed S] [--seconds T]
        [--trace] [--tier1 K] [--claim W] [--claim-metric M] [--description TEXT]
        [--out-dir DIR]

The base ref and the change (another ref, or by default the working tree
with its untracked files) are checked out with ``git worktree`` in a
temporary directory.  Each checkout's own ``perfbench/run.py`` runs
unchanged, in P alternating pairs per workload: pair k runs the base
first when k is even.  ``--trace`` adds one traced pair per workload,
``--tier1 K`` times the tier-1 suite K times in each checkout.

The result goes to ``BENCH_<NN>_<TAG>.json`` (stdlib only, the schema of
``BENCH_10_minors.json``): every run, and per workload the median and
quartiles of each end-to-end metric on each side, the change's wins and
ratios on the claimed metric (``--claim-metric``, by default
``tasks_per_s``), the claim rule, and per traced function the median
over the traced pairs of its calls and self time per call.  A win, a
ratio above 1 and the claim rule all follow the metric's ``better``
direction in ``BENCHMARK.json``.  Runs on a seed other than the claimed
one are summarized under ``"<workload> (seed <S>)"``.
If the file exists, the new runs are added to it (same base commit) and
the summary is computed again from all runs.  A file holds one claim:
``--claim`` on another workload, seed or metric than the file's exits
with status 2 and leaves the file as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s", "success_rate",
           "peak_rss_mib")
with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    # End-to-end metric -> "higher" or "lower", the direction that is better.
    BETTER = {m["name"]: m["better"] for m in json.load(_f)["end_to_end"]}
SIDES = ("parent", "change")
RULE = ("change wins >= 9 of 10 pairs and its median beats the parent's by more "
        "than the parent's interquartile range")
# The tier-1 suite; the cache plugin is off so the checkout stays clean.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
RUN_LIMIT_S = 900


def git(*args: str, cwd: str = REPO) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def add_worktree(dest: str, ref: str | None) -> None:
    """Check ref out at dest; with ref None, HEAD overlaid with the working
    tree: every tracked or untracked, not ignored file as it is on disk."""
    git("worktree", "add", "--detach", dest, ref or "HEAD")
    if ref is not None:
        return
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for path in filter(None, listed.split("\0")):
        source, target = os.path.join(REPO, path), os.path.join(dest, path)
        if os.path.lexists(source):
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)
        elif os.path.lexists(target):
            os.remove(target)


def bench_run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in the checkout at tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    return {"wall_s": round(wall, 2), "provenance": provenance,
            "result": json.loads(lines[-1])}


def tier1_run(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=RUN_LIMIT_S)
    wall = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 2), "summary": last.strip("= ")}


def run_pair(runs: list[dict], trees: dict, workload: str, seed: int, seconds: float,
             trace: int, pair: int) -> None:
    """Both sides once; the parent runs first in even pairs."""
    order = SIDES if pair % 2 == 0 else SIDES[::-1]
    for side in order:
        run = bench_run(trees[side], workload, seed, seconds, trace)
        runs.append({"workload": workload, "seed": seed, "seconds": seconds, "pair": pair,
                     "side": side, "first": order[0], "trace": trace, **run})
        value = run["result"]["metrics"].get("tasks_per_s", {}).get("value")
        print(f"{workload} seed {seed} trace {trace} pair {pair} {side}: "
              f"correct {run['result']['correct']}, tasks_per_s {value}", file=sys.stderr)


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], claim_seed: int, metric: str = "tasks_per_s") -> dict:
    """Per workload (and seed), each side's median and quartiles of every
    end-to-end metric over the untraced pairs, with the change's wins on
    the claimed metric and its ratio per pair, change / parent when higher
    is better and parent / change when lower is: above 1 is a gain."""
    groups: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        label = run["workload"]
        if run["seed"] != claim_seed:
            label += f" (seed {run['seed']})"
        groups.setdefault(label, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for label, pairs in groups.items():
        ordered = [pairs[k] for k in sorted(pairs)]

        def values(side, name):
            return [p[side]["result"]["metrics"][name]["value"] for p in ordered]

        entry: dict = {name: {side: _quartiles(values(side, name)) for side in SIDES}
                       for name in METRICS}
        pairs = list(zip(values("parent", metric), values("change", metric)))
        if BETTER[metric] == "lower":
            pairs = [(c, p) for p, c in pairs]
        entry[metric + "_change_wins"] = sum(c > p for p, c in pairs)
        entry[metric + "_ratios"] = [round(c / p, 4) for p, c in pairs]
        entry["pairs"] = len(ordered)
        entry["all_correct"] = all(p[side]["result"]["correct"]
                                   for p in ordered for side in SIDES)
        summary[label] = entry
    return summary


def claim_met(summary: dict, claim: dict) -> bool:
    """The claim rule on the claimed metric: at least nine tenths of the
    pairs won, and the change's median better than the parent's by more
    than the parent's interquartile range."""
    metric = claim["metric"]
    entry = summary[claim["workload"]]
    stats = entry[metric]
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    lead = stats["change"]["median"] - stats["parent"]["median"]
    if BETTER[metric] == "lower":
        lead = -lead
    return (entry["pairs"] >= claim["pairs"] and entry["all_correct"]
            and 10 * entry[metric + "_change_wins"] >= 9 * entry["pairs"]
            and lead > spread)


def _traced_side(run: dict) -> dict:
    """One traced run: calls and self time per call of every traced
    function that ran, and each layer's self time per task."""
    metrics = run["result"]["metrics"]
    tasks = run["provenance"]["samples"]["traced_tasks"]
    side: dict = {"traced_tasks": tasks}
    for name, metric in metrics.items():
        if name.count(".") == 2 and name.endswith(".calls") and metric["value"]:
            func = name[:-len(".calls")]
            calls, self_s = metric["value"], metrics[func + ".self_s"]["value"]
            side[func] = {"calls": calls, "calls_per_task": calls / tasks,
                          "self_s": self_s, "self_ms_per_call": self_s * 1e3 / calls}
    for name, metric in metrics.items():
        if name.count(".") == 1 and name.endswith(".self_s") and name != "trace.overhead_s":
            side[name + "_per_task_ms"] = metric["value"] * 1e3 / tasks
    side["trace.overhead_frac"] = metrics["trace.overhead_frac"]["value"]
    return side


def _median_fields(items: list[dict]) -> dict:
    """Field by field, the median over the dicts that have the field."""
    out: dict = {}
    for key in dict.fromkeys(key for item in items for key in item):
        values = [item[key] for item in items if key in item]
        out[key] = (_median_fields(values) if isinstance(values[0], dict)
                    else statistics.median(values))
    return out


def traced_per_call(runs: list[dict]) -> dict:
    """Per workload and side, the median over all traced pairs of each
    figure of ``_traced_side``, with the number of traced pairs; a
    function that ran in only some pairs gets the median over those."""
    sides: dict = {}
    for run in runs:
        if run["trace"]:
            sides.setdefault(run["workload"], {}).setdefault(run["side"], []).append(
                _traced_side(run))
    return {workload: {side: {"traced_pairs": len(items), **_median_fields(items)}
                       for side, items in by_side.items()}
            for workload, by_side in sides.items()}


def how(runs: list[dict], change: str) -> str:
    pairs: dict[tuple, set] = {}
    for r in runs:
        pairs.setdefault((r["workload"], r["seed"], r["seconds"], r["trace"]),
                         set()).add(r["pair"])
    counts = "; ".join(f"{w} --seed {s} --seconds {t:g} --trace {x}: {len(p)}"
                       for (w, s, t, x), p in sorted(pairs.items()))
    return ("perfbench/run.py of each checkout, unchanged, run by tools/bench_compare.py "
            f"in two git worktrees: the parent commit and the change ({change}); pairs "
            f"alternate which side runs first. Pairs per setting: {counts}")


def merged_claim(claim: dict | None, workload: str | None, seed: int, pairs: int,
                 metric: str = "tasks_per_s") -> dict | None:
    """The claim record after a call with ``--claim workload``.  An
    existing claim on the same workload, seed and metric is kept as it
    is, so a later call that adds other workloads with fewer pairs does
    not lower its pair count.  A file holds one claim: a claim on another
    workload, seed or metric raises ValueError."""
    if not workload:
        return claim
    if claim is None:
        return {"workload": workload, "metric": metric, "seed": seed, "pairs": pairs,
                "rule": RULE}
    if (claim["workload"], claim["seed"], claim["metric"]) != (workload, seed, metric):
        raise ValueError(f"the file claims {claim['workload']} at seed {claim['seed']} on "
                         f"{claim['metric']}, not {workload} at seed {seed} on {metric}")
    return claim


def save(data: dict, path: str, change: str, claim_seed: int) -> None:
    """Write the file with its summary computed from all runs so far."""
    prov = data["runs"][0]["provenance"] if data["runs"] else {}
    data["machine"] = {key: prov.get(key) for key in ("python", "nproc", "cpu_model")}
    data["how"] = how(data["runs"], change)
    metric = data["claim"]["metric"] if data["claim"] else "tasks_per_s"
    data["summary"] = summarize(data["runs"], claim_seed, metric)
    if data["claim"] and data["claim"]["workload"] in data["summary"]:
        data["claim"]["met"] = claim_met(data["summary"], data["claim"])
    data["traced_per_call"] = traced_per_call(data["runs"])
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--change", help="git ref of the change side (default: working tree)")
    parser.add_argument("--number", type=int, required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true", help="add one traced pair per workload")
    parser.add_argument("--tier1", type=int, default=0, help="tier-1 runs per side")
    parser.add_argument("--claim", help="workload on which the change claims a gain")
    parser.add_argument("--claim-metric", default="tasks_per_s", choices=sorted(BETTER),
                        help="end-to-end metric of the claim (default tasks_per_s)")
    parser.add_argument("--description", default="", help="what the change does")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    name = f"BENCH_{args.number:02d}_{args.tag}"
    path = os.path.join(args.out_dir, name + ".json")
    data = {"name": name, "change": args.description, "parent_commit": base_commit,
            "how": "", "machine": {}, "claim": None,
            "tier1": {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                      "runs": {side: [] for side in SIDES}},
            "summary": {}, "traced_per_call": {}, "runs": []}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
        if data["parent_commit"] != base_commit:
            parser.error(f"{path} compares against {data['parent_commit']}, not {base_commit}")
    if args.description:
        data["change"] = args.description
    try:
        data["claim"] = merged_claim(data["claim"], args.claim, args.seed, args.pairs,
                                     args.claim_metric)
    except ValueError as exc:
        parser.error(f"{path}: {exc}")
    change = args.change or "the working tree"
    claim_seed = data["claim"]["seed"] if data["claim"] else args.seed

    scratch = os.path.realpath(tempfile.mkdtemp(prefix="bench-compare-"))
    trees = {"parent": os.path.join(scratch, "parent"),
             "change": os.path.join(scratch, "change")}
    try:
        add_worktree(trees["parent"], base_commit)
        add_worktree(trees["change"], args.change)
        for k in range(args.tier1):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                data["tier1"]["runs"][side].append(tier1_run(trees[side]))
                print(f"tier1 {side}: {data['tier1']['runs'][side][-1]}", file=sys.stderr)
            save(data, path, change, claim_seed)
        plan = [(w, trace, count) for w in args.workload
                for trace, count in ((0, args.pairs), (1, int(args.trace)))]
        for workload, trace, count in plan:
            # Pairs added to an existing file continue its numbering.
            start = 1 + max((r["pair"] for r in data["runs"] if (r["workload"], r["seed"],
                             r["trace"]) == (workload, args.seed, trace)), default=-1)
            for pair in range(start, start + count):
                run_pair(data["runs"], trees, workload, args.seed, args.seconds, trace, pair)
                save(data, path, change, claim_seed)
    finally:
        for tree in trees.values():
            if os.path.exists(tree):
                subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=REPO,
                               capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=REPO, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    print(path)
    return 0 if all(r["result"]["correct"] for r in data["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
