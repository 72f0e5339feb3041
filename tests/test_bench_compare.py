"""The committed BENCH files agree with the paired runner's summary rules.

``tools/bench_compare.py`` writes a BENCH file from its runs; each
file's ``summary`` must follow from its own ``runs``: medians, inclusive
quartiles, the change's wins and ratios on the claimed metric, and the
claim rule.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare",
                                               ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


@pytest.mark.parametrize("name", ["BENCH_10_minors.json", "BENCH_12_floorsum.json",
                                  "BENCH_13_coldstart.json", "BENCH_14_splice.json",
                                  "BENCH_17_rowdiff.json", "BENCH_18_diffprod.json",
                                  "BENCH_20_pathminors.json", "BENCH_25_pathdet.json",
                                  "BENCH_26_rotprod.json", "BENCH_27_rowzero.json",
                                  "BENCH_28_flatenum.json", "BENCH_30_lengths.json"])
def test_summary_recomputed_from_runs(name):
    data = json.loads((ROOT / name).read_text())
    summary = bench_compare.summarize(data["runs"], data["claim"]["seed"],
                                      data["claim"]["metric"])
    assert summary == data["summary"]
    assert bench_compare.claim_met(summary, data["claim"])
    assert data["claim"].get("met", True) is True
    assert summary[data["claim"]["workload"]]["pairs"] == data["claim"]["pairs"] == 10


def test_claim_rule_rejects_a_narrow_win():
    data = json.loads((ROOT / "BENCH_10_minors.json").read_text())
    summary = bench_compare.summarize(data["runs"], data["claim"]["seed"])
    entry = summary[data["claim"]["workload"]]
    entry["tasks_per_s_change_wins"] = 8
    assert not bench_compare.claim_met(summary, data["claim"])
    entry["tasks_per_s_change_wins"] = 10
    parent = entry["tasks_per_s"]["parent"]
    parent["q3"] = parent["q1"] + entry["tasks_per_s"]["change"]["median"] - parent["median"]
    assert not bench_compare.claim_met(summary, data["claim"])


def test_existing_claim_survives_a_call_that_adds_workloads():
    claim = bench_compare.merged_claim(None, "pc-enum-sign", 17, 10)
    assert claim == {"workload": "pc-enum-sign", "metric": "tasks_per_s", "seed": 17,
                     "pairs": 10, "rule": bench_compare.RULE}
    assert bench_compare.merged_claim(claim, "pc-enum-sign", 17, 3) is claim
    assert bench_compare.merged_claim(claim, None, 23, 3) is claim
    assert bench_compare.merged_claim(None, None, 17, 10) is None


@pytest.mark.parametrize("workload, seed", [("sturmian-detvec", 17), ("pc-enum-sign", 23)])
def test_claim_on_a_new_workload_or_seed_is_refused(workload, seed):
    claim = bench_compare.merged_claim(None, "pc-enum-sign", 17, 10)
    with pytest.raises(ValueError, match="claims pc-enum-sign at seed 17"):
        bench_compare.merged_claim(claim, workload, seed, 3)
    assert claim["pairs"] == 10


def test_second_claim_exits_2_and_leaves_the_file(tmp_path):
    """The refusal comes before any checkout or run: the file keeps its
    bytes and no worktree is added."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    claim = bench_compare.merged_claim(None, "sturmian-detvec", 17, 1)
    path = tmp_path / "BENCH_00_smoke.json"
    path.write_text(json.dumps({"name": "BENCH_00_smoke", "parent_commit": head,
                                "claim": claim, "runs": []}))
    before = path.read_bytes()
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=ROOT, capture_output=True,
                               text=True, check=True).stdout
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_compare.py"),
                           "--base", "HEAD", "--number", "0", "--tag", "smoke",
                           "--workload", "sturmian-detvec", "--pairs", "1", "--seconds", "1",
                           "--seed", "5",
                           "--claim", "sturmian-detvec", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "claims sturmian-detvec at seed 17" in done.stderr
    assert path.read_bytes() == before
    assert subprocess.run(["git", "worktree", "list"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout == worktrees


def test_traced_per_call_is_the_median_over_traced_pairs():
    """Each side's per-call figures are medians over every traced pair,
    not the figures of pair 0."""
    data = json.loads((ROOT / "BENCH_18_diffprod.json").read_text())
    assert bench_compare.traced_per_call(data["runs"]) == data["traced_per_call"]
    for side in bench_compare.SIDES:
        runs = [r for r in data["runs"]
                if r["trace"] and r["workload"] == "bw-matrix-group" and r["side"] == side]
        figures = data["traced_per_call"]["bw-matrix-group"][side]
        assert figures["traced_pairs"] == len(runs) == 3
        per_call = sorted(bench_compare._traced_side(r)["numeric.mat_mul"]["self_ms_per_call"]
                          for r in runs)
        assert figures["numeric.mat_mul"]["self_ms_per_call"] == per_call[1]


def fabricated_runs(parent_p90, change_p90, parent_rate, change_rate):
    """Ten untraced pairs of one workload whose metrics are all 1.0 except
    task_p90_ms and tasks_per_s, taken per pair from the four lists."""
    runs = []
    for pair in range(10):
        for side, p90, rate in (("parent", parent_p90, parent_rate),
                                ("change", change_p90, change_rate)):
            metrics = {name: {"value": 1.0} for name in bench_compare.METRICS}
            metrics["task_p90_ms"] = {"value": p90[pair]}
            metrics["tasks_per_s"] = {"value": rate[pair]}
            runs.append({"workload": "pc-enum-sign", "seed": 17, "pair": pair, "side": side,
                         "trace": 0, "result": {"correct": True, "metrics": metrics}})
    return runs


def test_lower_is_better_claim():
    """A claim on task_p90_ms counts a pair as won when the change's p90 is
    lower, gives ratios parent / change, and needs the change's median
    below the parent's by more than the parent's interquartile range."""
    assert bench_compare.BETTER["task_p90_ms"] == "lower"
    parent = [0.094 + 0.001 * (k % 3) for k in range(10)]
    change = [0.085 + 0.001 * (k % 2) for k in range(10)]
    # tasks_per_s falls in every pair: the claim does not look at it.
    rates = ([20_000.0] * 10, [19_000.0] * 10)
    claim = bench_compare.merged_claim(None, "pc-enum-sign", 17, 10, "task_p90_ms")
    assert claim["metric"] == "task_p90_ms"
    summary = bench_compare.summarize(fabricated_runs(parent, change, *rates), 17,
                                      "task_p90_ms")
    entry = summary["pc-enum-sign"]
    assert entry["task_p90_ms_change_wins"] == 10 and "tasks_per_s_change_wins" not in entry
    assert entry["task_p90_ms_ratios"] == [round(p / c, 4) for p, c in zip(parent, change)]
    assert all(r > 1 for r in entry["task_p90_ms_ratios"])
    assert bench_compare.claim_met(summary, claim)
    # The same runs with the sides swapped: every pair lost, no claim.
    swapped = bench_compare.summarize(fabricated_runs(change, parent, *rates), 17,
                                      "task_p90_ms")
    assert swapped["pc-enum-sign"]["task_p90_ms_change_wins"] == 0
    assert not bench_compare.claim_met(swapped, claim)
    # A p90 lower by less than the parent's spread is not enough.
    narrow = [p - 0.0005 for p in parent]
    summary = bench_compare.summarize(fabricated_runs(parent, narrow, *rates), 17,
                                      "task_p90_ms")
    assert summary["pc-enum-sign"]["task_p90_ms_change_wins"] == 10
    assert not bench_compare.claim_met(summary, claim)
    # On tasks_per_s the same runs lose every pair.
    tps = bench_compare.merged_claim(None, "pc-enum-sign", 17, 10)
    summary = bench_compare.summarize(fabricated_runs(parent, change, *rates), 17)
    assert summary["pc-enum-sign"]["tasks_per_s_change_wins"] == 0
    assert not bench_compare.claim_met(summary, tps)
    with pytest.raises(ValueError, match="claims pc-enum-sign at seed 17 on task_p90_ms"):
        bench_compare.merged_claim(claim, "pc-enum-sign", 17, 3)
