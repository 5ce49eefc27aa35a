"""The scripts under scripts/ run end to end, and their summaries hold."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_examples(capsys):
    assert _load("run_examples").main() == 0
    out = capsys.readouterr().out
    sanity = out.split("== r = 1 sanity", 1)[1].splitlines()[1:]
    lines = [line for line in sanity if line.strip()]
    assert len(lines) == 3
    assert all(line.endswith("|det| after blow-down = 1") for line in lines)


def _result(p90, ops, failed=0, correct=True):
    """A perfbench result object with two of its end-to-end metrics."""
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {"op_p90_ms": {"value": p90, "unit": "ms"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


def test_bench_pairs_summary_of_canned_runs():
    """Medians, inclusive quartiles, the change in percent and the wins per
    pair, read the right way for a metric where lower and where higher is
    better, and the claim rule on them."""
    bench = _load("bench_pairs")
    parent = [_result(1.0 + i / 100, 100.0 + i) for i in range(10)]  # 1.00 .. 1.09
    change = [_result(0.9 + i / 100, 99.0 + i, failed=int(i == 3)) for i in range(10)]
    change[9] = _result(1.2, 200.0)  # one pair lost on p90, won on ops
    summary = bench.summarize({"examples": {"parent": parent, "change": change}},
                              {"op_p90_ms": "lower", "ops_per_s": "higher"})
    assert summary["pairs"] == 10
    examples = summary["workloads"]["examples"]
    assert examples["failed"] == {"parent": [0] * 10, "change": [0, 0, 0, 1] + [0] * 6}
    assert examples["attempted"]["change"] == [1000] * 10 and examples["correct"]
    p90 = examples["metrics"]["op_p90_ms"]
    assert (p90["unit"], p90["better"]) == ("ms", "lower")
    assert p90["parent"] == {"median": 1.045, "q1": 1.0225, "q3": 1.0675,
                             "runs": [round(1.0 + i / 100, 6) for i in range(10)]}
    assert p90["change"]["median"] == 0.945
    assert p90["median_change_pct"] == round((0.945 - 1.045) / 1.045 * 100, 2)
    assert p90["change_wins"] == "9/10" and p90["median_gap_exceeds_parent_iqr"]
    ops = examples["metrics"]["ops_per_s"]
    assert ops["change_wins"] == "1/10" and not ops["median_gap_exceeds_parent_iqr"]
    assert bench.claim(summary, "examples op_p90_ms")["all_workloads"] == {
        "wins": "9/10", "median_gain_ms": 0.1, "parent_iqr_ms": 0.045, "met": True}
    assert not bench.claim(summary, "examples ops_per_s")["all_workloads"]["met"]
    short =bench.summarize({"examples": {"parent": parent[:9],
                                          "change": [_result(0.5, 1.0)] * 9}},
                            {"op_p90_ms": "lower", "ops_per_s": "higher"})
    assert short["pairs"] == 9
    nine = bench.claim(short, "examples op_p90_ms")["all_workloads"]
    assert nine["wins"] == "9/9" and not nine["met"]  # fewer than ten pairs meet nothing
    parent[0]["correct"] = False
    assert not bench.summarize({"examples": {"parent": parent, "change": change}},
                               {"op_p90_ms": "lower", "ops_per_s": "higher"}
                               )["workloads"]["examples"]["correct"]
