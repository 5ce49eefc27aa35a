#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent commit against this checkout.

    python3 scripts/bench_pairs.py PARENT --claim "examples op_p90_ms" --out BENCH_33.json

Each side is extracted with ``git archive`` into its own directory under
``--workdir``: the parent from the commit PARENT, the change from the
working tree as ``git add -A`` would stage it.  Both sides then get their
own copy of the change's ``perfbench/``, so they differ only in the program.
There are ten pairs.  Pair i runs ``perfbench/run.py --workload W --seconds S
--seed 500+i --trace 0`` on both sides, the parent first in odd pairs, for
every workload W and the run length S that ``BENCHMARK.json`` declares.
The output file holds, per workload and end-to-end metric, the median, the
quartiles and the runs of each side, the median change and how many pairs
the change won, and whether the claimed metric met the benchmark's rule.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED_BASE = 500
RULE = ("the change wins at least 9 of 10 pairs and its median is better than the "
        "parent's by more than the parent's interquartile range")


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def working_tree() -> str:
    """The tree object of the working tree as ``git add -A`` stages it,
    written through a scratch index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def extract(tree: str, dest: Path, *paths: str) -> None:
    archive = subprocess.run(["git", "archive", tree, *paths], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def prepare(workdir: Path, trees: dict[str, str]) -> dict[str, Path]:
    """One directory per side, each with its own copy of the change's perfbench/."""
    dirs = {}
    for side, tree in trees.items():
        dest = dirs[side] = workdir / side
        dest.mkdir(parents=True)
        extract(tree, dest)
        shutil.rmtree(dest / "perfbench", ignore_errors=True)
        extract(trees["change"], dest, "perfbench")
    return dirs


def run_once(side_dir: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result object perfbench prints as its last line."""
    proc = subprocess.run(
        [sys.executable, str(side_dir / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=side_dir, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The two sides of one metric over the pairs: a win is the change
    better than the parent in the same pair."""
    sign = 1 if better == "lower" else -1
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    return {
        "parent": p, "change": c,
        "median_change_pct": (round((c["median"] - p["median"]) / p["median"] * 100, 2)
                              if p["median"] else None),
        "change_wins": f"{wins}/{len(parent)}",
        "median_gap_exceeds_parent_iqr": sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
    }


def summarize(runs: dict[str, dict[str, list[dict]]], better: dict[str, str]) -> dict:
    """Per workload, the ``failed`` and ``attempted`` counts of each side,
    whether every run was correct, and ``compare`` of each metric, from the
    result objects ``runs[workload][side]`` in pair order."""
    workloads = {}
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        metrics = {}
        for name, first in parent[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"], "better": better[name], **compare(
                [r["metrics"][name]["value"] for r in parent],
                [r["metrics"][name]["value"] for r in change], better[name])}
        workloads[workload] = {
            "failed": {side: [r["failed"] for r in sides[side]] for side in ("parent", "change")},
            "attempted": {side: [r["attempted"] for r in sides[side]]
                          for side in ("parent", "change")},
            "correct": all(r["correct"] for r in parent + change),
            "metrics": metrics,
        }
    return {"pairs": len(next(iter(runs.values()))["parent"]), "workloads": workloads}


def claim(summary: dict, metric: str) -> dict:
    """Whether ``metric`` ("<workload> <name>") met ``RULE``."""
    workload, name = metric.split()
    m = summary["workloads"][workload]["metrics"][name]
    sign = 1 if m["better"] == "lower" else -1
    wins, pairs = map(int, m["change_wins"].split("/"))
    gain = sign * (m["parent"]["median"] - m["change"]["median"])
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    return {"metric": metric, "rule": RULE, "all_workloads": {
        "wins": m["change_wins"], f"median_gain_{m['unit']}": round(gain, 6),
        f"parent_iqr_{m['unit']}": round(iqr, 6),
        "met": pairs >= PAIRS and wins * 10 >= pairs * 9 and gain > iqr}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to measure against")
    parser.add_argument("--claim", help='the metric a gain is claimed on, e.g. "examples op_p90_ms"')
    parser.add_argument("--out", default="-", help="output file, '-' for stdout")
    parser.add_argument("--workdir", help="where the two sides are extracted (default: a temporary directory)")
    args = parser.parse_args(argv)

    parent = git("rev-parse", f"{args.parent}^{{commit}}")
    trees = {"parent": git("rev-parse", f"{parent}^{{tree}}"), "change": working_tree()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        dirs = prepare(workdir, trees)
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(
                        run_once(dirs[side], workload, seconds, SEED_BASE + pair))
                    print(f"bench_pairs: pair {pair} {workload} {side} done", file=sys.stderr)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    head = git("rev-parse", "HEAD")
    summary = summarize(runs, better)
    document = {
        "what": "perfbench end-to-end metrics of the parent commit and of this change, "
                "over alternating pairs of runs",
        "command": f"python3 perfbench/run.py --workload W --seconds {seconds:g} --seed S "
                   f"--trace 0, each of the {len(workloads)} workloads in its own process; "
                   "within a pair each workload runs on both sides in turn",
        "parent_commit": parent,
        "change_commit": ("the commit that adds this file"
                          if trees["change"] != git("rev-parse", "HEAD^{tree}") else head),
        "src_tree": {side: git("rev-parse", f"{tree}:src") for side, tree in trees.items()},
        "perfbench_tree": {side: git("rev-parse", f"{tree}:perfbench")
                           for side, tree in trees.items()},
        "seeds": {f"pair {i}": SEED_BASE + i for i in range(1, PAIRS + 1)},
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "host": f"{platform.system()} {platform.machine()}; perfbench corrects every time "
                "for the host speed sampled beside it",
        "method": "each side measured from its own copy of the same perfbench/ files; pair i "
                  f"uses seed {SEED_BASE} + i on both sides; pairs alternate which side runs "
                  "first (pair 1: parent first); quartiles are statistics.quantiles(n=4, "
                  "method='inclusive') over the pairs; a win is the change better than the "
                  "parent in the same pair",
        "sets": {"all_workloads": summary},
    }
    if args.claim:
        document["claim"] = claim(summary, args.claim)
    text = json.dumps(document, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
