#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Every check must accept the program's real output and reject a copy with
one deliberate fault: one weight changed, one K entry changed, det negated
(or moved off its closed form), a wrong exit code.  A check that accepts a
corrupted result would pass vacuously.  The harness itself must count an
operation that fails unexpectedly as incorrect.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile
from fractions import Fraction

import oracle
import run
import workloads
from oracle import CheckError

failures = []


def expect(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)


def outcome(fn) -> str | None:
    try:
        fn()
    except CheckError as exc:
        return str(exc)
    return None


def accepts(fn, label: str) -> None:
    error = outcome(fn)
    expect(error is None, f"accepts {label}" + (f": {error}" if error else ""))


def rejects(fn, label: str) -> None:
    expect(outcome(fn) is not None, f"rejects {label}")


def bump_weight(g, delta=1) -> dict:
    (vid, w, genus, mult), *rest = g["vertices"]
    return {**g, "vertices": [(vid, w + delta, genus, mult), *rest]}


def pipeline_checks(ops) -> None:
    by_name = {op.name: op for op in ops}
    for name in ("ex1 r=3 side=fg", "ex2 r=2 side=fg", "ex3 r=5 side=g",
                 "cusp r=5 side=f", "cusp r=3 side=f", "ex1 r=1 side=f"):
        op = by_name[name]
        out = op.run()
        accepts(lambda: op.check(out, op.key(out)), name)
        result = out[0]
        o = result.obstructions
        g = workloads.plain(result.plumbing_full)
        K = list(o.K)
        rejects(lambda: oracle.check_balance(bump_weight(g)), f"{name}: balance, one weight changed")
        rejects(lambda: oracle.check_canonical(g, [K[0] + 1] + K[1:], o.K_squared),
                f"{name}: A·K = d, one K entry changed")
        rejects(lambda: oracle.check_canonical(g, K, o.K_squared + 1), f"{name}: K^2 = K·d")
        rejects(lambda: oracle.check_form(g, -o.determinant, o.negative_definite),
                f"{name}: det negated")
        rejects(lambda: oracle.check_form(g, o.determinant, not o.negative_definite),
                f"{name}: definiteness flipped")
        reduced = workloads.plain(result.blowdown)
        rejects(lambda: oracle.check_reduced(bump_weight(reduced, -1), o.determinant),
                f"{name}: blow-down |det|, one weight changed")
        if name.endswith("side=fg"):
            continue
        stem, r, side = name.split()
        exponents = workloads.EXPONENTS[(stem, side[5:])]
        args = (g, o.wedge_spheres, exponents, result.r, o.determinant, o.negative_definite)
        accepts(lambda: oracle.check_brieskorn(*args), f"{name}: Brieskorn-Pham closed forms")
        rejects(lambda: oracle.check_brieskorn(g, o.wedge_spheres + 1, *args[2:]),
                f"{name}: wedge = (a-1)(b-1)(r-1)")
        rejects(lambda: oracle.check_brieskorn(*args[:4], abs(o.determinant) + 1, True),
                f"{name}: |det| = |Δ(1)|")
        rejects(lambda: oracle.check_brieskorn(*args[:5], False),
                f"{name}: one-sided tree negative definite")
        if stem == "cusp":
            ade = workloads.ADE_DET[result.r]
            accepts(lambda: oracle.check_reduced(reduced, o.determinant, ade), f"{name}: ADE |det|")
            rejects(lambda: oracle.check_reduced(reduced, o.determinant, ade + 1),
                    f"{name}: ADE |det| changed")
        if result.r == 1:
            accepts(lambda: oracle.check_reduced(reduced, o.determinant, sphere=True),
                    f"{name}: S^3")
            two = {"vertices": [(1, -1, 0, None), (2, -2, 0, None)],
                   "edges": [(1, 2, 1)], "arrows": []}
            rejects(lambda: oracle.check_reduced(two, 1, sphere=True),
                    f"{name}: S^3 needs a single vertex")


def blowdown_checks(ops) -> None:
    for op in ops[:3] + [op for op in ops if op.name == "chain20"]:
        out = op.run()
        accepts(lambda: op.check(out, op.key(out)), f"blowdown {op.name}")
        seed = oracle_seed(op.name)
        after = workloads.plain(out)
        rejects(lambda: oracle.check_blow_down(seed, seed, bump_weight(after)),
                f"blowdown {op.name}: one weight changed")
        rejects(lambda: oracle.check_blow_down(seed, bump_weight(seed, -1), after),
                f"blowdown {op.name}: |det| changed")


def oracle_seed(name: str) -> dict:
    return workloads.minimal_tree("S3" if name.startswith("chain") else name.split("+")[0])


def stage_checks(ops) -> None:
    for op in ops:
        if op.expect_fail:
            expect(not op.ok((0, "")), f"{op.name}: exit 0 counts as failed")
            expect(op.ok((1, "error [invariants] bad input\n")),
                   f"{op.name}: exit 1 with 'error [' counts as handled")
            continue
        out = op.run()
        expect(op.ok(out), f"{op.name} exits 0")
        key = op.key(out)
        if op.name.startswith("invariants"):
            accepts(lambda: op.check(out, key), op.name)
            doc = json.loads(key[1])
            doc["K"][0] = str(Fraction(doc["K"][0]) + 1)
            rejects(lambda: op.check(out, (0, json.dumps(doc))), f"{op.name}: one K entry changed")
            doc = json.loads(key[1])
            doc["determinant"] = -doc["determinant"]
            rejects(lambda: op.check(out, (0, json.dumps(doc))), f"{op.name}: det negated")
        elif op.name.startswith("plumbing"):
            accepts(lambda: op.check(out, key), op.name)
            doc = json.loads(key[1])
            doc["vertices"][0]["weight"] += 1
            rejects(lambda: op.check(out, (0, json.dumps(doc))), f"{op.name}: one weight changed")
        elif op.name == "pipeline multi":
            accepts(lambda: op.check(out, key), op.name)
            bad = re.sub(r'"determinant": (-?\d+)',
                         lambda m: f'"determinant": {-int(m.group(1))}', key[1], count=1)
            rejects(lambda: op.check(out, (0, bad)), f"{op.name}: det negated")


def harness_checks() -> None:
    """A failure that is not expected makes the run incorrect, and the
    latency figures cover the same operations whatever fails."""
    def broken():
        raise KeyError("weight")

    ops = [workloads.Op("unexpected", broken, key=lambda out: out, check=lambda out, key: None),
           workloads.Op("expected", broken, key=lambda out: out, check=lambda out, key: None,
                        ok=lambda out: False, expect_fail=True),
           workloads.Op("fine", lambda: 1, key=lambda out: out, check=lambda out, key: None)]
    measured = run.timed_pass(ops, 0)
    expect(measured.failed == 2, "both failing operations are counted as failed")
    expect(not run.run_checks(ops, measured), "an unexpected failure makes the run incorrect")
    expect(sorted(measured.latencies) == [0, 2],
           "latencies cover every operation not expected to fail, failing or not")


def main() -> int:
    if not os.path.isdir(run.SRC):
        run.fail(f"no program sources at {run.SRC}")
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        harness_checks()
        pipeline_checks(run.setup("examples", 1, workdir)[1])
        blowdown_checks(run.setup("blowdown", 1, workdir)[1])
        stage_checks(run.setup("stage_files", 1, workdir)[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
