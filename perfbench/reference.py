#!/usr/bin/env python3
"""One-off reference figures quoted in README.md, outside the timed workloads.

* the size of the expanded plumbing tree predicted from the Waldhausen
  graph alone: one vertex per Seifert piece plus, for every pair (alpha,
  beta) with alpha > 1, the length of the Hirzebruch-Jung expansion of
  alpha/(alpha - beta).  It is checked against the synthesized tree where
  that is cheap, and only predicted where synthesis would take minutes or
  gigabytes;
* ``synth_plumbing`` alone on ex1 at r = 10^4;
* ``susplink pipeline`` on four copies of cusp at r = 401 with ``--jobs 1``
  and ``--jobs 2``.

    python3 perfbench/reference.py        # about a minute on 2 cores
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter
from types import SimpleNamespace

import run


def hj_length(num: int, den: int) -> int:
    """Number of entries of the negative continued fraction of num/den."""
    length = 0
    while den > 0:
        b = -(-num // den)
        num, den = den, b * den - num
        length += 1
    return length


def predicted_vertices(w) -> int:
    pairs = [(s.alpha, s.beta) for s in w.stalks]
    pairs += [(a.alpha, a.beta) for a in w.arrows if a.alpha > 1]
    pairs += [(e.alpha, e.beta_u) for e in w.edges if e.alpha > 1]
    return len(w.vertices) + sum(hj_length(a, a - b) for a, b in pairs)


def waldhausen_graph(mods, text: str, r: int, side: str = "fg"):
    mp = mods.resolve.subtract_and_normalize(mods.resolve.parse_resolution(text), side)
    powered = mods.power.power_nielsen(mods.nielsen.build_nielsen(mp), r)
    return mods.waldhausen.nielsen_to_waldhausen(powered)


def main() -> int:
    sys.path.insert(0, run.SRC)
    run.import_program()
    mods = SimpleNamespace(**{m: importlib.import_module(f"susplink.{m}") for m in
                              ("resolve", "nielsen", "power", "waldhausen",
                               "synthesis", "cli")})
    texts = {n: open(os.path.join(run.DATA, f"{n}.txt"), encoding="utf-8").read()
             for n in ("ex1", "ex3", "cusp")}

    print("expanded plumbing tree sizes (vertices)")
    for name, r, synthesize in (("cusp", 401, True), ("cusp", 801, True), ("ex3", 211, True),
                                ("ex1", 101, True), ("ex1", 1001, True), ("cusp", 2001, True),
                                ("ex1", 10 ** 4, False), ("ex1", 10 ** 5, False)):
        w = waldhausen_graph(mods, texts[name], r)
        predicted = predicted_vertices(w)
        line = f"  {name} r={r}: predicted {predicted}"
        if synthesize:
            actual = len(mods.synthesis.synth_plumbing(w, True).vertices)
            line += f", synthesized {actual}"
            if actual != predicted:
                line += "  MISMATCH"
        print(line + f", dense matrix {predicted ** 2} entries", flush=True)

    w = waldhausen_graph(mods, texts["ex1"], 10 ** 4)
    t0 = perf_counter()
    tree = mods.synthesis.synth_plumbing(w, True)
    print(f"synth_plumbing ex1 r=10^4: {perf_counter() - t0:.2f} s, "
          f"{len(tree.vertices)} vertices", flush=True)

    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        cusp = os.path.join(run.DATA, "cusp.txt")
        times = {1: [], 2: []}
        for jobs in (1, 2) * 3:
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = mods.cli.main(["pipeline", cusp, cusp, cusp, cusp, "-r", "401",
                                    "--jobs", str(jobs), "-o", os.path.join(workdir, "out")])
            times[jobs].append(perf_counter() - t0)
            if rc != 0:
                run.fail(f"pipeline --jobs {jobs} exited with {rc}")
        for jobs, values in times.items():
            print(f"pipeline 4 x cusp r=401 --jobs {jobs}: median {statistics.median(values):.2f} s"
                  f" of {', '.join(f'{v:.2f}' for v in values)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    sys.exit(main())
