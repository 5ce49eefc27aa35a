#!/usr/bin/env python3
"""Run the worked examples end to end and print their obstruction summaries.

This is the quick smoke experiment: three mixed-germ inputs at their natural
exponents, the holomorphic cusp oracle at r = 5 (its reduced tree is the E8
diagram of the (2, 3, 5) Brieskorn sphere), and the r = 1 sanity runs, which
must reproduce the 3-sphere.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from susplink.pipeline import run_pipeline
from susplink.report import describe_obstructions

DATA = Path(__file__).resolve().parent.parent / "data"

RUNS = [
    ("ex1.txt", 3),
    ("ex2.txt", 2),
    ("ex3.txt", 5),
    ("cusp.txt", 5),
]


def main() -> int:
    for name, r in RUNS:
        result = run_pipeline((DATA / name).read_text(), r, reduce=True)
        tree = result.plumbing
        reduced = result.blowdown
        print(f"== {name} at r = {r}")
        print(f"   final tree: {len(tree.vertices)} vertices, "
              f"weights {sorted(Counter(v.weight for v in tree.vertices).items())}")
        print(f"   reduced: {len(reduced.vertices)} vertices, "
              f"|det| = {abs(result.obstructions.determinant)}")
        for line in describe_obstructions(result.obstructions):
            print("  " + line)
        print()
    print("== r = 1 sanity (base manifold must be the 3-sphere)")
    for name, _ in RUNS[:3]:
        result = run_pipeline((DATA / name).read_text(), 1, reduce=True)
        det = abs(result.obstructions.determinant)
        print(f"   {name}: |det| after blow-down = {det}")
        assert det == 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
