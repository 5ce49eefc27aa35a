"""One sparse exact elimination of the intersection form of a plumbing graph.

The form has the vertex weights on the diagonal and the signed edge counts
off it.  Eliminating least degree first strips a tree leaf by leaf without
fill-in (Parter 1961); cycles and parallel edges fill in as they need.  The
pivots give the determinant (their product) and negative-definiteness (all
1x1 and negative, by Sylvester's law of inertia), and a right-hand side is
solved in the same pass.  No floating point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import MonodromyError


@dataclass(frozen=True)
class Elimination:
    determinant: int
    negative_definite: bool
    solution: list[Fraction] | None  # in the order of the graph's vertices


def eliminate(graph, rhs=None) -> Elimination:
    """Eliminate the form of ``graph`` (vertices with ``id`` and ``weight``,
    edges with ``u``, ``v`` and ``sign``); with ``rhs`` also solve
    form @ x = rhs, raising MonodromyError if the form is singular.

    The pivot is the least-degree vertex whose reduced diagonal is nonzero,
    else a 2x2 block on a nonzero off-diagonal entry; with neither left the
    form is singular.
    """
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    diag = [Fraction(v.weight) for v in graph.vertices]
    off: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for e in graph.edges:
        _add(off[index[e.u]], index[e.v], e.sign)
        _add(off[index[e.v]], index[e.u], e.sign)
    b = [Fraction(x) for x in rhs] if rhs is not None else [0] * n
    alive = [True] * n
    heap = [(len(row), i) for i, row in enumerate(off)]
    heapq.heapify(heap)
    det, definite, steps, remaining = Fraction(1), True, [], n
    while remaining:
        while heap:
            degree, v = heapq.heappop(heap)
            if alive[v] and degree == len(off[v]) and diag[v]:
                block, inverse = (v,), {(v, v): 1 / diag[v]}
                det *= diag[v]
                definite = definite and diag[v] < 0
                break
        else:
            v = next((i for i in range(n) if alive[i] and off[i]), None)
            if v is None:
                if rhs is not None:
                    raise MonodromyError("degenerate monodromical system: singular matrix")
                return Elimination(0, False, None)
            w = min(off[v])
            c = Fraction(off[v][w])
            block, inverse = (v, w), {(v, w): 1 / c, (w, v): 1 / c}
            det *= -c * c
            definite = False
        couplings = {s: {k: x for k, x in off[s].items() if k not in block} for s in block}
        for s in block:
            alive[s] = False
            for k in couplings[s]:
                del off[k][s]
        # Schur complement: a_kl -= sum over s, t of a_ks (block^-1)_st a_tl
        for (s, t), p in inverse.items():
            for k, x in couplings[s].items():
                f = x * p
                if b[t]:
                    b[k] -= f * b[t]
                for l, y in couplings[t].items():
                    if k == l:
                        diag[k] -= f * y
                    else:
                        _add(off[k], l, -f * y)
        for k in set().union(*couplings.values()):
            heapq.heappush(heap, (len(off[k]), k))
        steps.append((block, inverse, couplings))
        remaining -= len(block)
    if rhs is None:
        return Elimination(int(det), definite, None)
    x: list[Fraction] = [Fraction(0)] * n
    for block, inverse, couplings in reversed(steps):
        residual = {t: b[t] - sum(y * x[k] for k, y in couplings[t].items())
                    for t in block}
        for (s, t), p in inverse.items():
            x[s] += p * residual[t]
    return Elimination(int(det), definite, x)


def _add(row: dict, j: int, value) -> None:
    """Add to one off-diagonal entry, dropping it when it cancels to zero."""
    total = row.get(j, 0) + value
    if total:
        row[j] = total
    else:
        del row[j]
