"""One sparse exact elimination of the intersection form of a plumbing graph.

The form has the vertex weights on the diagonal and the signed edge counts
off it.  A leaf pass first strips, while there is one, a vertex with at most
one off-diagonal entry and a nonzero reduced diagonal, changing only its
neighbour: on a tree that is almost every vertex (Parter 1961).  What is
left (cycles, parallel edges, zero diagonals) goes least degree first and
fills in as it needs.  The pivots give the determinant (their product) and
negative-definiteness (all 1x1 and negative), and a right-hand side is
solved in the same pass.  Pivot order changes none of these: the
determinant and the solution are unique, the form is singular in every
order or in none, and by Sylvester's law of inertia the pivots are all 1x1
and negative in one order exactly when the form is negative definite.

Every rational inside the elimination is a reduced pair of ints
``(numerator, denominator)`` with a positive denominator, kept reduced by
``math.gcd``; only the returned solution is made of ``Fraction``s.  No
floating point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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

    After the leaf pass, the pivot is the least-degree vertex whose reduced
    diagonal is nonzero, else a 2x2 block on a nonzero off-diagonal entry;
    with neither left the form is singular.
    """
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    diag = [(v.weight, 1) for v in graph.vertices]
    off: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for e in graph.edges:
        _accumulate(off[index[e.u]], index[e.v], (e.sign, 1))
        _accumulate(off[index[e.v]], index[e.u], (e.sign, 1))
    b = [(x.numerator, x.denominator) for x in rhs] if rhs is not None else [(0, 1)] * n
    alive = [True] * n
    det, definite, leaves, steps, remaining = (1, 1), True, [], [], n
    # Leaf pass.  Off-diagonal entries are still integer edge counts, so a leaf
    # v (pivot d, entry x at k) changes only diag[k] by -x*x/d, b[k] by -x/d*b[v].
    stack = [i for i in range(n) if len(off[i]) < 2]
    while stack:
        v = stack.pop()
        d, row = diag[v], off[v]
        if not alive[v] or len(row) > 1 or not d[0]:
            continue
        alive[v] = False
        remaining -= 1
        det = _mul(det, d)
        definite = definite and d[0] < 0
        for k, (x, _) in row.items():
            del off[k][v]
            g = gcd(x, d[0]) if d[0] > 0 else -gcd(x, d[0])
            pn, pd = x // g * d[1], d[0] // g  # x/d, reduced, with pd > 0
            g = gcd(x, pd)
            diag[k] = _add(diag[k], (-(x // g) * pn, pd // g))
            if b[v][0]:
                b[k] = _add(b[k], _mul((-pn, pd), b[v]))
            if len(off[k]) < 2:
                stack.append(k)
        leaves.append((v, row))
    heap = [(len(off[i]), i) for i in range(n) if alive[i]]
    heapq.heapify(heap)
    # A vertex the 2x2 search passes over is dead, or has no off-diagonal
    # entry and so is no block's neighbour; fill-in only joins two
    # neighbours of a block, so that vertex never qualifies again and the
    # search resumes where it stopped.
    cursor = 0
    while remaining:
        while heap:
            degree, v = heapq.heappop(heap)
            if alive[v] and degree == len(off[v]) and diag[v][0]:
                block, inverse = (v,), {(v, v): _inverse(diag[v])}
                det = _mul(det, diag[v])
                definite = definite and diag[v][0] < 0
                break
        else:
            while cursor < n and not (alive[cursor] and off[cursor]):
                cursor += 1
            if cursor == n:
                if rhs is not None:
                    raise MonodromyError("degenerate monodromical system: singular matrix")
                return Elimination(0, False, None)
            v = cursor
            w = min(off[v])
            c = off[v][w]
            block, inverse = (v, w), {(v, w): _inverse(c), (w, v): _inverse(c)}
            det = _mul(det, _mul(c, (-c[0], c[1])))
            definite = False
        couplings = {s: {k: x for k, x in off[s].items() if k not in block} for s in block}
        for s in block:
            alive[s] = False
            for k in couplings[s]:
                del off[k][s]
        # Schur complement: a_kl -= sum over s, t of a_ks (block^-1)_st a_tl
        for (s, t), p in inverse.items():
            for k, x in couplings[s].items():
                f = _mul(x, p)
                f = (-f[0], f[1])
                if b[t][0]:
                    b[k] = _add(b[k], _mul(f, b[t]))
                for l, y in couplings[t].items():
                    if k == l:
                        diag[k] = _add(diag[k], _mul(f, y))
                    else:
                        _accumulate(off[k], l, _mul(f, y))
        for k in set().union(*couplings.values()):
            heapq.heappush(heap, (len(off[k]), k))
        if rhs is not None:
            steps.append((block, inverse, couplings))
        remaining -= len(block)
    if rhs is None:
        return Elimination(det[0], definite, None)
    x = [(0, 1)] * n
    for block, inverse, couplings in reversed(steps):
        residual = {}
        for t in block:
            r = b[t]
            for k, y in couplings[t].items():
                u = _mul(y, x[k])
                r = _add(r, (-u[0], u[1]))
            residual[t] = r
        for (s, t), p in inverse.items():
            x[s] = _add(x[s], _mul(p, residual[t]))
    for v, row in reversed(leaves):
        r = b[v]
        for k, (y, _) in row.items():
            r = _add(r, _mul((-y, 1), x[k]))
        x[v] = _mul(r, _inverse(diag[v]))
    return Elimination(det[0], definite,
                       [Fraction(q[0]) if q[1] == 1 else Fraction(*q) for q in x])


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The reduced product of two reduced pairs."""
    (an, ad), (bn, bd) = a, b
    if ad == 1 and bd == 1:
        return an * bn, 1
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The reduced sum of two reduced pairs."""
    (an, ad), (bn, bd) = a, b
    if ad == 1 and bd == 1:
        return an + bn, 1
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    num = an * (bd // g) + bn * s
    g2 = gcd(num, g)
    return num // g2, s * (bd // g2)


def _inverse(a: tuple[int, int]) -> tuple[int, int]:
    """The reciprocal of a nonzero reduced pair, its denominator kept positive."""
    num, den = a
    return (den, num) if num > 0 else (-den, -num)


def _accumulate(row: dict, j: int, value: tuple[int, int]) -> None:
    """Add to one off-diagonal entry, dropping it when it cancels to zero."""
    total = _add(row[j], value) if j in row else value
    if total[0]:
        row[j] = total
    else:
        del row[j]
