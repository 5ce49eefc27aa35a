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

The leaf pass runs on ints: vertex k keeps its pivot num_k/den_k and
right-hand side bn_k/den_k unreduced, and stripping leaf v (edge count x)
into k sets num_k <- num_k*num_v - x*x*den_v*den_k, bn_k <- bn_k*num_v -
x*bn_v*den_k and den_k <- den_k*num_v.  So num_v is the determinant of v
and all stripped into it, and den_v the product of those of its stripped
neighbours (on a chain, Hirzebruch-Jung continuants): nothing outgrows the
determinant, which is the product of num over the vertices stripped last
in their component, of den over the vertices left, and of the loop's
pivots.  The loop, which few forms reach, works on ``Fraction``s and only
its edge counts stay ints; its solution enters the leaves' integer
back-substitution as (numerator, denominator).  A rational right-hand side
is scaled to ints by the lcm of its denominators.  No floating point.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import MonodromyError


class Elimination(NamedTuple):
    determinant: int
    negative_definite: bool
    solution: list[Fraction] | None  # in the order of the graph's vertices


def eliminate(graph, rhs=None) -> Elimination:
    """Eliminate the form of ``graph`` (vertices with ``id`` and ``weight``,
    edges with ``u``, ``v`` and ``sign``); with ``rhs`` (ints or Fractions,
    one per vertex) also solve form @ x = rhs, raising MonodromyError if the
    form is singular.

    After the leaf pass, the pivot is the least-degree vertex whose reduced
    diagonal is nonzero, else a 2x2 block on a nonzero off-diagonal entry;
    with neither left the form is singular.
    """
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    if rhs is not None and len(rhs) != n:
        raise ValueError(f"rhs has {len(rhs)} entries for a form of {n} vertices")
    off: list[dict[int, int | Fraction]] = [{} for _ in range(n)]
    for e in graph.edges:
        u, v = index[e.u], index[e.v]
        x = off[u].get(v, 0) + e.sign
        if x:
            off[u][v] = off[v][u] = x
        else:
            del off[u][v], off[v][u]
    # Leaf pass on ints (module docstring), the rhs scaled by ``scale``.
    num, den = [v.weight for v in graph.vertices], [1] * n
    scale = lcm(*(x.denominator for x in rhs)) if rhs is not None else 1
    bn = [x.numerator * (scale // x.denominator) for x in rhs] if rhs is not None else None
    alive = [True] * n
    det, definite, leaves, steps, remaining = 1, True, [], [], n
    stack = [i for i in range(n) if len(off[i]) < 2]
    while stack:
        v = stack.pop()
        d, row = num[v], off[v]
        if not alive[v] or len(row) > 1 or not d:
            continue
        alive[v] = False
        remaining -= 1
        definite = definite and (d < 0) != (den[v] < 0)
        if not row:
            det *= d
        for k, x in row.items():
            del off[k][v]
            e = den[k]
            num[k] = num[k] * d - x * x * den[v] * e
            if bn is not None:
                bn[k] = bn[k] * d - x * bn[v] * e
            den[k] = e * d
            if len(off[k]) < 2:
                stack.append(k)
        leaves.append(v)
    # The vertices left enter det by their den, and the loop as Fractions.
    diag, b = [None] * n, [0] * n
    for k in (range(n) if remaining else ()):
        if alive[k]:
            det *= den[k]
            diag[k] = Fraction(num[k], den[k])
            if bn is not None:
                b[k] = Fraction(bn[k], den[k])
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
            if alive[v] and degree == len(off[v]) and diag[v]:
                block, inverse = (v,), {(v, v): 1 / diag[v]}
                det *= diag[v]
                definite = definite and diag[v] < 0
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
            block, inverse = (v, w), {(v, w): Fraction(1, c), (w, v): Fraction(1, c)}
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
                f = -x * p
                if b[t]:
                    b[k] += f * b[t]
                for l, y in couplings[t].items():
                    if k == l:
                        diag[k] += f * y
                    elif total := off[k].get(l, 0) + f * y:
                        off[k][l] = total
                    else:
                        del off[k][l]
        for k in set().union(*couplings.values()):
            heapq.heappush(heap, (len(off[k]), k))
        if rhs is not None:
            steps.append((block, inverse, couplings))
        remaining -= len(block)
    if rhs is None:
        return Elimination(int(det), definite, None)
    x = [0] * n
    for block, inverse, couplings in reversed(steps):
        residual = {t: b[t] - sum(y * x[k] for k, y in couplings[t].items()) for t in block}
        for (s, t), p in inverse.items():
            x[s] += p * residual[t]
    for block, _, _ in steps:
        for s in block:
            x[s] = x[s].numerator, x[s].denominator
    # x_v = (bn[v] - y * den[v] * x_k) / num[v] for v's one neighbour k,
    # with y = 0 and x_k = 0 when it had none; the pair comes out reduced.
    for v in reversed(leaves):
        d, e = num[v], den[v]
        y, p, q = 0, 0, 1
        for k, y in off[v].items():
            p, q = x[k]
        g = gcd(y * e, q)
        q //= g
        top = bn[v] * q - y * e // g * p
        g = gcd(top, d) if d > 0 else -gcd(top, d)
        x[v] = top // g, d // g * q
    return Elimination(int(det), definite, [Fraction(p, q * scale) if q * scale != 1
                                            else Fraction(p) for p, q in x])
