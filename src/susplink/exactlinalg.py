"""One sparse exact elimination of the intersection form of a plumbing graph.

The form has the vertex weights on the diagonal and the summed edge signs
off it.  A sign may be any int: +-1 on a plumbing edge, P/alpha on the
node form of a Waldhausen graph (``invariants.waldhausen_form``).  A leaf
pass first strips, while there is one, a vertex with at most one
off-diagonal entry and a nonzero reduced diagonal, changing only its
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
pivots.  The loop, which few forms reach, runs on ints too: vertex k keeps
num_k, den_k, bn_k and a row R_k of true entries R_k[l]/den_k.  A 1x1 pivot
v takes a = R_k[v] out of each neighbour's row, sets R_k[l] <- R_k[l]*num_v
minus a*R_v[l] (num_k and bn_k likewise, with R_v[k] and bn_v) and den_k <-
den_k*num_v, and divides the row by its gcd; a 2x2 block on zero diagonals
v, w scales by c_v*c_w (c_v = R_v[w], c_w = R_w[v]) and subtracts a_v*c_v*R_w
and a_w*c_w*R_v.  det/det_den and each x_v = (bn_v - sum of R_v[l]*x_l)/num_v
are reduced int pairs, and only the returned solution is ``Fraction``s.  A
rational right-hand side is scaled to ints by the lcm of its denominators.
No floating point.
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
    edges with ``u`` != ``v`` and ``sign``, an int off-diagonal entry that
    parallel edges add to); with ``rhs`` (ints or Fractions, one per vertex)
    also solve form @ x = rhs, raising MonodromyError if the form is singular.
    An edge with ``u`` == ``v`` or an ``rhs`` of the wrong length is a ValueError.

    After the leaf pass, the pivot is the least-degree vertex whose reduced
    diagonal is nonzero, else a 2x2 block on a nonzero off-diagonal entry;
    with neither left the form is singular.
    """
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    if rhs is not None and len(rhs) != n:
        raise ValueError(f"rhs has {len(rhs)} entries for a form of {n} vertices")
    off: list[dict[int, int]] = [{} for _ in range(n)]
    for e in graph.edges:
        u, v = index[e.u], index[e.v]
        if u == v:
            raise ValueError(f"edge from vertex {e.u} to itself: the form has no self-loops")
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
    # The vertices left enter det by their den, and the loop with rows scaled by den.
    b, det_den = bn if bn is not None else [0] * n, 1
    heap = [(len(off[k]), k) for k in range(n) if alive[k]]
    for _, k in heap:
        det *= den[k]
        off[k] = {l: x * den[k] for l, x in off[k].items()}
    heapq.heapify(heap)
    # A vertex the 2x2 search passes over is dead, or has no off-diagonal
    # entry and so is no block's neighbour; fill-in only joins two
    # neighbours of a block, so that vertex never qualifies again and the
    # search resumes where it stopped.
    cursor = 0
    while remaining:
        # Each (s, t, q, f) of a pivot solves x_t from row s over q; f = p/q.
        while heap:
            degree, v = heapq.heappop(heap)
            if alive[v] and degree == len(off[v]) and num[v]:
                p, w, solved = num[v], v, ((v, v, num[v], 1),)
                det, det_den = det * p, det_den * den[v]
                definite = definite and (p < 0) != (den[v] < 0)
                break
        else:
            while cursor < n and not (alive[cursor] and off[cursor]):
                cursor += 1
            if cursor == n:
                if rhs is not None:
                    raise MonodromyError("degenerate monodromical system: singular matrix")
                return Elimination(0, False, None)
            v, w = cursor, min(off[cursor])
            cv, cw = off[v].pop(w), off[w].pop(v)
            p, solved = cv * cw, ((v, w, cv, cw), (w, v, cw, cv))
            det, det_den, definite = -det * p, det_den * den[v] * den[w], False
        det, det_den = det // (g := gcd(det, det_den)), det_den // g
        alive[v] = alive[w] = False
        # Row k <- p * row k - sum of a * f * row s over the entries a = R_k[t].
        for k in off[v].keys() | off[w].keys():
            row = off[k]
            terms = [(row.pop(t) * f, s) for s, t, _, f in solved if t in row]
            new = {l: y * p for l, y in row.items()}
            d, e, c = num[k] * p, b[k] * p, den[k] * p
            for a, s in terms:
                e -= a * b[s]
                for l, y in off[s].items():
                    if l == k:
                        d -= a * y
                    elif total := new.get(l, 0) - a * y:
                        new[l] = total
                    else:
                        del new[l]
            g = gcd(d, c, e, *new.values())
            if g != 1:
                d, c, e, new = d // g, c // g, e // g, {l: y // g for l, y in new.items()}
            num[k], den[k], b[k], off[k] = d, c, e, new
            heapq.heappush(heap, (len(new), k))
        steps += solved
        remaining -= len(solved)
    det //= det_den
    if rhs is None:
        return Elimination(det, definite, None)
    # x_t = (b_s - sum of R_s[l] * x_l) / q, each x as a reduced pair.
    x = [(0, 1)] * n
    for s, t, q, _ in reversed(steps):
        top, d = b[s], 1
        for l, y in off[s].items():
            p, r = x[l]
            g = gcd(d, r)
            top, d = top * (r // g) - y * p * (d // g), d // g * r
        d *= q
        g = gcd(top, d) if d > 0 else -gcd(top, d)
        x[t] = top // g, d // g
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
    return Elimination(det, definite, [Fraction(p, q * scale) if q * scale != 1
                                       else Fraction(p) for p, q in x])
