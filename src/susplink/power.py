"""Step 3: Nielsen graph of the r-th power of a quasi-periodic diffeomorphism.

Per vertex of order m let n = gcd(m, r).  The power has order m/n on that
piece, and every incidence with valency (lam, sigma) lifts to

    n_i = gcd(m/lam, r)   copies with
    lam' = lam * n_i / n  and  sigma' * (r/n) = sigma  (mod lam') ,

with all twists multiplied by r.  The orbit-space genus follows the
Riemann-Hurwitz count n*(g-1) + 1 + (1/2) * sum(n - n_i).

The valency transform lam' = lam * n_i / n is the orbit count of the lifted
exceptional point: the published closed form m/(lam * n_i) disagrees with
the worked examples whenever n > 1, so the orbit-count form is used and
``valency_formula_notes`` reports any instance where the two differ.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError
from .graphs import (
    BoundaryStalk,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    Stalk,
    require_fixed_pieces,
)

__all__ = ["power_nielsen", "valency_formula_notes"]


def _lift_valency(m: int, r: int, lam: int, sigma: int) -> tuple[int, int, int]:
    """Return (copies, lam', sigma') for one incidence at a vertex of order m."""
    n = gcd(m, r)
    n_i = gcd(m // lam, r)
    lam_new = lam * n_i // n
    sigma_new = (sigma * pow(r // n, -1, lam_new)) % lam_new
    return n_i, lam_new, sigma_new


def power_nielsen(n: NielsenGraph, r: int) -> NielsenGraph:
    """Nielsen graph of the r-th power (r = 1 returns an identical graph)."""
    if r < 1:
        raise InputError(f"power must be >= 1, got {r}")
    require_fixed_pieces(n.vertices)

    order = {v.id: v.order for v in n.vertices}
    branch_deficits: dict[int, int] = {v.id: 0 for v in n.vertices}

    stalks = []
    for s in n.stalks:
        copies, lam, sigma = _lift_valency(order[s.vertex], r, s.lam, s.sigma)
        branch_deficits[s.vertex] += gcd(order[s.vertex], r) - copies
        if lam > 1:
            stalks.extend([Stalk(s.vertex, lam, sigma)] * copies)

    boundary = []
    for b in n.boundary_stalks:
        copies, lam, sigma = _lift_valency(order[b.vertex], r, b.lam, b.sigma)
        branch_deficits[b.vertex] += gcd(order[b.vertex], r) - copies
        boundary.extend([BoundaryStalk(b.vertex, lam, sigma, r * b.twist)] * copies)

    edges = []
    for e in n.edges:
        copies, lam_u, sigma_u = _lift_valency(order[e.u], r, e.lam_u, e.sigma_u)
        _, lam_v, sigma_v = _lift_valency(order[e.v], r, e.lam_v, e.sigma_v)
        branch_deficits[e.u] += gcd(order[e.u], r) - copies
        branch_deficits[e.v] += gcd(order[e.v], r) - copies
        edges.extend(
            [NielsenEdge(e.u, e.v, r * e.twist, lam_u, sigma_u, lam_v, sigma_v)]
            * copies)

    vertices = []
    for v in n.vertices:
        nv = gcd(v.order, r)
        deficit = branch_deficits[v.id]
        if deficit % 2:
            raise InputError(
                f"branch count sum {deficit} at vertex {v.id} is odd; "
                "fractional orbit genus", elements=(v.id,))
        genus = nv * (v.genus - 1) + 1 + deficit // 2
        if genus < 0:
            raise InputError(f"negative orbit genus at vertex {v.id}",
                             elements=(v.id,))
        vertices.append(NielsenVertex(v.id, v.order // nv, genus, 1))

    return NielsenGraph(tuple(vertices), tuple(stalks), tuple(boundary), tuple(edges))


def valency_formula_notes(n: NielsenGraph, r: int) -> tuple[str, ...]:
    """Audit notes listing incidences where the published valency transform
    m/(lam*n_i) differs from the orbit-count transform lam*n_i/n in use."""
    notes = []
    order = {v.id: v.order for v in n.vertices}
    for vid, lam, sigma in n.incidences():
        m = order[vid]
        n_i, used, _ = _lift_valency(m, r, lam, sigma)
        closed = m // (lam * n_i) if m % (lam * n_i) == 0 else None
        if closed != used:
            notes.append(
                f"vertex {vid}: valency ({lam},{sigma}) lifts with lam' = {used} "
                f"(closed form m/(lam*n_i) would give {closed})")
    return tuple(notes)
