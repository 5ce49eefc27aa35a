"""Step 3: Nielsen graph of the r-th power of a quasi-periodic diffeomorphism.

Per vertex of order m let n = gcd(m, r).  The power has order m/n on that
piece, and every incidence with valency (lam, sigma) lifts to

    n_i = gcd(m/lam, r)   copies with
    lam' = lam * n_i / n  and  sigma' * (r/n) = sigma  (mod lam') ,

with all twists multiplied by r.  The piece of the fibre over the vertex
has d components, the gcd of m/lam over its incidences, which the
monodromy permutes cyclically; under the power they fall into
c = gcd(d, r) orbits, and c divides every n_i.  The vertex therefore
becomes c vertices, each with n_i/c lifts of every incidence and the
Riemann-Hurwitz genus (n/c)*(g-1) + 1 + sum(n - n_i) / (2c).

The valency transform lam' = lam * n_i / n is the orbit count of the lifted
exceptional point: the published closed form m/(lam * n_i) disagrees with
the worked examples whenever n > 1, so the orbit-count form is used and
``valency_formula_notes`` reports any instance where the two differ.
"""

from __future__ import annotations

from math import gcd, lcm

from . import synthesis
from .errors import InputError, UnsupportedError
from .graphs import (
    BoundaryStalk,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    Stalk,
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
    """Nielsen graph of the r-th power (r = 1 returns an identical graph).

    A Nielsen vertex is one orbit of pieces of period m, and q = 1 also on
    a piece with d > 1 components, since d is read off the valencies.  Of
    the c copies of a vertex the first keeps its id and the others get
    fresh ids after the largest one, listed right after it; the j-th lift
    of each incidence goes to copy j mod c.  A vertex without incidences
    stays whole.  Each list is held to ``synthesis.MAX_VERTICES`` entries.
    """
    if r < 1:
        raise InputError(f"power must be >= 1, got {r}")

    # n - n_i per incidence: m/lam, so n_i, agrees at both ends of an edge.
    order = {v.id: v.order for v in n.vertices}
    components = dict.fromkeys(order, 0)
    branch_deficits = dict.fromkeys(order, 0)
    for vid, lam, _ in n.incidences():
        components[vid] = gcd(components[vid], order[vid] // lam)
        branch_deficits[vid] += gcd(order[vid], r) - gcd(order[vid] // lam, r)
    orbits = {vid: gcd(d, r) if d else 1 for vid, d in components.items()}
    stalk_lifts = [_lift_valency(order[s.vertex], r, s.lam, s.sigma) for s in n.stalks]
    # Every list is counted before any is built: an incidence has n_i lifts.
    for name, size in (
            ("vertices", sum(orbits.values())),
            ("stalks", sum(copies for copies, lam, _ in stalk_lifts if lam > 1)),
            ("boundary_stalks", sum(gcd(order[b.vertex] // b.lam, r) for b in n.boundary_stalks)),
            ("edges", sum(gcd(order[e.u] // e.lam_u, r) for e in n.edges))):
        if size > synthesis.MAX_VERTICES:
            raise UnsupportedError(f"the Nielsen graph of the power would have {size} {name}, "
                                   f"more than the {synthesis.MAX_VERTICES} supported")
    next_id = max(order, default=0) + 1
    copies_of: dict[int, list[int]] = {}
    for vid, c in orbits.items():
        copies_of[vid] = [vid, *range(next_id, next_id + c - 1)]
        next_id += c - 1

    # The j-th lift of an incidence goes to copy j mod c of its vertex.  c
    # divides the lift count, so the lifts are a block of one lift per
    # copy, repeated; an edge's block has lcm(c_u, c_v) lifts.
    stalks = []
    for s, (copies, lam, sigma) in zip(n.stalks, stalk_lifts):
        if lam > 1:
            ids = copies_of[s.vertex]
            stalks.extend([Stalk(vid, lam, sigma) for vid in ids] * (copies // len(ids)))

    boundary = []
    for b in n.boundary_stalks:
        copies, lam, sigma = _lift_valency(order[b.vertex], r, b.lam, b.sigma)
        ids = copies_of[b.vertex]
        boundary.extend([BoundaryStalk(vid, lam, sigma, r * b.twist) for vid in ids]
                        * (copies // len(ids)))

    edges = []
    for e in n.edges:
        copies, lam_u, sigma_u = _lift_valency(order[e.u], r, e.lam_u, e.sigma_u)
        _, lam_v, sigma_v = _lift_valency(order[e.v], r, e.lam_v, e.sigma_v)
        us, vs = copies_of[e.u], copies_of[e.v]
        period = lcm(len(us), len(vs))
        edges.extend([NielsenEdge(us[j % len(us)], vs[j % len(vs)], r * e.twist,
                                  lam_u, sigma_u, lam_v, sigma_v)
                      for j in range(period)] * (copies // period))

    vertices = []
    for v in n.vertices:
        nv, c = gcd(v.order, r), len(copies_of[v.id])
        deficit = branch_deficits[v.id] // c
        if deficit % 2:
            raise InputError(
                f"branch count sum {deficit} at vertex {v.id} is odd; "
                "fractional orbit genus", elements=(v.id,))
        genus = nv // c * (v.genus - 1) + 1 + deficit // 2
        if genus < 0:
            raise InputError(f"negative orbit genus at vertex {v.id}",
                             elements=(v.id,))
        vertices.extend(NielsenVertex(vid, v.order // nv, genus, 1)
                        for vid in copies_of[v.id])

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
