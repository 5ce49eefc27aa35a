"""Decoration-preserving isomorphism of Nielsen graphs, the test oracle for
comparing a graph built one way with the same graph built another (relabelled
vertices, a power taken in steps or at once)."""

from itertools import permutations

from susplink.graphs import NielsenGraph


def _vertex_signature(n: NielsenGraph, vid: int):
    (v,) = (x for x in n.vertices if x.id == vid)
    stalks = sorted((s.lam, s.sigma) for s in n.stalks if s.vertex == vid)
    bnd = sorted((b.lam, b.sigma, b.twist) for b in n.boundary_stalks
                 if b.vertex == vid)
    ends = sorted(
        [(e.twist, e.lam_u, e.sigma_u) for e in n.edges if e.u == vid]
        + [(e.twist, e.lam_v, e.sigma_v) for e in n.edges if e.v == vid]
    )
    return (v.order, v.genus, v.q, tuple(stalks), tuple(bnd), tuple(ends))


def _edge_multiset(n: NielsenGraph, relabel):
    out = []
    for e in n.edges:
        a = (relabel[e.u], e.lam_u, e.sigma_u)
        b = (relabel[e.v], e.lam_v, e.sigma_v)
        out.append((e.twist,) + tuple(sorted((a, b))))
    return sorted(out)


def nielsen_isomorphic(a: NielsenGraph, b: NielsenGraph) -> bool:
    """Decoration-preserving graph isomorphism (brute force over the small
    vertex sets that occur here)."""
    if a == b:
        return True
    if len(a.vertices) != len(b.vertices):
        return False
    sig_a = {v.id: _vertex_signature(a, v.id) for v in a.vertices}
    sig_b = {v.id: _vertex_signature(b, v.id) for v in b.vertices}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False
    ids_a = list(a.ids)
    for perm in permutations(b.ids):
        relabel = dict(zip(ids_a, perm))
        if any(sig_a[u] != sig_b[relabel[u]] for u in ids_a):
            continue
        if _edge_multiset(a, relabel) == _edge_multiset(b, {i: i for i in b.ids}):
            return True
    return False
