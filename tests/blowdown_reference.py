"""Reference blow-down: rescan every vertex for the next candidate, rebuild
the whole tree and eliminate the whole form again after every step.

This is the original scan-and-rebuild ``synthesis.blow_down``, kept as the
oracle the worklist kernel is compared with.
"""

from __future__ import annotations

from susplink.errors import BalanceError, UnsupportedError
from susplink.exactlinalg import eliminate
from susplink.graphs import Edge, PlumbingTree, Vertex, adjacency


def blow_down(tree: PlumbingTree) -> PlumbingTree:
    """Repeatedly blow down weight -1, genus-0, arrow-free vertices of
    valence <= 2 until none is left.

    A valence-2 blow-down joins the two neighbours by an edge of sign equal
    to the product of the removed signs and adds +1 to both their weights; a
    valence-1 blow-down adds +1 to the neighbour.  |det| of the intersection
    matrix is asserted invariant at every single step.  A last remaining
    vertex is never removed.
    """
    current = tree
    det = abs(eliminate(current).determinant)
    while True:
        candidate = _blow_down_candidate(current)
        if candidate is None:
            return current
        current = _blow_down_once(current, candidate)
        after = abs(eliminate(current).determinant)
        if after != det:
            raise BalanceError(
                f"blow-down changed |det| from {det} to {after}",
                elements=(candidate,))


def _blow_down_candidate(tree: PlumbingTree) -> int | None:
    if len(tree.vertices) <= 1:
        return None
    arrowed = {a.vertex for a in tree.arrows}
    adj = adjacency(tree.ids, tree.edges)
    for v in tree.vertices:
        if v.weight != -1 or v.genus != 0 or v.id in arrowed:
            continue
        nbrs = adj[v.id]
        if len(nbrs) > 2:
            continue
        if len(nbrs) == 2 and nbrs[0][0] == nbrs[1][0]:
            raise UnsupportedError(
                "blow-down of a vertex with two parallel edges to one "
                "neighbour is not supported", elements=(v.id,))
        return v.id
    return None


def _blow_down_once(tree: PlumbingTree, vid: int) -> PlumbingTree:
    incident = [e for e in tree.edges if vid in (e.u, e.v)]
    others = [e for e in tree.edges if vid not in (e.u, e.v)]
    bump = {}
    new_edges = list(others)
    if len(incident) == 2:
        (n1, s1), (n2, s2) = [
            (e.v if e.u == vid else e.u, e.sign) for e in incident
        ]
        bump = {n1: 1, n2: 1}
        new_edges.append(Edge(n1, n2, s1 * s2))
    elif len(incident) == 1:
        n1 = incident[0].v if incident[0].u == vid else incident[0].u
        bump = {n1: 1}
    vertices = tuple(
        Vertex(v.id, v.weight + bump.get(v.id, 0), v.genus, v.mult,
               v.flipped, v.origin)
        for v in tree.vertices if v.id != vid
    )
    return PlumbingTree(vertices, tuple(new_edges), tree.arrows)
