"""Reference edge-sign normalization, written from the docstring of
``synthesis.normalize_edge_signs`` alone: each vertex gets the colour
c = product of the edge signs on its tree path from the least id, then

* a vertex with a multiplicity takes |c * mult| and is flipped exactly
  where c * mult < 0; one without a multiplicity is flipped exactly where
  c < 0,
* an arrow takes c * mult,
* every edge takes sign +1, and weights, genera and labels stay.

The path signs come from a depth-first search that records each vertex's
parent, not from a breadth-first colouring, so it shares no code with the
kernel it checks.
"""

from __future__ import annotations

from susplink.graphs import Arrow, Edge, PlumbingTree, Vertex


def path_colours(tree: PlumbingTree) -> dict[int, int]:
    """Product of the edge signs on the path from the least id to each vertex."""
    root = min(tree.ids)
    parent = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        for e in tree.edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if a == u and b not in parent:
                    parent[b] = (u, e.sign)
                    stack.append(b)
    colour = {}
    for vid in tree.ids:
        c, x = 1, vid
        while parent[x] is not None:
            x, sign = parent[x]
            c *= sign
        colour[vid] = c
    return colour


def normalize_edge_signs(tree: PlumbingTree) -> PlumbingTree:
    colour = path_colours(tree)
    vertices = []
    for v in tree.vertices:
        c = colour[v.id]
        if v.mult is None:
            vertices.append(Vertex(v.id, v.weight, v.genus, None, c < 0, v.origin))
        else:
            vertices.append(Vertex(v.id, v.weight, v.genus, abs(c * v.mult),
                                   c * v.mult < 0, v.origin))
    return PlumbingTree(
        tuple(vertices),
        tuple(Edge(e.u, e.v, 1) for e in tree.edges),
        tuple(Arrow(a.vertex, colour[a.vertex] * a.mult, a.label) for a in tree.arrows))
