"""Step 5: synthesize the plumbing tree of the open book from its
Waldhausen graph, plus the blow-down calculus used to reduce the result.

Every Seifert pair (alpha, beta) becomes a Hirzebruch-Jung chain carrying
the negated expansion of alpha/(alpha - beta); gluing triplets become the
connecting chains, read from the side whose triplet they are.  Multiplicity
signs of the node fibres are fixed by a 2-coloring across the eps = -1
gluings, and every chain multiplicity plus every node weight is then forced
by the monodromical balance

    b_v * m_v + sum(neighbour multiplicities) + sum(arrow multiplicities) = 0

whose integrality doubles as a self-check of the whole pipeline.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .contfrac import cf_dual, neg_cf_eval, neg_cf_expand
from .errors import BalanceError, NotATreeError, UnsupportedError
from .exactlinalg import eliminate
from .graphs import (Arrow, Edge, PlumbingTree, Vertex, WaldhausenGraph, adjacency,
                     unbalanced)

__all__ = ["chain_mults", "synth_plumbing", "blow_down", "normalize_edge_signs",
           "reduce_tree", "strip_decorations", "verify_balance"]


def chain_mults(weights, left_mult: int, right_mult: int | None = None,
                arrow_mult: int | None = None) -> list[int]:
    """Exact multiplicities along a chain with given boundary data.

    ``left_mult`` is the multiplicity of the vertex attached before the first
    chain vertex.  The far end is either free (a leaf), another vertex of
    multiplicity ``right_mult``, or a binding arrow contributing the constant
    ``arrow_mult``.  Raises BalanceError when the solution is not integral.
    """
    if not weights:
        raise ValueError("empty chain")
    if right_mult is not None and arrow_mult is not None:
        raise ValueError("a chain end is either a vertex or an arrow, not both")
    k = len(weights)
    path = PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights)),
                        tuple(Edge(i, i + 1) for i in range(k - 1)))
    rhs = [0] * k
    rhs[0] -= left_mult
    rhs[-1] -= (right_mult or 0) + (arrow_mult or 0)
    solution = eliminate(path, rhs).solution
    if any(x.denominator != 1 for x in solution):
        raise BalanceError(
            f"monodromical balance failure: chain {list(weights)} with end data "
            f"({left_mult}, {right_mult if right_mult is not None else arrow_mult}) "
            f"has non-integral multiplicities {solution}")
    return [int(x) for x in solution]


def _two_colouring(ids, signed_edges) -> dict[int, int]:
    """+-1 per vertex with colour(v) = colour(u) * sign across every
    (u, v, sign) in ``signed_edges``, breadth first from the least id of
    each component; an odd cycle of -1 signs has none."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for u, v, sign in signed_edges:
        adj[u].append((v, sign))
        adj[v].append((u, sign))
    colors: dict[int, int] = {}
    for root in sorted(adj):
        if root in colors:
            continue
        colors[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, sign in adj[u]:
                want = colors[u] * sign
                if v not in colors:
                    colors[v] = want
                    queue.append(v)
                elif colors[v] != want:
                    raise BalanceError(
                        "eps-parity 2-coloring impossible (odd gluing cycle)",
                        elements=(u, v))
    return colors


def synth_plumbing(w: WaldhausenGraph, keep_arrows: bool = False) -> PlumbingTree:
    """Plumbing tree whose boundary carries the open book described by ``w``.

    Node vertices keep their Waldhausen ids; chain vertices get fresh ids.
    The returned tree always carries multiplicities; binding arrows are
    dropped unless ``keep_arrows``.  The monodromical balance is re-checked
    globally before returning.
    """
    # multiplicity signs of the Seifert pieces, across the eps = -1 gluings
    colors = _two_colouring(w.ids, [(e.u, e.v, e.eps) for e in w.edges])
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    arrows: list[Arrow] = []
    node_weight_terms: dict[int, int] = {v.id: 0 for v in w.vertices}
    next_id = max(w.ids) + 1 if w.ids else 1

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def attach_chain(node: int, alpha: int, beta: int, origin: str,
                     far_arrow: int | None = None) -> list[tuple[int, int]]:
        """Chain of -neg_cf_expand(alpha, alpha - beta) hanging off ``node``.
        Returns [(vertex id, weight), ...]; multiplicities are filled later."""
        weights = [-b for b in neg_cf_expand(alpha, alpha - beta)]
        chain_ids = [fresh() for _ in weights]
        prev = node
        for i, (vid, wt) in enumerate(zip(chain_ids, weights)):
            vertices.append(Vertex(vid, wt, 0, None, False,
                                   f"{origin}[{i + 1}]"))
            edges.append(Edge(prev, vid, 1))
            prev = vid
        if far_arrow is not None:
            arrows.append(Arrow(chain_ids[-1], far_arrow, "binding"))
        return list(zip(chain_ids, weights))

    mult: dict[int, int] = {}
    for v in w.vertices:
        mult[v.id] = colors[v.id] * v.order
        vertices.append(Vertex(v.id, 0, v.genus, mult[v.id],
                               colors[v.id] < 0, f"piece {v.id}"))

    pending: list[tuple] = []  # (chain ids+weights, left node, right datum)
    for s in sorted(w.stalks, key=lambda s: (s.vertex, s.alpha, s.beta)):
        chain = attach_chain(s.vertex, s.alpha, s.beta,
                             f"stalk ({s.alpha},{s.beta}) of {s.vertex}")
        pending.append((chain, s.vertex, None, None))
    for a in sorted(w.arrows, key=lambda a: (a.vertex, a.alpha, a.beta)):
        sign = colors[a.vertex]
        if a.alpha == 1:
            arrows.append(Arrow(a.vertex, sign, "binding"))
            node_weight_terms[a.vertex] += sign
            continue
        chain = attach_chain(a.vertex, a.alpha, a.beta,
                             f"arrow ({a.alpha},{a.beta}) of {a.vertex}",
                             far_arrow=sign)
        pending.append((chain, a.vertex, None, sign))
    for e in sorted(w.edges, key=lambda e: (e.u, e.v, e.alpha, e.beta_u)):
        if e.alpha == 1:
            edges.append(Edge(e.u, e.v, 1))
            node_weight_terms[e.u] += mult[e.v]
            node_weight_terms[e.v] += mult[e.u]
            continue
        expansion = neg_cf_expand(e.alpha, e.alpha - e.beta_u)
        reverse = neg_cf_eval(list(reversed(expansion)))
        dual = cf_dual(e.alpha, e.beta_u)
        if reverse != (e.alpha, e.alpha - dual):
            raise BalanceError(
                f"chain reversal duality failure on edge ({e.u}, {e.v}): "
                f"reversed chain evaluates to {reverse[0]}/{reverse[1]}, "
                f"expected {e.alpha}/{e.alpha - dual}")
        chain = attach_chain(e.u, e.alpha, e.beta_u,
                             f"chain ({e.alpha},{e.beta_u}) from {e.u} to {e.v}")
        edges.append(Edge(chain[-1][0], e.v, 1))
        pending.append((chain, e.u, e.v, None))

    mult_of_chain: dict[int, int] = {}
    for chain, left, right, arrow_sign in pending:
        weights = [wt for _, wt in chain]
        if right is not None:
            values = chain_mults(weights, mult[left], right_mult=mult[right])
            node_weight_terms[right] += values[-1]
        elif arrow_sign is not None:
            values = chain_mults(weights, mult[left], arrow_mult=arrow_sign)
        else:
            values = chain_mults(weights, mult[left])
        node_weight_terms[left] += values[0]
        for (vid, _), value in zip(chain, values):
            mult_of_chain[vid] = value

    node_weights: dict[int, int] = {}
    for v in w.vertices:
        total = Fraction(node_weight_terms[v.id], mult[v.id])
        if total.denominator != 1:
            raise BalanceError(
                f"monodromical balance failure: node {v.id} weight "
                f"-({node_weight_terms[v.id]})/({mult[v.id]}) is not integral",
                elements=(v.id,))
        node_weights[v.id] = -int(total)

    final_vertices = tuple(
        Vertex(v.id, node_weights[v.id], v.genus, v.mult, v.flipped, v.origin)
        if v.mult is not None
        else Vertex(v.id, v.weight, v.genus, mult_of_chain[v.id], False, v.origin)
        for v in vertices
    )
    tree = PlumbingTree(final_vertices, tuple(edges), tuple(arrows))
    verify_balance(tree)
    if not keep_arrows:
        tree = strip_decorations(tree, keep_mults=True)
    return tree


def verify_balance(tree: PlumbingTree) -> None:
    """Global re-check that weights, multiplicities and binding arrows solve
    the monodromical system at every vertex."""
    bad = unbalanced(tree, {v.id: v.mult or 0 for v in tree.vertices})
    if bad:
        raise BalanceError(
            "monodromical balance failure at synthesized vertices",
            elements=bad)


def strip_decorations(tree: PlumbingTree, keep_mults: bool = False) -> PlumbingTree:
    """Drop binding arrows (and optionally multiplicities) for figure-style output."""
    vertices = tuple(
        v if keep_mults else Vertex(v.id, v.weight, v.genus, None, False, v.origin)
        for v in tree.vertices
    )
    return PlumbingTree(vertices, tree.edges, ())


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


def reduce_tree(tree: PlumbingTree) -> PlumbingTree:
    """Blow ``tree`` down, normalizing its edge signs first when it is a tree."""
    if tree.is_tree():
        tree = normalize_edge_signs(tree)
    return blow_down(tree)


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


def normalize_edge_signs(tree: PlumbingTree) -> PlumbingTree:
    """Turn every edge sign positive by flipping fibre orientations on one
    side of each -1 edge; weights are unchanged, multiplicity signs move
    into per-vertex flip flags.  Only defined on trees."""
    if not tree.is_tree():
        raise NotATreeError("not a tree: sign normalization skipped")
    colors = _two_colouring(tree.ids, [(e.u, e.v, e.sign) for e in tree.edges])
    vertices = []
    for v in tree.vertices:
        if v.mult is None:
            vertices.append(Vertex(v.id, v.weight, v.genus, None,
                                   colors[v.id] < 0, v.origin))
        else:
            signed = colors[v.id] * v.mult
            vertices.append(Vertex(v.id, v.weight, v.genus, abs(signed),
                                   signed < 0, v.origin))
    arrows = tuple(
        Arrow(a.vertex, colors[a.vertex] * a.mult, a.label) for a in tree.arrows
    )
    edges = tuple(Edge(e.u, e.v, 1) for e in tree.edges)
    return PlumbingTree(tuple(vertices), edges, arrows)
