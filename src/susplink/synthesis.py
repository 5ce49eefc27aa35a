"""Step 5: synthesize the plumbing tree of the open book from its
Waldhausen graph, plus the blow-down calculus used to reduce the result.

Every Seifert pair (alpha, beta) becomes a Hirzebruch-Jung chain carrying
the negated expansion of alpha/(alpha - beta), and the trivial pair
alpha = 1 the empty chain; gluing triplets become the connecting chains,
read from the side whose triplet they are, and a binding arrow sits past
the far end of its chain.  Multiplicity signs of the node fibres are fixed
by a 2-coloring across the eps = -1 gluings, and every chain multiplicity
plus every node weight is then forced by the monodromical balance

    b_v * m_v + sum(neighbour multiplicities) + sum(arrow multiplicities) = 0

whose integrality doubles as a self-check of the whole pipeline.
"""

from __future__ import annotations

import heapq
from contextlib import suppress
from fractions import Fraction

from .contfrac import neg_cf_expand
from .errors import BalanceError, MonodromyError, NotATreeError, UnsupportedError
from .exactlinalg import eliminate
from .graphs import (Arrow, Edge, PlumbingTree, Vertex, WaldhausenGraph, _two_colouring,
                     unbalanced)

__all__ = ["chain_mults", "synth_plumbing", "blow_down", "normalize_edge_signs",
           "reduce_tree", "strip_decorations", "verify_balance"]


def chain_mults(weights, left_mult: int, right_mult: int = 0) -> list[int]:
    """Exact multiplicities along a chain of ``weights``.

    ``left_mult`` is the multiplicity of the vertex before the first chain
    vertex and ``right_mult`` what lies past the last one: the multiplicity
    of a neighbouring vertex, that of a binding arrow, or 0 at a leaf.  Both
    enter the balance of their end vertex as constants.  Raises BalanceError
    when the solution is not integral; an empty chain has no multiplicities.

    The balance w_i*m_i + m_(i-1) + m_(i+1) = 0 is a three-term recurrence:
    with m_0 = ``left_mult`` every m_i is p_i*m_1 + q_i in integers, and
    m_(k+1) = ``right_mult`` fixes m_1.  p_(k+1) is, up to sign, the
    determinant of the chain's form, so the system is singular iff it is 0.
    """
    if not weights:
        return []
    p0, q0, p1, q1 = 0, left_mult, 1, 0
    for w in weights:
        p0, q0, p1, q1 = p1, q1, -w * p1 - p0, -w * q1 - q0
    if p1 == 0:
        raise MonodromyError("degenerate monodromical system: singular matrix")
    first, rest = divmod(right_mult - q1, p1)
    if rest:
        solution = _chain_values(weights, left_mult, Fraction(right_mult - q1, p1))
        raise BalanceError(
            f"monodromical balance failure: chain {list(weights)} with end data "
            f"({left_mult}, {right_mult}) has non-integral multiplicities {solution}")
    return _chain_values(weights, left_mult, first)


def _chain_values(weights, left_mult, first):
    """m_1, ..., m_k of the recurrence from m_0 = ``left_mult`` and
    m_1 = ``first``."""
    values = [first]
    prev, cur = left_mult, first
    for w in weights[:-1]:
        prev, cur = cur, -w * cur - prev
        values.append(cur)
    return values


def synth_plumbing(w: WaldhausenGraph) -> PlumbingTree:
    """Plumbing tree whose boundary carries the open book described by ``w``,
    with its binding arrows and every multiplicity.

    Node vertices keep their Waldhausen ids and come first; chain vertices
    get fresh ids in the order their chains are attached.  Each chain is
    solved as it is attached, and each node weight follows from the sum of
    its neighbour and arrow multiplicities.  The monodromical balance is
    re-checked globally before returning.
    """
    # multiplicity signs of the Seifert pieces, across the eps = -1 gluings
    colors, _ = _two_colouring(w.ids, [(e.u, e.v, e.eps) for e in w.edges])
    mult = {v.id: colors[v.id] * v.order for v in w.vertices}
    # sum of the neighbour and arrow multiplicities at each node
    terms = {v.id: 0 for v in w.vertices}
    chain_vertices: list[Vertex] = []
    edges: list[Edge] = []
    arrows: list[Arrow] = []
    next_id = max(w.ids) + 1 if w.ids else 1

    def attach_chain(node: int, alpha: int, beta: int, origin: str,
                     far_mult: int = 0) -> tuple[int, int]:
        """Chain of -neg_cf_expand(alpha, alpha - beta) hanging off ``node``,
        empty for the trivial pair alpha = 1, with ``far_mult`` past its far
        end; returns the id and the multiplicity of its last vertex, which
        is ``node`` itself when the chain is empty."""
        nonlocal next_id
        weights = [-b for b in neg_cf_expand(alpha, alpha - beta)] if alpha > 1 else []
        values = [mult[node], *chain_mults(weights, mult[node], far_mult), far_mult]
        terms[node] += values[1]
        prev = node
        for i, (wt, m) in enumerate(zip(weights, values[1:])):
            chain_vertices.append(Vertex(next_id, wt, 0, m, False, f"{origin}[{i + 1}]"))
            edges.append(Edge(prev, next_id))
            prev = next_id
            next_id += 1
        return prev, values[-2]

    for s in sorted(w.stalks, key=lambda s: (s.vertex, s.alpha, s.beta)):
        attach_chain(s.vertex, s.alpha, s.beta, f"stalk ({s.alpha},{s.beta}) of {s.vertex}")
    for a in sorted(w.arrows, key=lambda a: (a.vertex, a.alpha, a.beta)):
        sign = -colors[a.vertex] if a.reversed else colors[a.vertex]
        last, _ = attach_chain(a.vertex, a.alpha, a.beta,
                               f"arrow ({a.alpha},{a.beta}) of {a.vertex}", sign)
        arrows.append(Arrow(last, sign, "binding"))
    for e in sorted(w.edges, key=lambda e: (e.u, e.v, e.alpha, e.beta_u)):
        last, last_mult = attach_chain(
            e.u, e.alpha, e.beta_u, f"chain ({e.alpha},{e.beta_u}) from {e.u} to {e.v}",
            mult[e.v])
        edges.append(Edge(last, e.v))
        terms[e.v] += last_mult

    nodes = []
    for v in w.vertices:
        weight, rest = divmod(-terms[v.id], mult[v.id])
        if rest:
            raise BalanceError(
                f"monodromical balance failure: node {v.id} weight "
                f"-({terms[v.id]})/({mult[v.id]}) is not integral",
                elements=(v.id,))
        nodes.append(Vertex(v.id, weight, v.genus, mult[v.id], colors[v.id] < 0,
                            f"piece {v.id}"))
    tree = PlumbingTree(tuple(nodes + chain_vertices), tuple(edges), tuple(arrows))
    verify_balance(tree)
    return tree


def verify_balance(tree: PlumbingTree) -> None:
    """Global re-check that weights, multiplicities and binding arrows solve
    the monodromical system at every vertex."""
    bad = unbalanced(tree, {v.id: v.mult or 0 for v in tree.vertices})
    if bad:
        raise BalanceError(
            "monodromical balance failure at synthesized vertices",
            elements=bad)


def strip_decorations(tree: PlumbingTree) -> PlumbingTree:
    """``tree`` without its binding arrows, for figure-style output and for
    blow-down, which never removes a vertex that carries an arrow; weights,
    multiplicities and flip flags are kept."""
    return PlumbingTree(tree.vertices, tree.edges, ())


def blow_down(tree: PlumbingTree) -> PlumbingTree:
    """Repeatedly blow down weight -1, genus-0, arrow-free vertices of
    valence <= 2, always the first one in vertex order, until none is left.
    A last remaining vertex is never removed.

    Blowing down a -1 vertex is the Schur complement of the intersection
    form at it (Neumann's move R1): each neighbour gains +1 on its weight,
    and at valence 2 the two neighbours are joined by an edge of sign equal
    to the product of the removed signs, so det A = -det A'.  The steps
    work on one state: a weight per id, the edges in their order with the
    removed ones set to None and each joining edge appended, and per id its
    incident edge indices in edge order.  The reduced tree is built once,
    after the last step, and when a vertex was removed |det| of its form is
    compared with that of the input.

    Only the -1 vertices and the neighbours of a removed vertex can become
    candidates, so their positions wait in a heap, and the least one is
    re-checked when it is taken.
    """
    order = tree.ids
    position = {vid: i for i, vid in enumerate(order)}
    weight = {v.id: v.weight for v in tree.vertices}
    edges: list[Edge | None] = list(tree.edges)
    incident: dict[int, dict[int, None]] = {vid: {} for vid in order}
    for i, e in enumerate(edges):
        incident[e.u][i] = incident[e.v][i] = None
    pinned = {v.id for v in tree.vertices if v.genus} | {a.vertex for a in tree.arrows}
    worklist = [i for i, v in enumerate(tree.vertices) if v.weight == -1]  # sorted: a heap
    while len(weight) > 1 and worklist:
        vid = order[heapq.heappop(worklist)]
        if weight.get(vid) != -1 or vid in pinned or len(incident[vid]) > 2:
            continue
        ends = []
        for i in incident.pop(vid):
            e, edges[i] = edges[i], None
            n = e.v if e.u == vid else e.u
            del incident[n][i]
            ends.append((n, e.sign))
        if len(ends) == 2 and ends[0][0] == ends[1][0]:
            raise UnsupportedError(
                "blow-down of a vertex with two parallel edges to one "
                "neighbour is not supported", elements=(vid,))
        del weight[vid]
        for n, _ in ends:
            weight[n] += 1
            heapq.heappush(worklist, position[n])
        if len(ends) == 2:
            (n1, s1), (n2, s2) = ends
            incident[n1][len(edges)] = incident[n2][len(edges)] = None
            edges.append(Edge(n1, n2, s1 * s2))
    if len(weight) == len(order):
        return tree
    out = PlumbingTree(
        tuple(v if v.weight == weight[v.id] else
              Vertex(v.id, weight[v.id], v.genus, v.mult, v.flipped, v.origin)
              for v in tree.vertices if v.id in weight),
        tuple(e for e in edges if e is not None), tree.arrows)
    det, after = abs(eliminate(tree).determinant), abs(eliminate(out).determinant)
    if after != det:
        raise BalanceError(f"blow-down changed |det| from {det} to {after}")
    return out


def reduce_tree(tree: PlumbingTree) -> PlumbingTree:
    """Blow ``tree`` down, normalizing its edge signs first when it is a tree."""
    with suppress(NotATreeError):
        tree = normalize_edge_signs(tree)
    return blow_down(tree)


def normalize_edge_signs(tree: PlumbingTree) -> PlumbingTree:
    """Turn every edge sign positive: one breadth-first pass from the least
    id colours each vertex c = the product of the signs on its path, and
    counts the components (a tree has one, and |V| - 1 edges).  A vertex
    keeps its weight, takes |c * mult| and is flipped where c * mult < 0
    (c < 0 without a mult), an arrow takes c * mult; what stays is reused."""
    colors, roots = {}, 0
    with suppress(BalanceError):  # an odd -1 cycle: not a tree either
        colors, roots = _two_colouring(tree.ids, [(e.u, e.v, e.sign) for e in tree.edges])
    if roots != 1 or len(tree.edges) != len(tree.vertices) - 1:
        raise NotATreeError("not a tree: sign normalization skipped")
    vertices = []
    for v in tree.vertices:
        signed = colors[v.id] * (1 if v.mult is None else v.mult)
        mult = None if v.mult is None else abs(signed)
        vertices.append(v if (mult, signed < 0) == (v.mult, v.flipped) else
                        Vertex(v.id, v.weight, v.genus, mult, signed < 0, v.origin))
    return PlumbingTree(
        tuple(vertices), tuple(e if e.sign == 1 else Edge(e.u, e.v) for e in tree.edges),
        tuple(a if colors[a.vertex] == 1 else Arrow(a.vertex, -a.mult, a.label)
              for a in tree.arrows))
