"""Step 5: synthesize the plumbing tree of the open book from its
Waldhausen graph, plus the blow-down calculus used to reduce the result.

Every Seifert pair (alpha, beta) becomes a Hirzebruch-Jung chain carrying
the negated expansion of alpha/(alpha - beta), and the trivial pair
alpha = 1 the empty chain; gluing triplets become the connecting chains,
read from the side whose triplet they are, and a binding arrow sits past
the far end of its chain.  Multiplicity signs of the node fibres are fixed
by a 2-coloring across the eps = -1 gluings, and every chain multiplicity
plus every node weight is then forced by the monodromical balance

    b_v * m_v + sum(neighbour multiplicities) + sum(arrow multiplicities) = 0.

No chain is solved as a system: b_i*x_i = x_(i-1) + x_(i+1) from x_0 = L
at its node to R past its far end gives x_1 = (q*L + R)/alpha, never
singular, and x_k = (L + q'*R)/alpha, [b_1, ..., b_k] = alpha/q and
q*q' = 1 mod alpha (Neumann 1981; Riemenschneider 1974).  The node weights
and the tree's size, which grows with r and is refused past MAX_VERTICES,
come first; a fractional x_1 or node weight raises a BalanceError, else
the balance holds at every vertex and the tree is not checked again.
"""

from __future__ import annotations

import heapq
from contextlib import suppress
from fractions import Fraction
from typing import NamedTuple

from .contfrac import hj_length, neg_cf_expand
from .errors import BalanceError, NotATreeError, UnsupportedError, excerpt
from .exactlinalg import eliminate
from .graphs import Arrow, Edge, PlumbingTree, Vertex, WaldhausenGraph, _two_colouring

__all__ = ["MAX_VERTICES", "Chain", "waldhausen_chains", "node_balance",
           "synth_plumbing", "blow_down", "normalize_edge_signs", "reduce_tree",
           "strip_decorations"]

# larger trees are refused by synth_plumbing (see waldhausen_form), longer lists by from_dict
MAX_VERTICES = 10**6
_record = tuple.__new__  # a NamedTuple from all its fields, at half the cost of its __new__


def _chain_values(weights, left_mult, first):
    """x_1, ..., x_k from x_0 = ``left_mult`` and x_1 = ``first`` (module docstring)."""
    values = [first]
    prev, cur = left_mult, first
    for w in weights[:-1]:
        prev, cur = cur, -w * cur - prev
        values.append(cur)
    return values


class Chain(NamedTuple):
    """One Seifert pair of a Waldhausen graph as step 5 expands it from
    ``node``: the chain of -b_i with [b_1, ..., b_k] = alpha/q, all
    b_i >= 2, or the empty chain of the trivial pair alpha = 1 (k = 0)."""
    node: int
    far: int | None  # the node past the far end of a gluing chain, None at a leaf
    alpha: int
    q: int           # alpha - beta, with beta as read from ``node``
    q_far: int       # alpha - beta', with beta' as read from the far end
    k: int
    s: int           # sum(b_i - 2)
    binding: int     # +-1 on a binding arrow (-1 when reversed), 0 otherwise


def waldhausen_chains(w: WaldhausenGraph) -> tuple[Chain, ...]:
    """The chains of ``w`` in the order step 5 attaches them (stalks, binding
    arrows, gluing edges, each sorted), with k and s in O(log alpha).  The
    far end reads alpha/(alpha - beta') with beta * beta' = 1 mod alpha.
    Made once and kept on the (frozen) graph: step 5 and its node form share it."""
    if "_chains" in w.__dict__:
        return w._chains
    leaves = [(s.vertex, s.alpha, s.beta, 0) for s in sorted(w.stalks)] + [
        (x.vertex, x.alpha, x.beta, -1 if x.reversed else 1)
        for x in sorted(w.arrows, key=lambda x: (x.vertex, x.alpha, x.beta))]
    chains = [Chain(node, None, 1, 1, 1, 0, 0, binding) if a == 1 else Chain(
        node, None, a, a - beta, a - pow(beta, -1, a), *hj_length(a, a - beta), binding)
        for node, a, beta, binding in leaves]
    for e in sorted(w.edges, key=lambda e: (e.u, e.v, e.alpha, e.beta_u)):
        a, q = e.alpha, e.alpha - e.beta_u
        chains.append(Chain(e.u, e.v, 1, 1, 1, 0, 0, 0) if a == 1 else
                      Chain(e.u, e.v, a, q, a - e.beta_v, *hj_length(a, q), 0))
    w.__dict__["_chains"] = chains = tuple(chains)
    return chains


def node_balance(w: WaldhausenGraph):
    """Multiplicity signs and multiplicities of the nodes, each chain's first
    multiplicity and the node weights, by the chain ends in closed form
    (module docstring): R is 0 past a stalk, the arrow's multiplicity past a
    binding arrow and m_v past an edge; a chain is integral iff x_1 is, else
    its BalanceError names x_1, ..., x_k.  Kept like ``waldhausen_chains``."""
    if "_balance" in w.__dict__:
        return w._balance
    chains = waldhausen_chains(w)
    colors, _ = _two_colouring(w.ids, [(e.u, e.v, e.eps) for e in w.edges])
    mult = {v.id: colors[v.id] * v.order for v in w.vertices}
    terms = dict.fromkeys(mult, 0)  # neighbour and arrow multiplicities per node
    firsts = []
    for node, far, a, q, q_far, _, _, binding in chains:
        left, right = mult[node], binding * colors[node] if far is None else mult[far]
        first, last = right, left
        if a > 1:
            first, rest = divmod(q * left + right, a)
            if rest:
                chain = [-b for b in neg_cf_expand(a, q)]
                solution = _chain_values(chain, left, Fraction(q * left + right, a))
                raise BalanceError(
                    f"monodromical balance failure: chain {chain} with end data "
                    f"({left}, {right}) has non-integral multiplicities {solution}")
            last = (left + q_far * right) // a
        terms[node] += first
        if far is not None:
            terms[far] += last
        firsts.append(first)
    weights = {}
    for v in w.vertices:
        weights[v.id], rest = divmod(-terms[v.id], mult[v.id])
        if rest:
            raise BalanceError(
                f"monodromical balance failure: node {v.id} weight "
                f"-({terms[v.id]})/({mult[v.id]}) is not integral",
                elements=(v.id,))
    w.__dict__["_balance"] = balance = colors, mult, firsts, weights
    return balance


def synth_plumbing(w: WaldhausenGraph) -> PlumbingTree:
    """Plumbing tree whose boundary carries the open book described by ``w``,
    with its binding arrows and every multiplicity.

    Node vertices keep their Waldhausen ids and come first; chain vertices
    get fresh ids in the order their chains are attached.  The size (nodes
    plus chain lengths) and the balance (``node_balance``) are checked
    before any vertex is built.
    """
    chains = waldhausen_chains(w)
    size = len(w.vertices) + sum(c.k for c in chains)
    if size > MAX_VERTICES:
        raise UnsupportedError(f"the plumbing tree would have {excerpt(size)} vertices, "
                               f"more than the {MAX_VERTICES} supported")
    colors, mult, firsts, weights = node_balance(w)
    vertices = [Vertex(v.id, weights[v.id], v.genus, mult[v.id], colors[v.id] < 0,
                       f"piece {v.id}") for v in w.vertices]
    edges, arrows = [], []
    next_id = max(w.ids, default=0) + 1
    for (node, far, a, q, _, _, _, binding), first in zip(chains, firsts):
        prev, before, m = node, mult[node], first
        if a > 1:
            origin = (f"chain ({a},{a - q}) from {node} to {far}" if far is not None else
                      f"{'arrow' if binding else 'stalk'} ({a},{a - q}) of {node}")
            for i, b in enumerate(neg_cf_expand(a, q), 1):
                vertices.append(_record(Vertex, (next_id, -b, 0, m, False, f"{origin}[{i}]")))
                edges.append(_record(Edge, (prev, next_id, 1)))
                prev, next_id = next_id, next_id + 1
                before, m = m, b * m - before
        if far is not None:
            edges.append(Edge(prev, far))
        elif binding:
            arrows.append(Arrow(prev, binding * colors[node], "binding"))
    return PlumbingTree(tuple(vertices), tuple(edges), tuple(arrows))


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
