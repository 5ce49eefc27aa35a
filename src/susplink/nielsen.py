"""Step 2: Nielsen graph of the quasi-periodic monodromy.

The multiplicity tree is cut at its nodes into node-to-leaf chains, node-to-
node chains and boundary arrows.  Each chain is walked once, from a node
through its first neighbour; nodes are visited in id order, so an edge chain
runs from its node with the smaller id.  Each node becomes one Nielsen vertex
of order m_v; each chain contributes a valency computed from the chain's
negative continued fraction, and each inter-node chain carries a fractional
Dehn twist

    t = -eps_chain * n * alpha / (m_i * m_j) ,

where n is the (constant) gcd of consecutive multiplicities along the chain,
alpha the numerator of the chain fraction, and eps_chain the product of the
edge signs.  The unflipped (holomorphic) case therefore has negative twists
throughout, and a sign flip across the chain makes the twist positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .contfrac import cf_dual, neg_cf_eval
from .errors import ChainDataError, UnsupportedError, excerpt
from .graphs import (
    BoundaryStalk,
    MultPlumbing,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    Stalk,
    adjacency,
)

__all__ = ["build_nielsen"]


def _walk(adj, node_set, start, first, first_sign):
    """Follow the chain leaving ``start`` through ``first``; returns the
    interior vertices, the far node (or None for a leaf) and the sign product."""
    chain = []
    sign = first_sign
    prev, cur = start, first
    while cur not in node_set:
        chain.append(cur)
        nxt = [(w, s) for w, s in adj[cur] if w != prev]
        if not nxt:
            return chain, None, sign
        (cur2, s2), = nxt
        sign *= s2
        prev, cur = cur, cur2
    return chain, cur, sign


def _chain_gcd(m: dict[int, int], ids: tuple[int, ...]) -> int:
    """Constant gcd of consecutive multiplicities along ``ids``, nodes included."""
    gcds = {gcd(m[u], m[v]) for u, v in zip(ids, ids[1:])}
    if len(gcds) != 1:
        raise ChainDataError(
            f"inconsistent chain data: consecutive multiplicity gcds {sorted(gcds)} vary",
            elements=ids)
    return gcds.pop()


def _chain_fraction(weight: dict[int, int], chain: list, ids: tuple) -> tuple[int, int]:
    """Seifert pair (alpha, beta), of value alpha/(alpha - beta) up to a
    whole number, of the vertices ``chain`` read from its first node (``ids``
    adds the nodes); (1, 0), the trivial pair, for two adjacent nodes.

    Chains of a non-minimal resolution may pass through weights >= -1, and
    a -1 vertex next to the node moves a whole number into the node weight
    when it is blown down.  Step 5 recomputes node weights from the balance,
    so only beta mod alpha matters and any value num/den with den >= 1 is
    accepted (degenerate chains raise, naming the chain and its nodes).
    """
    weights = [-weight[vid] for vid in chain]
    try:
        num, den = neg_cf_eval(weights) if weights else (1, 1)
    except ChainDataError as e:
        raise ChainDataError(e.args[0], elements=ids) from None
    if num < 1 or den < 1:
        raise ChainDataError(
            f"chain fraction {excerpt(num)}/{excerpt(den)} is not of the form "
            f"alpha/(alpha-beta)", elements=chain)
    return num, (num - den) % num


def build_nielsen(mp: MultPlumbing) -> NielsenGraph:
    """Nielsen graph of the monodromy of the fibred multiplicity tree."""
    nodes = mp.node_ids
    if not nodes:
        raise UnsupportedError(
            "no node: Seifert / unknot inputs are outside the supported family")
    node_set = set(nodes)
    for a in mp.arrows:
        if a.vertex not in node_set:
            raise UnsupportedError("arrow on non-node vertex",
                                   elements=(a.vertex,))
    m = {v.id: v.m for v in mp.vertices}
    zero_nodes = tuple(n for n in nodes if m[n] == 0)
    if zero_nodes:
        raise ChainDataError("m = 0 on a node", elements=zero_nodes)
    adj = adjacency(mp.ids, mp.edges)
    leaf_walks = []  # (node, chain), the chain ordered from the node, leaf last
    edge_walks = []  # (u, v, interior from u, product of edge signs)
    consumed: set[tuple[int, int]] = set()  # (node, first interior/neighbor) walks done
    for node in sorted(nodes):
        for nbr, sign in sorted(adj[node]):
            if (node, nbr) in consumed:
                continue
            chain, end, total_sign = _walk(adj, node_set, node, nbr, sign)
            if end is None:
                zero = tuple(v for v in chain if m[v] == 0)
                if zero:
                    raise ChainDataError("m = 0 inside stalk chain", elements=zero)
                leaf_walks.append((node, chain))
            else:
                consumed.add((end, chain[-1] if chain else node))
                edge_walks.append((node, end, chain, total_sign))

    weight = {v.id: v.weight for v in mp.vertices}
    genus = {v.id: v.genus for v in mp.vertices}
    vertices = tuple(NielsenVertex(n, m[n], genus[n], 1) for n in sorted(nodes))

    stalks = []
    for node, chain in leaf_walks:
        alpha, beta = _chain_fraction(weight, chain, (node, *chain))
        expected = m[node] // gcd(m[node], m[chain[0]])
        if alpha != expected:
            raise ChainDataError(
                f"inconsistent chain data: stalk fraction has alpha = {alpha} "
                f"but multiplicities force {expected}",
                elements=(node, chain[0]))
        stalks.append(Stalk(node, alpha, beta))

    boundary_stalks = []
    for a in mp.arrows:
        if abs(a.mult) != 1:
            raise UnsupportedError(
                f"arrow multiplicity {a.mult} not supported (need +-1)",
                elements=(a.vertex,))
        order = m[a.vertex]
        boundary_stalks.append(BoundaryStalk(a.vertex, order, -a.mult % order,
                                             Fraction(-a.mult, order)))

    edges = []
    for u, v, chain, sign in edge_walks:
        ids = (u, *chain, v)
        alpha, beta_u = _chain_fraction(weight, chain, ids)
        n = _chain_gcd(m, ids)
        lam_u, lam_v = m[u] // n, m[v] // n
        twist = Fraction(-sign * n * alpha, m[u] * m[v])
        beta_v = cf_dual(alpha, beta_u)
        sigma_u, rest_u = divmod(lam_u * beta_u - sign * lam_v, alpha)
        sigma_v, rest_v = divmod(lam_v * beta_v - sign * lam_u, alpha)
        if rest_u or rest_v:
            raise ChainDataError(
                "inconsistent chain data: rotation numbers are not integral "
                "(the input does not satisfy the monodromical system)",
                elements=(u, v))
        edges.append(NielsenEdge(u, v, twist, lam_u, sigma_u % lam_u,
                                 lam_v, sigma_v % lam_v))

    return NielsenGraph(vertices, tuple(stalks), tuple(boundary_stalks), tuple(edges))
