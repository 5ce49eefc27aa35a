"""Step 2 as it was before ``nielsen.build_nielsen`` walked each chain
itself: ``decompose`` packs the walk into ``StalkChain``, ``EdgeChain`` and
``Decomposition`` records and ``build_nielsen`` reads them back.  Kept as the
reference the one-walk ``build_nielsen`` must equal, graph for graph and
error for error."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from susplink.contfrac import cf_dual, neg_cf_eval
from susplink.errors import ChainDataError, UnsupportedError, excerpt
from susplink.graphs import (
    BoundaryStalk,
    MultPlumbing,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    Stalk,
    adjacency,
)

__all__ = ["StalkChain", "EdgeChain", "Decomposition", "decompose",
           "build_nielsen"]


class StalkChain(NamedTuple):
    node: int
    vertices: tuple[int, ...]  # ordered from the node outwards, leaf last

    @property
    def ids(self) -> tuple[int, ...]:
        return (self.node, *self.vertices)


class EdgeChain(NamedTuple):
    node_u: int
    node_v: int
    vertices: tuple[int, ...]  # interior vertices ordered from node_u, may be empty
    sign: int                  # product of edge signs along the chain

    @property
    def ids(self) -> tuple[int, ...]:
        return (self.node_u, *self.vertices, self.node_v)


class Decomposition(NamedTuple):
    nodes: tuple[int, ...]
    stalk_chains: tuple[StalkChain, ...]
    edge_chains: tuple[EdgeChain, ...]
    node_arrows: tuple  # Arrow instances sitting on nodes


def decompose(mp: MultPlumbing) -> Decomposition:
    """Partition the tree into nodes, stalk chains, edge chains and arrows.

    Chains are walked from the node with the smaller id, so the orientation
    of every edge chain is deterministic.
    """
    nodes = mp.node_ids
    if not nodes:
        raise UnsupportedError(
            "no node: Seifert / unknot inputs are outside the supported family")
    node_set = set(nodes)
    for a in mp.arrows:
        if a.vertex not in node_set:
            raise UnsupportedError("arrow on non-node vertex",
                                   elements=(a.vertex,))
    mults = {v.id: v.m for v in mp.vertices}
    zero_nodes = tuple(n for n in nodes if mults[n] == 0)
    if zero_nodes:
        raise ChainDataError("m = 0 on a node", elements=zero_nodes)
    adj = adjacency(mp.ids, mp.edges)
    stalk_chains = []
    edge_chains = []
    consumed: set[tuple[int, int]] = set()  # (node, first interior/neighbor) walks done
    for node in sorted(nodes):
        for nbr, sign in sorted(adj[node]):
            if (node, nbr) in consumed:
                continue
            chain, end, total_sign = _walk(adj, node_set, node, nbr, sign)
            if end is None:
                zero = tuple(v for v in chain if mults[v] == 0)
                if zero:
                    raise ChainDataError("m = 0 inside stalk chain", elements=zero)
                stalk_chains.append(StalkChain(node, tuple(chain)))
            else:
                consumed.add((end, chain[-1] if chain else node))
                edge_chains.append(EdgeChain(node, end, tuple(chain), total_sign))
    return Decomposition(
        nodes=tuple(sorted(nodes)),
        stalk_chains=tuple(stalk_chains),
        edge_chains=tuple(edge_chains),
        node_arrows=tuple(mp.arrows),
    )


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


def chain_gcd(m: dict[int, int], chain: EdgeChain) -> int:
    """Constant gcd of consecutive multiplicities along the chain and its nodes."""
    gcds = {gcd(m[u], m[v]) for u, v in zip(chain.ids, chain.ids[1:])}
    if len(gcds) != 1:
        raise ChainDataError(
            f"inconsistent chain data: consecutive multiplicity gcds {sorted(gcds)} vary",
            elements=chain.ids)
    return gcds.pop()


def _chain_fraction(weight: dict[int, int], chain: StalkChain | EdgeChain) -> tuple[int, int]:
    """The Seifert pair (alpha, beta) of the chain read from its (first) node,
    its value being alpha/(alpha - beta) up to a whole number; (1, 0), the
    trivial pair, for the empty chain of two adjacent nodes.

    Chains of a non-minimal resolution may pass through weights >= -1, and
    a -1 vertex next to the node moves a whole number into the node weight
    when it is blown down.  Step 5 recomputes node weights from the balance,
    so only beta mod alpha matters and any value num/den with den >= 1 is
    accepted (degenerate chains raise, naming the chain and its nodes).
    """
    weights = [-weight[vid] for vid in chain.vertices]
    try:
        num, den = neg_cf_eval(weights) if weights else (1, 1)
    except ChainDataError as e:
        raise ChainDataError(e.args[0], elements=chain.ids) from None
    if num < 1 or den < 1:
        raise ChainDataError(
            f"chain fraction {excerpt(num)}/{excerpt(den)} is not of the form "
            f"alpha/(alpha-beta)", elements=chain.vertices)
    return num, (num - den) % num


def build_nielsen(mp: MultPlumbing) -> NielsenGraph:
    """Nielsen graph of the monodromy of the fibred multiplicity tree."""
    dec = decompose(mp)
    m = {v.id: v.m for v in mp.vertices}
    weight = {v.id: v.weight for v in mp.vertices}
    genus = {v.id: v.genus for v in mp.vertices}
    vertices = tuple(NielsenVertex(n, m[n], genus[n], 1) for n in dec.nodes)

    stalks = []
    for sc in dec.stalk_chains:
        alpha, beta = _chain_fraction(weight, sc)
        m_adj = m[sc.vertices[0]]
        expected = m[sc.node] // gcd(m[sc.node], m_adj)
        if alpha != expected:
            raise ChainDataError(
                f"inconsistent chain data: stalk fraction has alpha = {alpha} "
                f"but multiplicities force {expected}",
                elements=(sc.node, sc.vertices[0]))
        stalks.append(Stalk(sc.node, alpha, beta))

    boundary_stalks = []
    for a in dec.node_arrows:
        if abs(a.mult) != 1:
            raise UnsupportedError(
                f"arrow multiplicity {a.mult} not supported (need +-1)",
                elements=(a.vertex,))
        order = m[a.vertex]
        boundary_stalks.append(BoundaryStalk(a.vertex, order, -a.mult % order,
                                             Fraction(-a.mult, order)))

    edges = []
    for ec in dec.edge_chains:
        mi, mj = m[ec.node_u], m[ec.node_v]
        alpha, beta_u = _chain_fraction(weight, ec)
        n = chain_gcd(m, ec)
        lam_u, lam_v = mi // n, mj // n
        twist = Fraction(-ec.sign * n * alpha, mi * mj)
        s = -ec.sign  # sign of the twist
        beta_v = cf_dual(alpha, beta_u)
        sigma_u, rest_u = divmod(lam_u * beta_u + s * lam_v, alpha)
        sigma_v, rest_v = divmod(lam_v * beta_v + s * lam_u, alpha)
        if rest_u or rest_v:
            raise ChainDataError(
                "inconsistent chain data: rotation numbers are not integral "
                "(the input does not satisfy the monodromical system)",
                elements=(ec.node_u, ec.node_v))
        edges.append(NielsenEdge(
            ec.node_u, ec.node_v, twist,
            lam_u, sigma_u % lam_u,
            lam_v, sigma_v % lam_v,
        ))

    return NielsenGraph(vertices, tuple(stalks), tuple(boundary_stalks), tuple(edges))
