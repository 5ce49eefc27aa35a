"""Step 4: Waldhausen graph of the open book carried by a mapping torus.

A Nielsen graph describes a quasi-periodic surface diffeomorphism; capping
the mapping torus boundary with solid tori whose cores form the binding
turns it into a closed graph manifold with an open book.  The conversion is
incidence-by-incidence:

* a stalk (lam, sigma) is the Seifert pair (alpha, beta) = (lam, sigma),
  already normalized to 1 <= beta < alpha by the Nielsen graph (lam = 1
  stalks are regular fibres and disappear),
* an incidence with valency (lam, sigma) and twist t, at a vertex of order m
  whose far piece has order m', gives the Seifert pair

      alpha = |m'*t*lam| ,   beta = -sign(t)*(m' - m*m'*t*sigma)/m .

  An edge reads it once from each end, and eps = -sign(t) completes its
  gluing triplet.  The solid torus around a binding component is a far
  piece of order m' = 1, so a boundary-stalk becomes the binding arrow with
  that pair, marked reversed when t > 0: the binding then runs against the
  fibres of its piece.  The vertex label is the Euler obstruction
  e = sum sigma_i / lam_i over all incidences, integral as in the Nielsen graph.

In the pair, sigma means the representative of its class that makes beta
an integer in [0, alpha); shifting sigma by lam shifts beta by exactly
alpha, so the representative exists iff beta is integral for the canonical
one, and is then unique.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NormalizationError
from .graphs import (
    NielsenGraph,
    WaldArrow,
    WaldEdge,
    WaldhausenGraph,
    WaldStalk,
    WaldVertex,
)

__all__ = ["nielsen_to_waldhausen"]


def _seifert_pair(m: int, m_far: int, t: Fraction, lam: int, sigma: int,
                  at: tuple[int, ...]) -> tuple[int, int, int]:
    """(alpha, beta, sigma') of the incidence with valency (lam, sigma) and
    twist t at a piece of order m whose far piece has order m_far, shifted
    by (alpha, lam) steps until 0 <= beta < alpha.  ``at`` is the piece and,
    for a gluing edge, the far piece: the ids an error names."""
    where = f"arrow at vertex {at[0]}" if len(at) == 1 else f"edge at {at[0]} to {at[1]}"
    tn, td = t.numerator, t.denominator
    alpha, rest = divmod(abs(m_far * tn * lam), td)
    if rest:
        raise NormalizationError(f"{where}: alpha = {Fraction(abs(m_far * tn * lam), td)} "
                                 "is not integral", elements=at)
    top = (-1 if tn > 0 else 1) * m_far * (td - m * tn * sigma)
    beta, rest = divmod(top, m * td)
    if rest:
        raise NormalizationError(
            f"mero normalization failure at {where}: beta = {Fraction(top, m * td)} "
            "is not integral for any representative", elements=at)
    k = -(beta // alpha)
    return alpha, beta + k * alpha, sigma + k * lam


def nielsen_to_waldhausen(n: NielsenGraph) -> WaldhausenGraph:
    """Waldhausen graph of the pair (mapping-torus manifold, binding)."""
    order = {v.id: v.order for v in n.vertices}
    euler = dict.fromkeys(order, 0)  # m * (sum of sigma/lam), a multiple of m

    stalks = []
    for s in n.stalks:
        if s.lam == 1:
            continue  # regular fibre, contributes (1, 0)
        stalks.append(WaldStalk(s.vertex, s.lam, s.sigma))
        euler[s.vertex] += s.sigma * (order[s.vertex] // s.lam)

    arrows = []
    for b in n.boundary_stalks:
        alpha, beta, sigma = _seifert_pair(order[b.vertex], 1, b.twist, b.lam, b.sigma,
                                           (b.vertex,))
        arrows.append(WaldArrow(b.vertex, alpha, beta, b.twist > 0))
        euler[b.vertex] += sigma * (order[b.vertex] // b.lam)

    edges = []
    for e in n.edges:
        mu, mv = order[e.u], order[e.v]
        alpha, beta_u, sigma_u = _seifert_pair(mu, mv, e.twist, e.lam_u, e.sigma_u,
                                               (e.u, e.v))
        _, beta_v, sigma_v = _seifert_pair(mv, mu, e.twist, e.lam_v, e.sigma_v, (e.v, e.u))
        edges.append(WaldEdge(e.u, e.v, -1 if e.twist > 0 else 1, alpha, beta_u, beta_v))
        euler[e.u] += sigma_u * (mu // e.lam_u)
        euler[e.v] += sigma_v * (mv // e.lam_v)

    vertices = [WaldVertex(v.id, euler[v.id] // v.order, v.genus, v.q, v.order)
                for v in n.vertices]

    return WaldhausenGraph(tuple(vertices), tuple(stalks), tuple(arrows), tuple(edges))
