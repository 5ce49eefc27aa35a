"""Step 4: Waldhausen graph of the open book carried by a mapping torus.

A Nielsen graph describes a quasi-periodic surface diffeomorphism; capping
the mapping torus boundary with solid tori whose cores form the binding
turns it into a closed graph manifold with an open book.  The conversion is
incidence-by-incidence:

* a stalk (lam, sigma) is the Seifert pair (alpha, beta) = (lam, sigma)
  normalized to 1 <= beta < alpha (lam = 1 stalks are regular fibres and
  disappear),
* a boundary-stalk with valency (lam, sigma), twist t at a vertex of order m
  becomes a binding arrow with

      alpha = |t * lam| ,   beta = -sign(t) * (1 - m*t*sigma) / m ,

* an edge with twist t between orders m (here) and m' (there) becomes a
  gluing triplet

      eps = -sign(t) , alpha = |m'*t*lam| , beta = -sign(t)*(m' - m*m'*t*sigma)/m

  read once from each end, and the vertex label is the integral Euler
  obstruction e = sum sigma_i / lam_i over all incidences.

In each formula sigma means the representative of its class that makes beta
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
    require_fixed_pieces,
)

__all__ = ["nielsen_to_waldhausen"]


def _sign(x: Fraction) -> int:
    return 1 if x > 0 else -1


def _normalize(beta0: Fraction, alpha: int, sigma0: int, lam: int,
               where: str) -> tuple[int, int]:
    """Shift (beta, sigma) by (alpha, lam) steps until 0 <= beta < alpha;
    returns the integral pair or raises."""
    if beta0.denominator != 1:
        raise NormalizationError(
            f"mero normalization failure at {where}: "
            f"beta = {beta0} is not integral for any representative")
    beta = int(beta0)
    if alpha < 1:
        raise NormalizationError(f"invalid alpha = {alpha} at {where}")
    k = -(beta // alpha)
    return beta + k * alpha, sigma0 + k * lam


def nielsen_to_waldhausen(n: NielsenGraph) -> WaldhausenGraph:
    """Waldhausen graph of the pair (mapping-torus manifold, binding)."""
    require_fixed_pieces(n.vertices)
    order = {v.id: v.order for v in n.vertices}
    euler = {v.id: Fraction(0) for v in n.vertices}

    stalks = []
    for s in n.stalks:
        if s.lam == 1:
            continue  # regular fibre, contributes (1, 0)
        beta = s.sigma % s.lam
        if beta == 0:
            raise NormalizationError(
                f"stalk ({s.lam}, {s.sigma}) cannot be normalized to 1 <= beta < alpha",
                )
        stalks.append(WaldStalk(s.vertex, s.lam, beta))
        euler[s.vertex] += Fraction(beta, s.lam)

    arrows = []
    for b in n.boundary_stalks:
        m = order[b.vertex]
        t = b.twist
        alpha_f = abs(t * b.lam)
        if alpha_f.denominator != 1:
            raise NormalizationError(
                f"arrow alpha = {alpha_f} is not integral at vertex {b.vertex}")
        alpha = int(alpha_f)
        beta0 = -_sign(t) * Fraction(1 - m * t * b.sigma, m)
        beta, sigma = _normalize(beta0, alpha, b.sigma, b.lam,
                                 f"arrow at vertex {b.vertex}")
        arrows.append(WaldArrow(b.vertex, alpha, beta))
        euler[b.vertex] += Fraction(sigma, b.lam)

    edges = []
    for e in n.edges:
        t = e.twist
        eps = -_sign(t)
        mu, mv = order[e.u], order[e.v]
        alpha_f = abs(mv * t * e.lam_u)
        alpha_check = abs(mu * t * e.lam_v)
        if alpha_f.denominator != 1 or alpha_f != alpha_check:
            raise NormalizationError(
                f"edge alpha mismatch between the two ends: {alpha_f} vs {alpha_check}")
        alpha = int(alpha_f)
        beta_u0 = -_sign(t) * Fraction(mv - mu * mv * t * e.sigma_u, mu)
        beta_v0 = -_sign(t) * Fraction(mu - mu * mv * t * e.sigma_v, mv)
        beta_u, sigma_u = _normalize(beta_u0, alpha, e.sigma_u, e.lam_u,
                                     f"edge ({e.u}, {e.v}) at {e.u}")
        beta_v, sigma_v = _normalize(beta_v0, alpha, e.sigma_v, e.lam_v,
                                     f"edge ({e.u}, {e.v}) at {e.v}")
        if alpha > 1 and (beta_u * beta_v) % alpha != 1:
            raise NormalizationError(
                f"edge duality failure: {beta_u} * {beta_v} != 1 mod {alpha}")
        edges.append(WaldEdge(e.u, e.v, eps, alpha, beta_u, beta_v))
        euler[e.u] += Fraction(sigma_u, e.lam_u)
        euler[e.v] += Fraction(sigma_v, e.lam_v)

    vertices = []
    for v in n.vertices:
        if euler[v.id].denominator != 1:
            raise NormalizationError(
                f"Euler obstruction failure: e = {euler[v.id]} at vertex {v.id} "
                "is not an integer")
        vertices.append(WaldVertex(v.id, int(euler[v.id]), v.genus, v.q, v.order))

    return WaldhausenGraph(tuple(vertices), tuple(stalks), tuple(arrows), tuple(edges))
