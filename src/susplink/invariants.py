"""Obstruction arithmetic on resolution trees and fibres.

Canonical class and its square, the numerically-Gorenstein test, Euler
characteristics of the resolution and of the Milnor fibres, the join
formula for the suspension fibre, and the mod-12 smoothing congruence

    chi(resolution) + K^2 = chi(smoothing fibre)  (mod 12)

which obstructs the open book from arising from a smoothable Gorenstein
complex singularity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from types import SimpleNamespace
from typing import NamedTuple

from .contfrac import neg_cf_expand
from .errors import MonodromyError, PlumbingError
from .exactlinalg import Elimination, eliminate
from .graphs import Edge, MultPlumbing, PlumbingTree, Vertex, WaldhausenGraph
from .synthesis import Chain, node_balance, waldhausen_chains

__all__ = [
    "adjunction_system",
    "canonical_class",
    "is_num_gorenstein",
    "k_squared",
    "chi_resolution",
    "FibreData",
    "fibre_euler",
    "join_euler",
    "wedge_count",
    "LauferSteenbrink",
    "laufer_steenbrink",
    "determinant",
    "negative_definite",
    "form_invariants",
    "WaldhausenForm",
    "waldhausen_form",
    "ObstructionReport",
    "obstruction_report",
]


def adjunction_system(tree: PlumbingTree) -> Elimination:
    """One elimination of the adjunction system A*K = d with
    d_v = -b_v - 2 + 2*g_v: its solution is the canonical class K, in the
    order of ``tree.vertices``, and it also gives det A and definiteness."""
    return _solve(tree, _adjunction_rhs(tree))


def _solve(graph, rhs) -> Elimination:
    """``eliminate(graph, rhs)``, a singular form named as the canonical
    class it leaves undefined."""
    try:
        return eliminate(graph, rhs)
    except MonodromyError as exc:
        raise MonodromyError(
            "canonical class undefined: singular intersection matrix") from exc


def _adjunction_rhs(tree: PlumbingTree) -> list[int]:
    return [-v.weight - 2 + 2 * v.genus for v in tree.vertices]


def canonical_class(tree: PlumbingTree) -> list[Fraction]:
    """Solution K of the adjunction system A*K = d."""
    return adjunction_system(tree).solution


def is_num_gorenstein(K) -> bool:
    return all(k.denominator == 1 for k in K)


def k_squared(tree: PlumbingTree, K) -> Fraction:
    """K^T A K = K.d for the canonical class K of ``tree``, as A*K = d,
    summed in integers over the common denominator of K."""
    den = lcm(*(k.denominator for k in K))
    total = sum(k.numerator * (den // k.denominator) * d
                for k, d in zip(K, _adjunction_rhs(tree)))
    return Fraction(total, den)


def chi_resolution(tree: PlumbingTree) -> int:
    """chi of the exceptional divisor: sum of (2 - 2g) minus the edge count."""
    return sum(2 - 2 * v.genus for v in tree.vertices) - len(tree.edges)


class FibreData(NamedTuple):
    chi: int
    genus: int
    boundary: int


def fibre_euler(mp: MultPlumbing, m=None) -> FibreData:
    """Euler characteristic, genus and boundary count of the (connected)
    fibre: each piece covers its base m_v times, so
    chi = sum |m_v| * (2 - 2g_v - valence_v).  ``m`` (in vertex order)
    replaces the tree's own m_v; it serves for a tree on the same graph with
    the same arrows, as the product germ's is to a mixed run's."""
    if m is None:
        m = [v.m for v in mp.vertices]
    valence = mp.valence
    chi = sum(abs(x) * (2 - 2 * v.genus - valence[v.id]) for x, v in zip(m, mp.vertices))
    boundary = sum(abs(a.mult) for a in mp.arrows)
    if (2 - chi - boundary) % 2:
        raise PlumbingError(
            f"disconnected fibre suspected: chi = {chi} with {boundary} "
            "boundary components gives a fractional genus")
    return FibreData(chi, (2 - chi - boundary) // 2, boundary)


def join_euler(chi_fibre: int, r: int) -> int:
    """chi of the join of the fibre with r points:
    1 + (r - 1) * (1 - chi_fibre)."""
    return 1 + (r - 1) * (1 - chi_fibre)


def wedge_count(chi_fibre: int, r: int) -> int:
    """Number of 2-spheres in the wedge the suspension fibre is homotopy
    equivalent to."""
    return (r - 1) * (1 - chi_fibre)


class LauferSteenbrink(NamedTuple):
    applicable: bool
    left: int | None      # chi of the suspension fibre, mod 12 in [0, 12)
    right: int | None     # chi(resolution) + K^2, mod 12 in [0, 12)
    congruent: bool | None


def laufer_steenbrink(tree: PlumbingTree, chi_fibre_F: int) -> LauferSteenbrink:
    """Mod-12 smoothing congruence; inapplicable when K is not integral."""
    K = canonical_class(tree)
    return _congruence(is_num_gorenstein(K), chi_resolution(tree) + k_squared(tree, K),
                       chi_fibre_F)


def _congruence(gorenstein: bool, right_raw: Fraction, chi_fibre_F: int) -> LauferSteenbrink:
    if not gorenstein:
        return LauferSteenbrink(False, None, None, None)
    left = chi_fibre_F % 12
    right = int(right_raw) % 12
    return LauferSteenbrink(True, left, right, left == right)


def determinant(tree: PlumbingTree) -> int:
    return eliminate(tree).determinant


def negative_definite(tree: PlumbingTree) -> bool:
    return eliminate(tree).negative_definite


def form_invariants(tree: PlumbingTree) -> dict:
    """K, K^2, the numerically-Gorenstein test, chi(resolution), det and
    negative-definiteness of ``tree``, under their ``ObstructionReport``
    names, from one elimination of the adjunction system."""
    form = adjunction_system(tree)
    K = form.solution
    return {
        "K": tuple(K),
        "K_squared": k_squared(tree, K),
        "numerically_gorenstein": is_num_gorenstein(K),
        "chi_resolution": chi_resolution(tree),
        "determinant": form.determinant,
        "negative_definite": form.negative_definite,
    }


class WaldhausenForm(NamedTuple):
    determinant: int
    negative_definite: bool
    K_squared: Fraction
    numerically_gorenstein: bool
    chi_resolution: int
    denominator: int            # the least D > 0 with D*Y integral on the nodes
    Y: dict[int, int]           # D*Y on each node, Y = K + 1, in the order of w.vertices
    y1: tuple[int | None, ...]  # alpha*D*Y on each chain's first vertex, None if empty
    chains: tuple[Chain, ...]   # ``synthesis.waldhausen_chains(w)``


def waldhausen_form(w: WaldhausenGraph) -> WaldhausenForm:
    """det, negative-definiteness, K^2, the numerically-Gorenstein test and
    chi(resolution) of ``synth_plumbing(w)``, in O(chains * log alpha).

    A chain [b_1, ..., b_k] = alpha/q (b_i >= 2) enters the form A only by
    its Schur complement (Neumann 1981; Eisenbud-Neumann 1985): on the nodes
    S_uu = w_u + sum of q/alpha over the chain ends at u (q_far at a far
    end), S_uv gains 1/alpha per chain from u to v and 1 per empty one,
    det A = det S * prod((-1)^k * alpha), and A < 0 iff S < 0.  Y = K + 1
    has A*Y = valence - 2 + 2g, so S*Y = delta_u - 2 + 2g_u - sum of 1/alpha
    over the leaf chains at u, a chain runs from y_1 = (q*Y_u + R)/alpha
    (R = 1 at a leaf, Y_v on an edge), K is integral iff Y and every y_1
    are, and K^2 = sum of K_u*d_u plus ((beta - 1)*Y_u + (beta' - 1)*R)/alpha
    - s per chain (beta = alpha - q, beta' = alpha - q_far).  A chain from a
    node to itself has both ends there: it adds 2/alpha to S_uu and 2 to
    delta_u.  P*S, P the product of the alphas, is an int form with the
    definiteness of S, and ``eliminate`` solves it as a graph on the nodes.
    """
    chains = waldhausen_chains(w)
    weights = node_balance(w)[3]
    P = prod(c.alpha for c in chains)
    diagonal = {v.id: P * weights[v.id] for v in w.vertices}  # P*S
    rhs = {v.id: P * (2 * v.genus - 2) for v in w.vertices}    # P*(S*Y)
    edges = []
    for node, far, a, q, q_far, _, _, _ in chains:
        p = P // a
        if a > 1:
            diagonal[node] += p * q
        if far is None:
            rhs[node] += P - p
            continue
        if a > 1:
            diagonal[far] += p * q_far
        rhs[node] += P
        rhs[far] += P
        if far == node:
            diagonal[node] += 2 * p
        else:
            edges.append(Edge(node, far, p))
    form = _solve(SimpleNamespace(vertices=[Vertex(*x) for x in diagonal.items()],
                                  edges=edges), list(rhs.values()))
    D = lcm(*(y.denominator for y in form.solution))
    N = [y.numerator * (D // y.denominator) for y in form.solution]
    n, sum_k = len(N), sum([c.k for c in chains])
    Y = dict(zip(diagonal, N))
    top = sum([(x - D) * (2 * v.genus - 2 - weights[v.id])
               for x, v in zip(N, w.vertices)]) * P  # D*P*K^2
    gorenstein, y1 = D == 1, []
    for node, far, a, q, q_far, _, s, _ in chains:
        if a == 1:
            y1.append(None)
            continue
        L, R = Y[node], D if far is None else Y[far]
        y1.append(q * L + R)
        gorenstein = gorenstein and y1[-1] % (a * D) == 0
        top += ((a - q - 1) * L + (a - q_far - 1) * R - s * a * D) * (P // a)
    return WaldhausenForm(
        form.determinant * P // P ** n * (-1 if sum_k % 2 else 1), form.negative_definite,
        Fraction(top, D * P), gorenstein,
        2 * n - 2 * sum([v.genus for v in w.vertices]) + sum_k - len(w.edges),
        D, Y, tuple(y1), chains)


class ObstructionReport(NamedTuple):
    K: tuple[Fraction, ...]
    K_squared: Fraction
    numerically_gorenstein: bool
    chi_resolution: int
    chi_fibre_fg: int
    fibre_genus: int
    fibre_boundary: int
    chi_fibre_F: int
    wedge_spheres: int
    ls_applicable: bool
    ls_left: int | None
    ls_right: int | None
    ls_congruent: bool | None
    negative_definite: bool
    determinant: int
    # fibre of the holomorphic product germ, when both sides are known
    product_chi: int | None = None
    product_genus: int | None = None
    product_boundary: int | None = None


def obstruction_report(mp: MultPlumbing, w: WaldhausenGraph, r: int,
                       product_m: list[int] | None = None) -> ObstructionReport:
    """All obstruction invariants of one pipeline run: the form fields of
    ``waldhausen_form(w)``, K on every vertex of ``synth_plumbing(w)`` in its
    order, the suspension fibre by the join formula with the same r, and,
    given the product germ's multiplicities ``product_m`` (the second value
    of ``resolve.multiplicity_trees``), that germ's fibre read off ``mp``."""
    form = waldhausen_form(w)
    fibre = fibre_euler(mp)
    chi_F = join_euler(fibre.chi, r)
    ls = _congruence(form.numerically_gorenstein, form.chi_resolution + form.K_squared, chi_F)
    product = fibre_euler(mp, product_m) if product_m is not None else None
    return ObstructionReport(  # positional, in field order
        _canonical_class(form), form.K_squared, form.numerically_gorenstein,
        form.chi_resolution, *fibre, chi_F, wedge_count(fibre.chi, r), *ls,
        form.negative_definite, form.determinant, *(product or (None, None, None)))


def _canonical_class(form: WaldhausenForm) -> tuple[Fraction | int, ...]:
    """K = Y - 1 on the nodes, then along each chain from (Y_u, y_1) by the
    recurrence on ints, over one denominator per chain; integral K_v as ints."""
    D = form.denominator
    K = [Fraction(y - D, D) if y % D else y // D - 1 for y in form.Y.values()]
    for c, y in zip(form.chains, form.y1):
        if y is not None:
            left, den = form.Y[c.node] * c.alpha, c.alpha * D
            g = gcd(den, left, y)
            left, y, den = left // g, y // g, den // g
            for b in neg_cf_expand(c.alpha, c.q):
                K.append(Fraction(y - den, den) if y % den else y // den - 1)
                left, y = y, b * y - left
    return tuple(K)
