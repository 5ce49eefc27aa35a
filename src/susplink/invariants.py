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
from math import lcm
from typing import NamedTuple

from .errors import MonodromyError, PlumbingError
from .exactlinalg import Elimination, eliminate
from .graphs import MultPlumbing, PlumbingTree

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
    "ObstructionReport",
    "obstruction_report",
]


def adjunction_system(tree: PlumbingTree) -> Elimination:
    """One elimination of the adjunction system A*K = d with
    d_v = -b_v - 2 + 2*g_v: its solution is the canonical class K, in the
    order of ``tree.vertices``, and it also gives det A and definiteness."""
    try:
        return eliminate(tree, _adjunction_rhs(tree))
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


def fibre_euler(mp: MultPlumbing) -> FibreData:
    """Euler characteristic, genus and boundary count of the (connected)
    fibre: each piece covers its base m_v times, so
    chi = sum |m_v| * (2 - 2g_v - valence_v)."""
    valence = mp.valence()
    chi = sum(abs(v.m) * (2 - 2 * v.genus - valence[v.id]) for v in mp.vertices)
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
    return _congruence(K, chi_resolution(tree) + k_squared(tree, K), chi_fibre_F)


def _congruence(K, right_raw: Fraction, chi_fibre_F: int) -> LauferSteenbrink:
    if not is_num_gorenstein(K):
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


def obstruction_report(mp: MultPlumbing, tree: PlumbingTree, r: int,
                       product_mp: MultPlumbing | None = None) -> ObstructionReport:
    """All obstruction invariants of one pipeline run.

    ``tree`` must be the final plumbing tree (binding arrows ignored for the
    adjunction system); the suspension fibre chi uses the join formula with
    the same r that produced the tree.
    """
    form = form_invariants(tree)
    fibre = fibre_euler(mp)
    chi_F = join_euler(fibre.chi, r)
    ls = _congruence(form["K"], form["chi_resolution"] + form["K_squared"], chi_F)
    product = fibre_euler(product_mp) if product_mp is not None else None
    return ObstructionReport(
        **form,
        chi_fibre_fg=fibre.chi,
        fibre_genus=fibre.genus,
        fibre_boundary=fibre.boundary,
        chi_fibre_F=chi_F,
        wedge_spheres=wedge_count(fibre.chi, r),
        ls_applicable=ls.applicable,
        ls_left=ls.left,
        ls_right=ls.right,
        ls_congruent=ls.congruent,
        product_chi=product.chi if product else None,
        product_genus=product.genus if product else None,
        product_boundary=product.boundary if product else None,
    )
