"""Classical suspension oracles.

The cusp x^2 + y^3 suspended by z^r is the Brieskorn variety of type
(2, 3, r); for r = 2, 3, 4, 5 these are the A2, D4, E6 and E8 rational
double points, and r = 7 gives the (2, 3, 7) homology sphere.  Their
minimal plumbing trees and determinants are textbook data, independent of
anything this package computes, so they pin the orientation and sign
conventions of every pass at once.  The f-side of the first example gives
x^2 + y^7, whose z^2 suspension is the A6 chain.

Every one-sided run is the holomorphic Brieskorn-Pham germ x^a + y^b + z^r,
so Laufer's formula 1 + mu = 12 p_g + K^2 + chi(E) holds on its tree, with
the geometric genus p_g counted as lattice points (Merle-Teissier).
"""

import pytest

from susplink.invariants import determinant, negative_definite
from susplink.pipeline import run_pipeline
from conftest import read_input


def reduced(name, r, side="fg"):
    result = run_pipeline(read_input(name), r, side=side, reduce=True)
    return result.blowdown


def shape(tree):
    """(sorted weights, sorted valence multiset) of a reduced tree."""
    valence = {v.id: 0 for v in tree.vertices}
    for e in tree.edges:
        valence[e.u] += 1
        valence[e.v] += 1
    return (sorted(v.weight for v in tree.vertices), sorted(valence.values()))


def test_cusp_r2_is_a2():
    tree = reduced("cusp.txt", 2)
    assert shape(tree) == ([-2, -2], [1, 1])
    assert abs(determinant(tree)) == 3


def test_cusp_r3_is_d4():
    tree = reduced("cusp.txt", 3)
    assert shape(tree) == ([-2, -2, -2, -2], [1, 1, 1, 3])
    assert abs(determinant(tree)) == 4


def test_cusp_r4_is_e6():
    tree = reduced("cusp.txt", 4)
    assert shape(tree) == ([-2] * 6, [1, 1, 1, 2, 2, 3])
    assert abs(determinant(tree)) == 3


def test_cusp_r7_is_the_237_sphere():
    tree = reduced("cusp.txt", 7)
    assert shape(tree) == ([-7, -3, -2, -1], [1, 1, 1, 3])
    assert abs(determinant(tree)) == 1
    assert negative_definite(tree)


def test_ex1_f_side_r2_is_a6():
    # x^2 + y^7 suspended by z^2 is the A6 double point
    tree = reduced("ex1.txt", 2, side="f")
    assert shape(tree) == ([-2] * 6, [1, 1, 2, 2, 2, 2])
    assert abs(determinant(tree)) == 7


def test_ex1_g_side_r2_is_a4():
    # x^5 + y^2 suspended by z^2 is the A4 double point
    tree = reduced("ex1.txt", 2, side="g")
    assert shape(tree) == ([-2] * 4, [1, 1, 2, 2])
    assert abs(determinant(tree)) == 5


# (input file, side) -> (a, b) of the branch x^a + y^b on that side
BRIESKORN_PHAM = {
    ("cusp.txt", "f"): (2, 3),
    ("ex1.txt", "f"): (2, 7),
    ("ex1.txt", "g"): (5, 2),
    ("ex2.txt", "f"): (2, 3),
    ("ex2.txt", "g"): (3, 2),
    ("ex3.txt", "f"): (3, 5),
    ("ex3.txt", "g"): (7, 2),
}


def geometric_genus(a, b, r):
    """#{(i, j, k) >= 1 : i/a + j/b + k/r <= 1}."""
    return sum(1 for i in range(1, a) for j in range(1, b) for k in range(1, r)
               if i * b * r + j * a * r + k * a * b <= a * b * r)


@pytest.mark.parametrize("r", range(2, 16))
@pytest.mark.parametrize("name, side", sorted(BRIESKORN_PHAM))
def test_laufer_formula_on_one_sided_runs(name, side, r):
    # chi(F) = 1 + mu, and a blow-up moves K^2 by -1 and chi(E) by +1, so the
    # tree need not be minimal
    report = run_pipeline(read_input(name), r, side=side).obstructions
    a, b = BRIESKORN_PHAM[name, side]
    assert (report.chi_fibre_F - report.chi_resolution - report.K_squared
            == 12 * geometric_genus(a, b, r))
