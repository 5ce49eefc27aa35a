from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from susplink.errors import PlumbingError
from susplink.graphs import (
    Arrow,
    MultPlumbing,
    MultVertex,
    PlumbingTree,
    Vertex,
    intersection_matrix,
)
from susplink.invariants import (
    canonical_class,
    chi_resolution,
    determinant,
    fibre_euler,
    is_num_gorenstein,
    join_euler,
    k_squared,
    laufer_steenbrink,
    negative_definite,
    wedge_count,
)
from susplink.resolve import product_multiplicity_tree, subtract_and_normalize
from susplink.synthesis import blow_down
from graph_helpers import ls_tuple


def adjunction_residual(tree, K):
    matrix = intersection_matrix(tree)
    d = [-v.weight - 2 + 2 * v.genus for v in tree.vertices]
    n = len(K)
    return [sum(Fraction(matrix[i][j]) * K[j] for j in range(n)) - d[i]
            for i in range(n)]


def test_canonical_class_single_vertex():
    tree = PlumbingTree((Vertex(1, -2),))
    K = canonical_class(tree)
    assert K == [0]
    assert is_num_gorenstein(K)
    assert k_squared(tree, K) == 0


def test_canonical_class_solves_adjunction(ex1_result, ex3_result):
    for result in (ex1_result, ex3_result):
        tree = result.plumbing
        K = canonical_class(tree)
        assert adjunction_residual(tree, K) == [0] * len(K)
        # cross-check the quadratic form: K^T A K = K . d once A K = d
        d = [-v.weight - 2 + 2 * v.genus for v in tree.vertices]
        assert k_squared(tree, K) == sum(k * x for k, x in zip(K, d))


@st.composite
def weighted_k_vectors(draw):
    """Vertices of random weights and genera (all ``k_squared`` reads of a
    tree) with a random K vector: all Fractions, or all ints."""
    n = draw(st.integers(1, 12))
    vertices = tuple(Vertex(i, draw(st.integers(-9, 3)), draw(st.integers(0, 2)))
                     for i in range(n))
    if draw(st.booleans()):
        entry = st.integers(-50, 50)
    else:
        entry = st.fractions(min_value=-50, max_value=50, max_denominator=40)
    K = draw(st.lists(entry, min_size=n, max_size=n))
    return PlumbingTree(vertices, ()), K


@given(weighted_k_vectors())
def test_k_squared_is_the_plain_fraction_sum(tree_and_K):
    tree, K = tree_and_K
    d = [-v.weight - 2 + 2 * v.genus for v in tree.vertices]
    plain = sum((Fraction(k) * x for k, x in zip(K, d)), Fraction(0))
    ksq = k_squared(tree, K)
    assert ksq == plain and isinstance(ksq, Fraction)
    assert is_num_gorenstein(K) == all(Fraction(k).denominator == 1 for k in K)


def test_ex1_not_numerically_gorenstein(ex1_result):
    assert not ex1_result.obstructions.numerically_gorenstein
    assert not ex1_result.obstructions.ls_applicable


def test_chi_resolution(ex1_result, ex3_result):
    assert chi_resolution(ex3_result.plumbing) == 18  # 2*17 - 16
    assert chi_resolution(ex1_result.plumbing) == 14  # 2*13 - 12
    assert chi_resolution(PlumbingTree((Vertex(1, -2),))) == 2


def test_fibre_euler_examples(ex2_graph, ex3_graph):
    mixed = fibre_euler(subtract_and_normalize(ex2_graph))
    assert (mixed.chi, mixed.genus, mixed.boundary) == (-2, 1, 2)
    product = fibre_euler(product_multiplicity_tree(ex2_graph))
    assert (product.chi, product.genus, product.boundary) == (-10, 5, 2)
    mixed3 = fibre_euler(subtract_and_normalize(ex3_graph))
    assert (mixed3.chi, mixed3.genus, mixed3.boundary) == (-10, 5, 2)


def test_fibre_euler_parity_guard():
    # chi = 2 with one boundary circle: genus would be -1/2
    mp = MultPlumbing((MultVertex(1, -1, 0, 2, False),), (), (Arrow(1, 1),))
    with pytest.raises(PlumbingError, match="disconnected fibre"):
        fibre_euler(mp)


def test_join_euler():
    assert join_euler(-10, 3) == 23
    assert join_euler(-2, 2) == 4
    assert all(join_euler(1, r) == 1 for r in range(2, 10))
    assert wedge_count(-10, 3) == 22


@given(st.integers(-50, 2), st.integers(2, 9))
def test_join_euler_matches_join_oracle(chi, r):
    # chi(A * B) = chi(A) + chi(B) - chi(A) * chi(B), with B = r points
    assert join_euler(chi, r) == chi + r - chi * r


def test_laufer_steenbrink_residues():
    # the reference obstruction arithmetic: 23 vs -15 mod 12
    assert 23 % 12 == 11
    assert (18 + -33) % 12 == 9
    tree = PlumbingTree((Vertex(1, -2),))
    ls = laufer_steenbrink(tree, 2)
    assert ls.applicable and ls_tuple(ls) == (2, 2, True)


def test_laufer_steenbrink_inapplicable(ex1_result):
    ls = laufer_steenbrink(ex1_result.plumbing, 19)
    assert not ls.applicable
    assert ls_tuple(ls) == (None, None, None)


def test_determinant_and_definite(ex1_result, ex2_result, ex3_result):
    assert determinant(PlumbingTree((Vertex(1, -2),))) == -2
    reduced = ex2_result.blowdown
    assert abs(determinant(reduced)) == 5
    assert negative_definite(reduced)
    assert negative_definite(ex3_result.plumbing)
    assert negative_definite(ex1_result.plumbing)


def test_blow_down_k_squared_shift(ex2_result):
    # each -1 blow-down changes K^2 by -1 while dropping one vertex, so
    # K^2 + vertex count is invariant (intersection forms stay nonsingular)
    tree = ex2_result.plumbing
    K = canonical_class(tree)
    start = k_squared(tree, K) + len(tree.vertices)
    reduced = blow_down(tree)
    K2 = canonical_class(reduced)
    assert k_squared(reduced, K2) + len(reduced.vertices) == start


# -- example 3 canonical class: reference data vs the synthesized tree -------

EX3_REFERENCE_K = (-27, -18, -9, -6, -4, -2, -1, 0, 1, 2, 3, 4, 5, 6, 3, 4, 2)


def test_ex3_honest_canonical_class(ex3_result):
    """On the synthesized step-5 tree (arrow leg [-2, -3] from the Seifert
    pair (5, 2)) the adjunction solution is not integral."""
    tree = ex3_result.plumbing
    K = canonical_class(tree)
    assert adjunction_residual(tree, K) == [0] * len(K)
    assert not is_num_gorenstein(K)
    assert k_squared(tree, K) == Fraction(-209, 5)
    assert {k.denominator for k in K} == {1, 5}
    assert not laufer_steenbrink(tree, 23).applicable


def variant_ex3_tree(tree: PlumbingTree) -> PlumbingTree:
    """The reference 17-entry K vector solves the adjunction system of the
    variant tree whose node-7 arrow leg is [-2, -2] instead of [-2, -3]."""
    vertices = tuple(
        Vertex(v.id, -2, v.genus, None, False, v.origin)
        if v.origin.startswith("arrow (5,2)") else
        Vertex(v.id, v.weight, v.genus, None, False, v.origin)
        for v in tree.vertices
    )
    return PlumbingTree(vertices, tree.edges, tree.arrows)


def test_ex3_reference_k_belongs_to_variant_tree(ex3_result):
    variant = variant_ex3_tree(ex3_result.plumbing)
    K = canonical_class(variant)
    assert is_num_gorenstein(K)
    assert sorted(int(k) for k in K) == sorted(EX3_REFERENCE_K)
    # the reference K^2 = -33 is not the quadratic form of this K either,
    # but both values land on the same residue, so the reference
    # 23-vs--15 verdict is unchanged
    assert k_squared(variant, K) == -21
    assert (-21 - (-33)) % 12 == 0
    ls = laufer_steenbrink(variant, 23)
    assert ls_tuple(ls) == (11, 9, False)
