from fractions import Fraction

from hypothesis import given, strategies as st

from susplink.graphs import (
    Edge,
    PlumbingTree,
    Vertex,
    intersection_matrix,
    multiplicity_to_plumbing,
    symmetric_rep,
)
from susplink.invariants import fibre_euler
from susplink.resolve import normalize_signed, signed_mults, subtract_and_normalize
from susplink.synthesis import blow_down, normalize_edge_signs
from dense_linalg import determinant

big = st.integers(min_value=-(2 ** 128), max_value=2 ** 128)
nonzero = big.filter(lambda x: x != 0)


@given(big, big, nonzero, nonzero)
def test_rational_field_axioms(a, b, c, d):
    x = Fraction(a, c)
    y = Fraction(b, d)
    assert (x + y) - y == x
    assert (x * y) / y == x or y == 0


@given(big, nonzero)
def test_rational_stored_reduced(a, c):
    from math import gcd

    x = Fraction(a, c)
    assert x.denominator >= 1
    assert gcd(abs(x.numerator), x.denominator) == 1


@st.composite
def random_trees(draw):
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    vertices = tuple(Vertex(i + 1, w) for i, w in enumerate(weights))
    edges = tuple(
        Edge(draw(st.integers(1, k)), k + 1) for k in range(1, n)
    )
    return PlumbingTree(vertices, edges)


@given(random_trees())
def test_intersection_matrix_shape_and_symmetry(tree):
    m = intersection_matrix(tree)
    assert len(m) == len(tree.vertices)
    assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(len(m)))
    assert [m[i][i] for i in range(len(m))] == [v.weight for v in tree.vertices]


@given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 6))
def test_symmetric_rep_is_in_class_and_minimal(lam, sigma):
    rep = symmetric_rep(sigma, lam)
    assert rep % lam == sigma % lam
    assert abs(rep) <= lam // 2 or rep == sigma % lam


def test_fibre_euler_orientation_flip_invariant(ex3_graph):
    mp = subtract_and_normalize(ex3_graph)
    reversed_link = normalize_signed(
        ex3_graph, {i: -m for i, m in signed_mults(mp).items()})
    assert fibre_euler(mp) == fibre_euler(reversed_link)


def test_base_tree_blow_down_is_a_sphere(ex1_graph, ex2_graph, ex3_graph):
    # the input resolution trees themselves bound the 3-sphere
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        mp = subtract_and_normalize(graph)
        tree = normalize_edge_signs(multiplicity_to_plumbing(mp))
        assert abs(determinant(intersection_matrix(blow_down(tree)))) == 1
