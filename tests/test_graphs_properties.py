from fractions import Fraction

from hypothesis import example, given, strategies as st

from susplink import graphs
from susplink.errors import NotATreeError
from susplink.graphs import (
    Arrow,
    Edge,
    PlumbingTree,
    Vertex,
    intersection_matrix,
    symmetric_rep,
    unbalanced,
)
from susplink.invariants import fibre_euler
from susplink.resolve import SIDE_COEFFS, normalize_signed, subtract_and_normalize
from susplink.synthesis import blow_down, normalize_edge_signs
import tree_reference
from dense_linalg import determinant
from graph_helpers import multiplicity_to_plumbing, signed_mults
from test_exactlinalg import plumbing_forms

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


def dense_residual(graph, mults):
    """A*m + b with A the intersection matrix and b the arrow mults per vertex."""
    matrix = intersection_matrix(graph)
    b = [0] * len(matrix)
    for a in graph.arrows:
        b[a.vertex] += a.mult
    return [sum(a * m for a, m in zip(row, mults)) + c for row, c in zip(matrix, b)]


@given(plumbing_forms(), st.data())
def test_unbalanced_matches_dense_residual(tree, data):
    n = len(tree.vertices)
    mults = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    arrows = data.draw(st.lists(st.builds(Arrow, st.integers(0, n - 1),
                                          st.integers(-2, 2)), max_size=3))
    residual = dense_residual(PlumbingTree(tree.vertices, tree.edges, tuple(arrows)),
                              mults)
    # cancel the residual at some vertices, so that balanced ones occur too
    fixed = data.draw(st.sets(st.integers(0, n - 1)))
    arrows += [Arrow(i, -residual[i]) for i in sorted(fixed)]
    graph = PlumbingTree(tree.vertices, tree.edges, tuple(arrows))
    expected = tuple(i for i, r in enumerate(dense_residual(graph, mults)) if r)
    assert unbalanced(graph, dict(enumerate(mults))) == expected


@given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 6))
def test_symmetric_rep_is_in_class_and_minimal(lam, sigma):
    rep = symmetric_rep(sigma, lam)
    assert rep % lam == sigma % lam
    assert abs(rep) <= lam // 2 or rep == sigma % lam


def test_fibre_euler_orientation_flip_invariant(ex3_graph):
    mp = subtract_and_normalize(ex3_graph)
    reversed_link = normalize_signed(
        ex3_graph, {i: -m for i, m in signed_mults(mp).items()}, SIDE_COEFFS["fg"])
    assert fibre_euler(mp) == fibre_euler(reversed_link)


def test_base_tree_blow_down_is_a_sphere(ex1_graph, ex2_graph, ex3_graph):
    # the input resolution trees themselves bound the 3-sphere
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        mp = subtract_and_normalize(graph)
        tree = normalize_edge_signs(multiplicity_to_plumbing(mp))
        assert abs(determinant(intersection_matrix(blow_down(tree)))) == 1


@st.composite
def id_edge_lists(draw):
    """Vertex ids, maybe none and maybe repeated, and (u, v) pairs on them:
    a spanning tree with some of its edges dropped (a forest, isolated
    vertices), then up to three more pairs, which close cycles, make
    self-loops or parallel edges, or end on an unknown id."""
    ids = draw(st.lists(st.integers(0, 8), max_size=8, unique=draw(st.booleans())))
    pairs = draw(st.permutations(
        [(ids[draw(st.integers(0, k - 1))], ids[k]) for k in range(1, len(ids))]))
    pairs = pairs[:draw(st.integers(0, len(pairs)))]
    ends = st.one_of(st.sampled_from(ids), st.integers(0, 9)) if ids else st.integers(0, 9)
    return ids, pairs + draw(st.lists(st.tuples(ends, ends), max_size=3))


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(id_edge_lists())
@example(([1, 2], [(1, 3)]))  # an edge that ends on an unknown id
def test_tree_test_equals_the_reference(case):
    """One breadth-first walk gives the bool, or raises the error of the same
    type and text, that the two-colouring of ``tree_reference.py`` does, on
    (u, v) pairs and on ``Edge`` records alike.  Where the reference raises
    a bare KeyError (an edge ends on an unknown id), the walk finds no tree
    and ``check_tree`` raises NotATreeError."""
    ids, pairs = case
    edges = [Edge(u, v) for u, v in pairs]
    want_tree = _outcome(tree_reference._is_tree, ids, pairs)
    want = _outcome(tree_reference.check_tree, ids, pairs, "drawn graph")
    if want is not None and want[0] is KeyError:
        want_tree = False
        want = NotATreeError, "not a tree: drawn graph must be connected and acyclic"
    for mine in (pairs, edges):
        assert _outcome(graphs._is_tree, tuple(ids), mine) == want_tree
        assert _outcome(graphs.check_tree, tuple(ids), mine, "drawn graph") == want
