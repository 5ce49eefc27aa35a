import random
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from dense_linalg import determinant, is_negative_definite, leading_minors, solve_exact
from susplink.errors import MonodromyError
from susplink.exactlinalg import eliminate
from susplink.graphs import Edge, PlumbingTree, Vertex, intersection_matrix
from susplink.invariants import canonical_class, form_invariants


def laplace_det(m):
    """Independent oracle: cofactor expansion."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * laplace_det(minor)
    return total


small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(small_matrices)
def test_determinant_matches_laplace(m):
    assert determinant(m) == laplace_det(m)


def test_determinant_known():
    assert determinant([[-2]]) == -2
    assert determinant([[-3, 2], [2, -3]]) == 5


@given(small_matrices, st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_solve_by_resubstitution(m, rhs):
    n = len(m)
    rhs = (rhs * n)[:n]
    if laplace_det(m) == 0:
        with pytest.raises(MonodromyError):
            solve_exact(m, rhs)
        return
    x = solve_exact(m, rhs)
    for i in range(n):
        assert sum(Fraction(m[i][j]) * x[j] for j in range(n)) == rhs[i]


def test_leading_minors():
    m = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    assert leading_minors(m) == [-2, 3, -4]
    assert is_negative_definite(m)


def test_not_definite():
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[-2, 3], [3, -2]])


def definiteness_oracle(m):
    """Sylvester via the Laplace oracle."""
    n = len(m)
    for k in range(1, n + 1):
        sub = [row[:k] for row in m[:k]]
        if (-1) ** k * laplace_det(sub) <= 0:
            return False
    return True


@given(small_matrices)
def test_definiteness_matches_oracle(m):
    sym = [[m[i][j] + m[j][i] for j in range(len(m))] for i in range(len(m))]
    assert is_negative_definite(sym) == definiteness_oracle(sym)


# -- the sparse elimination against the dense reference ----------------------

@st.composite
def plumbing_forms(draw, max_vertices=7, weight=st.sampled_from((-3, -2, -1, 0, 0, 1)),
                   max_extra_edges=4):
    """Random forests (trees with some vertices left off, so that isolated
    vertices and several components occur), plus extra edges (cycles and
    parallel edges) and edges doubled with the opposite sign, so that they
    cancel; zero weights are frequent enough to reach the 2x2 pivots."""
    n = draw(st.integers(1, max_vertices))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    off_tree = draw(st.sets(st.integers(1, n)))
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n) if k not in off_tree]
    if n > 1:
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=max_extra_edges))
    edges = [Edge(u, v, draw(st.sampled_from((1, -1)))) for u, v in pairs]
    cancel = draw(st.sets(st.integers(0, max(len(edges) - 1, 0))))
    edges += [Edge(e.u, e.v, -e.sign) for i, e in enumerate(edges) if i in cancel]
    return PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights)), tuple(edges))


# Up to 12 vertices with weights up to 10^6 and up to 16 extra edges, so the
# fill-in of the cycles leaves large rational off-diagonal entries.
large_forms = plumbing_forms(
    max_vertices=12,
    weight=st.integers(-10**6, 10**6) | st.sampled_from((-2, -1, 0, 1)),
    max_extra_edges=16)


@given(plumbing_forms(), st.lists(st.integers(-9, 9), min_size=7, max_size=7))
def test_elimination_matches_dense_reference(tree, rhs):
    _check_against_dense_reference(tree, rhs)


@given(large_forms, st.lists(st.integers(-10**9, 10**9), min_size=12, max_size=12))
def test_large_elimination_matches_dense_reference(tree, rhs):
    _check_against_dense_reference(tree, rhs)


def _check_against_dense_reference(tree, rhs):
    matrix = intersection_matrix(tree)
    rhs = rhs[:len(matrix)]
    form = eliminate(tree)
    assert form.determinant == determinant(matrix)
    assert form.negative_definite == is_negative_definite(matrix)
    assert form.solution is None
    if form.determinant == 0:
        with pytest.raises(MonodromyError):
            eliminate(tree, rhs)
    else:
        assert eliminate(tree, rhs).solution == solve_exact(matrix, rhs)


def test_elimination_chain_with_two_minus_one_vertices():
    tree = PlumbingTree((Vertex(1, -1), Vertex(2, -1), Vertex(3, -2)),
                        (Edge(1, 2), Edge(2, 3)))
    form = eliminate(tree)
    assert (form.determinant, form.negative_definite) == (1, False)


def test_elimination_2x2_pivot():
    tree = PlumbingTree((Vertex(1, 0), Vertex(2, 0)), (Edge(1, 2),))
    form = eliminate(tree, [2, 3])
    assert (form.determinant, form.negative_definite) == (-1, False)
    assert form.solution == [3, 2]


def test_leaf_left_with_zero_diagonal_goes_to_a_2x2_block():
    """Stripping the leaf 1 drives the diagonal of 2 to 0 while 2 is left
    with the one neighbour 3, whose diagonal is 0 too: neither is a pivot of
    the leaf pass, and the pair is eliminated as a 2x2 block."""
    tree = PlumbingTree((Vertex(1, -1), Vertex(2, -1), Vertex(3, 0)),
                        (Edge(1, 2), Edge(2, 3)))
    form = eliminate(tree, [1, 2, 3])
    assert (form.determinant, form.negative_definite) == (1, False)
    assert form.solution == [2, 3, 3]
    _check_against_dense_reference(tree, [1, 2, 3])


def test_elimination_singular_form():
    tree = PlumbingTree((Vertex(1, 0),))
    form = eliminate(tree)
    assert (form.determinant, form.negative_definite) == (0, False)
    with pytest.raises(MonodromyError, match="canonical class undefined"):
        canonical_class(tree)


def _chain(weights):
    return PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights)),
                        tuple(Edge(i, i + 1) for i in range(len(weights) - 1)))


def test_long_minus_two_chain():
    # A_500: det (-1)^500 * 501, negative definite
    form = eliminate(_chain([-2] * 500))
    assert (form.determinant, form.negative_definite) == (501, True)


def test_long_minus_three_chain():
    # the continuant D_k = -3 D_(k-1) - D_(k-2), D_0 = 1, D_1 = -3
    dets = [1, -3]
    for _ in range(119):
        dets.append(-3 * dets[-1] - dets[-2])
    assert dets[120].bit_length() > 160
    form = eliminate(_chain([-3] * 120))
    assert (form.determinant, form.negative_definite) == (dets[120], True)


def test_long_minus_three_chain_solve():
    n = 120
    rhs = [1] + [0] * (n - 1)
    x = eliminate(_chain([-3] * n), rhs).solution
    assert all(isinstance(v, Fraction) for v in x)
    for i in range(n):
        row = -3 * x[i] + (x[i - 1] if i else 0) + (x[i + 1] if i < n - 1 else 0)
        assert row == rhs[i]


# -- forms with no nonzero diagonal: every pivot is a 2x2 block --------------

def _zero_star(leaves):
    return PlumbingTree(tuple(Vertex(i, 0) for i in range(leaves + 1)),
                        tuple(Edge(0, i) for i in range(1, leaves + 1)))


# An odd zero-weight path is singular and an even one has det (-1)^(n/2); a
# zero-weight star with two or more leaves is singular.
_ZERO_FORMS = ([pytest.param(_chain([0] * n), 0 if n % 2 else (-1) ** (n // 2), id=f"path{n}")
                for n in range(1, 25)]
               + [pytest.param(_zero_star(k), 0 if k > 1 else -1, id=f"star{k}")
                  for k in range(1, 8)])


@pytest.mark.parametrize("tree,det", _ZERO_FORMS)
def test_zero_weight_forms_match_dense_reference(tree, det):
    assert eliminate(tree).determinant == det
    _check_against_dense_reference(tree, list(range(1, len(tree.vertices) + 1)))


# -- the least-degree loop: 1x1 pivots and 2x2 blocks mixed -----------------

@st.composite
def loop_forms(draw):
    """A cycle through all n >= 3 vertices, each of its edges taken one to
    three times with one sign, plus chords between vertices that are not
    neighbours on it (chords may cancel each other, never a cycle edge).
    Every vertex keeps two neighbours, so the leaf pass strips nothing and
    every pivot is the loop's.  At most three weights are nonzero, so 2x2
    blocks are frequent, and the fill-in of a 1x1 pivot can cancel a
    diagonal or that of a 2x2 block make one nonzero: about a third of
    these forms mix the two kinds."""
    n = draw(st.integers(3, 9))
    weights = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        weights[i] = draw(st.sampled_from((-3, -2, -1, 1, 2)))
    edges = []
    for i in range(n):
        edges += [Edge(i, (i + 1) % n, draw(st.sampled_from((1, -1))))] * draw(st.integers(1, 3))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(2, max(2, n - 2)),
                                     st.sampled_from((1, -1))), max_size=2 * n if n > 3 else 0))
    edges += [Edge(i, (i + k) % n, sign) for i, k, sign in chords]
    return PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights)), tuple(edges))


# A zero-weight 5-cycle with one edge doubled: its second 2x2 block joins
# rows of different scale, so R_v[w] != R_w[v].
@example(PlumbingTree(tuple(Vertex(i, 0) for i in range(5)),
                      tuple(Edge(i, (i + 1) % 5) for i in (0, 0, 1, 2, 3, 4))), [1, 2, 3, 4, 5])
@given(loop_forms(), st.lists(st.fractions(-9, 9, max_denominator=12), min_size=9, max_size=9))
def test_loop_forms_match_dense_reference(tree, rhs):
    _check_against_dense_reference(tree, rhs)


# -- the integer leaf pass: named cases ---------------------------------------

@given(plumbing_forms(), st.lists(st.fractions(-9, 9, max_denominator=12), min_size=7,
                                  max_size=7))
def test_fraction_rhs_matches_dense_reference(tree, rhs):
    _check_against_dense_reference(tree, rhs)


def test_fraction_rhs_is_solved_exactly():
    """The rhs is scaled to ints by the lcm of its denominators, never cut."""
    tree = _chain([-2, -3, -2])
    rhs = [Fraction(1, 2), Fraction(-2, 3), 5]
    x = eliminate(tree, rhs).solution
    assert x == solve_exact(intersection_matrix(tree), rhs)
    assert x == [Fraction(-37, 48), Fraction(-25, 24), Fraction(-145, 48)]


def test_leaves_stripped_into_a_cycle():
    """Leaves 4, 5 and 6 are stripped into 1 and 2, which then lie on the
    triangle 1, 2, 3: the denominators 9 and -2 they leave there are part
    of the determinant."""
    tree = PlumbingTree(
        tuple(Vertex(i, w) for i, w in ((1, -4), (2, -4), (3, -4), (4, -3), (5, -3), (6, -2))),
        (Edge(1, 2), Edge(2, 3), Edge(3, 1), Edge(1, 4), Edge(1, 5), Edge(2, 6)))
    form = eliminate(tree)
    assert (form.determinant, form.negative_definite) == (609, True)
    _check_against_dense_reference(tree, [1, -2, 3, 0, 5, -1])


def test_two_component_forest():
    tree = PlumbingTree(
        tuple(Vertex(i, w) for i, w in ((1, -2), (2, -2), (3, -3), (4, -2), (5, -2), (6, -5))),
        (Edge(1, 2), Edge(3, 4), Edge(3, 5), Edge(3, 6)))
    form = eliminate(tree)
    assert (form.determinant, form.negative_definite) == (3 * 36, True)
    _check_against_dense_reference(tree, [1, 0, 2, 0, -1, 1])


def test_zero_pivot_in_mid_chain_goes_to_the_loop():
    """Stripping the -2 leaves 4 and 5 drives the pivot of 1 to 0/4 while 1
    lies inside the chain 0 - 1 - 2 - 3, whose ends weigh 0: all four go to
    the least-degree loop, and 1's denominator 4 is part of the determinant."""
    tree = PlumbingTree(
        tuple(Vertex(i, w) for i, w in ((0, 0), (1, -1), (2, -2), (3, 0), (4, -2), (5, -2))),
        (Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(1, 4), Edge(1, 5)))
    form = eliminate(tree, [1, 2, 3, 4, 5, 6])
    assert (form.determinant, form.negative_definite) == (4, False)
    assert form.solution == [Fraction(7, 2), 1, 4, 10, -2, Fraction(-5, 2)]
    _check_against_dense_reference(tree, [1, 2, 3, 4, 5, 6])


@pytest.mark.parametrize("rhs", [[1, 2, 3, 4], [1, 2]], ids=["long", "short"])
def test_rhs_of_the_wrong_length_is_rejected(rhs):
    with pytest.raises(ValueError, match=f"rhs has {len(rhs)} entries for a form of 3 vertices"):
        eliminate(_chain([-2, -2, -2]), rhs)


@pytest.mark.parametrize("rhs", [None, [1, 2, 3]], ids=["form", "solve"])
def test_edge_from_a_vertex_to_itself_is_rejected(rhs):
    """The form has no diagonal edge entries: an edge u == v is an error that
    names its vertex, before any elimination."""
    graph = SimpleNamespace(vertices=_chain([-2, -2, -2]).vertices,
                            edges=[Edge(0, 1), Edge(1, 1, -1), Edge(1, 2)])
    with pytest.raises(ValueError, match=r"^edge from vertex 1 to itself"):
        eliminate(graph, rhs)


def _apply_form(tree, x):
    """form @ x, summed over the tree's edges."""
    row = {v.id: v.weight * k for v, k in zip(tree.vertices, x)}
    value = dict(zip(tree.ids, x))
    for e in tree.edges:
        row[e.u] += e.sign * value[e.v]
        row[e.v] += e.sign * value[e.u]
    return list(row.values())


def test_random_3000_vertex_tree_canonical_class():
    """A*K = d on a seeded random tree whose determinant has 1551 digits,
    checked row by row on the tree's edges."""
    rnd = random.Random(3000)
    tree = PlumbingTree(tuple(Vertex(i, -rnd.randint(2, 6)) for i in range(1, 3001)),
                        tuple(Edge(rnd.randint(1, i - 1), i) for i in range(2, 3001)))
    d = [-v.weight - 2 for v in tree.vertices]
    form = eliminate(tree, d)
    assert form.determinant == eliminate(tree).determinant
    assert len(str(abs(form.determinant))) == 1551
    assert _apply_form(tree, form.solution) == d


def _cycle(weights, counts=None):
    """The cycle 1 - 2 - ... - n - 1, the edge from i to i + 1 (n to 1 last)
    taken counts[i - 1] times."""
    n = len(weights)
    counts = counts or [1] * n
    return PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights, 1)),
                        tuple(Edge(i, i % n + 1) for i in range(1, n + 1)
                              for _ in range(counts[i - 1])))


def _cycle_det(weights, counts):
    """Independent oracle: the determinant of a periodic Jacobi matrix is the
    trace of the product of its transfer matrices [[a_i, -b_(i-1)^2], [1, 0]]
    minus 2 * (-b_1)...(-b_n)."""
    (p, q), (r, s) = (1, 0), (0, 1)
    for a, b in zip(weights, counts[-1:] + counts[:-1]):
        (p, q), (r, s) = (a * p - b * b * r, a * q - b * b * s), (p, q)
    return p + s - 2 * prod(-b for b in counts)


@pytest.mark.parametrize("n", [2000, 2001])
def test_minus_two_cycle_at_size(n):
    """A cycle has no leaf, so every vertex goes through the least-degree
    loop, filling in rationally.  With one -3 and the rest -2 the form is
    minus the cycle Laplacian plus e_1 e_1^T, whose determinant is the
    Laplacian's (1, 1) cofactor n, up to the sign (-1)^n."""
    tree = _cycle([-3] + [-2] * (n - 1))
    inv = form_invariants(tree)
    assert inv["determinant"] == (-1) ** n * n == _cycle_det([-3] + [-2] * (n - 1), [1] * n)
    assert inv["negative_definite"] and inv["numerically_gorenstein"]
    assert inv["K_squared"] == -1
    assert _apply_form(tree, inv["K"]) == [1] + [0] * (n - 1)


@pytest.mark.parametrize("n", [2001, 2002])
def test_zero_weight_cycle_at_size(n):
    """Zero weights and edge counts 2, 1, 2, ... leave the loop only 2x2
    blocks (1000 and 1001 of them), with rational fill-in between them."""
    weights, counts = [0] * n, [2, 1] * (n // 2) + [2] * (n % 2)
    tree = _cycle(weights, counts)
    rhs = list(range(1, n + 1))
    form = eliminate(tree, rhs)
    assert form.determinant == eliminate(tree).determinant == _cycle_det(weights, counts) != 0
    assert not form.negative_definite
    assert _apply_form(tree, form.solution) == rhs


def test_ladder_is_independent_of_vertex_and_edge_order():
    """A 2 x 1000 ladder (rails 1..1000 and 1001..2000, rungs i to i + 1000)
    has no leaf, so every vertex goes through the loop, which fills in as it
    runs along the ladder.  A seeded reordering of the vertices and edges
    changes neither det, definiteness nor the solution, and the solution
    satisfies A*x = rhs."""
    n = 1000
    vertices = [Vertex(i, -4 if i % 3 == 0 else -3) for i in range(1, 2 * n + 1)]
    edges = ([Edge(i, i + 1) for i in range(1, 2 * n) if i != n]
             + [Edge(i, i + n) for i in range(1, n + 1)])
    rhs = {v.id: v.id % 7 - 3 for v in vertices}
    shuffled_vertices, shuffled_edges = vertices[:], edges[:]
    rnd = random.Random(2000)
    rnd.shuffle(shuffled_vertices)
    rnd.shuffle(shuffled_edges)
    results = []
    for vs, es in ((vertices, edges), (shuffled_vertices, shuffled_edges)):
        tree = PlumbingTree(tuple(vs), tuple(es))
        b = [rhs[v.id] for v in vs]
        form = eliminate(tree, b)
        assert form.determinant == eliminate(tree).determinant
        assert _apply_form(tree, form.solution) == b
        results.append((form.determinant, form.negative_definite,
                        dict(zip(tree.ids, form.solution))))
    assert results[0] == results[1]
    assert results[0][0] > 0 and results[0][1]
