"""The obstruction invariants read off the Waldhausen graph.

``waldhausen_form`` never builds a chain vertex, so at every r it must agree
with one elimination of the expanded tree (``form_invariants``), and
``obstruction_report`` must fill K on that tree vertex by vertex.  The
Dedekind-sum formula of Nemethi-Nicolaescu is a second oracle, which shares
no code with either and still runs at r = 10^9 + 7.
"""

import time
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from susplink import synthesis
from susplink.cli import main
from susplink.errors import MonodromyError, PlumbingError, UnsupportedError
from susplink.exactlinalg import eliminate
from susplink.graphs import (Edge, Vertex, WaldArrow, WaldEdge, WaldhausenGraph, WaldStalk,
                             WaldVertex)
from susplink.invariants import (_canonical_class, fibre_euler, form_invariants, join_euler,
                                 waldhausen_form)
from susplink.nielsen import build_nielsen
from susplink.pipeline import StageError, run_pipeline
from susplink.power import power_nielsen
from susplink.resolve import multiplicity_trees, parse_resolution
from susplink.synthesis import synth_plumbing
from susplink.waldhausen import nielsen_to_waldhausen
from conftest import DATA, read_input
from dense_linalg import determinant, is_negative_definite, solve_exact
from graph_helpers import verify_balance

RUNS = [(name, side) for name in ("ex1", "ex2", "ex3", "cusp")
        for side in ("fg", "f", "g") if (name, side) != ("cusp", "g")]
FORM_FIELDS = ("determinant", "negative_definite", "K_squared", "numerically_gorenstein",
               "chi_resolution")
BIG_R = 10**9 + 7


def waldhausen(name, side, r):
    """Steps 1-4 only: no tree is built."""
    mp, _ = multiplicity_trees(parse_resolution(read_input(f"{name}.txt")), side)
    return mp, nielsen_to_waldhausen(power_nielsen(build_nielsen(mp), r))


@pytest.mark.parametrize("name, side", RUNS)
def test_form_and_K_equal_the_expanded_tree(name, side):
    text = read_input(f"{name}.txt")
    for r in range(1, 201):
        result = run_pipeline(text, r, side=side)
        verify_balance(result.plumbing_full)
        expected = form_invariants(result.plumbing_full)
        form = waldhausen_form(result.waldhausen)
        assert {f: getattr(form, f) for f in FORM_FIELDS} == {
            f: expected[f] for f in FORM_FIELDS}, r
        assert result.obstructions.K == expected["K"], r


@pytest.mark.parametrize("name, side", RUNS)
def test_size_prediction_is_the_vertex_count(name, side, monkeypatch):
    limit = synthesis.MAX_VERTICES
    for r in range(1, 201):
        monkeypatch.setattr(synthesis, "MAX_VERTICES", limit)  # power_nielsen reads it too
        w = waldhausen(name, side, r)[1]
        size = len(synth_plumbing(w).vertices)
        monkeypatch.setattr(synthesis, "MAX_VERTICES", size - 1)
        with pytest.raises(UnsupportedError, match=f"would have {size} vertices"):
            synth_plumbing(w)
        monkeypatch.setattr(synthesis, "MAX_VERTICES", size)
        assert len(synth_plumbing(w).vertices) == size


def test_oversized_tree_is_refused_before_any_chain_is_expanded(capsys, monkeypatch):
    expanded = []

    def counted(num, den):
        expanded.append(num)
        return original(num, den)

    original = synthesis.neg_cf_expand
    monkeypatch.setattr(synthesis, "neg_cf_expand", counted)
    with pytest.raises(StageError) as info:
        run_pipeline(read_input("cusp.txt"), BIG_R, side="f")
    assert info.value.stage == "plumbing"
    assert isinstance(info.value.cause, UnsupportedError)
    assert expanded == []
    code = main(["pipeline", str(DATA / "cusp.txt"), "-r", str(BIG_R), "--side", "f"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [plumbing] the plumbing tree would have 166666675 vertices")
    assert expanded == []


def test_node_integral_K_is_not_gorenstein_with_fractional_chains():
    """ex1 mixed at r = 7: K is integral on both nodes, not on six chain
    vertices, so a test on the nodes alone would call it Gorenstein."""
    result = run_pipeline(read_input("ex1.txt"), 7)
    K = result.obstructions.K
    assert K[:2] == (-46, -36)
    assert sum(k.denominator != 1 for k in K[2:]) == 6
    assert not result.obstructions.numerically_gorenstein
    assert not result.obstructions.ls_applicable
    assert not waldhausen_form(result.waldhausen).numerically_gorenstein


def eliminate_outcome(matrix, rhs):
    """``eliminate`` on the symmetric ``matrix`` as a graph: the diagonal as
    weights and one edge per nonzero upper entry, that entry as its sign."""
    n = len(matrix)
    graph = SimpleNamespace(
        vertices=[Vertex(i, matrix[i][i]) for i in range(n)],
        edges=[Edge(i, j, matrix[i][j]) for i in range(n) for j in range(i + 1, n)
               if matrix[i][j]])
    try:
        return eliminate(graph, rhs)
    except MonodromyError:
        return None


def dense_outcome(matrix, rhs):
    det = determinant(matrix)
    if det == 0:
        return None
    return det, is_negative_definite(matrix), solve_exact(matrix, rhs)


@pytest.mark.parametrize("matrix, rhs", [
    ([[0, 1, 0], [1, -2, 1], [0, 1, -3]], [1, 0, -2]),   # zero leading minor
    ([[-2, 1], [1, 0]], [3, 1]),                          # zero second pivot
    ([[-1, 1], [1, -1]], [0, 0]),                         # singular
    ([[0, 0], [0, -1]], [1, 1]),                          # singular, zero column
])
def test_node_solver_on_degenerate_forms(matrix, rhs):
    assert eliminate_outcome(matrix, rhs) == dense_outcome(matrix, rhs)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
def test_node_solver_equals_dense_linear_algebra(case):
    matrix, rhs = case
    symmetric = [[matrix[min(i, j)][max(i, j)] for j in range(len(matrix))]
                 for i in range(len(matrix))]
    assert eliminate_outcome(symmetric, rhs) == dense_outcome(symmetric, rhs)


def form_and_K(w):
    form = waldhausen_form(w)
    return {f: getattr(form, f) for f in FORM_FIELDS}, _canonical_class(form)


def tree_form_and_K(tree):
    expected = form_invariants(tree)
    return {f: expected[f] for f in FORM_FIELDS}, expected["K"]


# a (5, 4) chain from the one node to itself: [-1, -5] joined by two edges
SELF_LOOP = WaldhausenGraph((WaldVertex(1, 6, 0, 1, 5),), (), (WaldArrow(1, 1, 0),),
                            (WaldEdge(1, 1, 1, 5, 4, 4),))


def test_self_loop_chain_counts_at_both_ends():
    tree = synth_plumbing(SELF_LOOP)
    verify_balance(tree)
    assert [v.weight for v in tree.vertices] == [-1, -5]
    assert [(e.u, e.v) for e in tree.edges] == [(1, 2), (2, 1)]
    fields, K = form_and_K(SELF_LOOP)
    assert (fields, K) == tree_form_and_K(tree)
    assert fields["determinant"] == 1 and fields["K_squared"] == -2
    assert fields["numerically_gorenstein"]


@st.composite
def waldhausen_graphs(draw):
    """Up to three nodes with stalks, arrows and edges (parallel ones and
    self-loops among them), the eps of each edge from drawn node colours.
    A chain whose first value (q*m_u + R)/alpha is not integral is left
    out, and 1 to ``order`` arrows of alpha = 1 then make every node weight
    integral, so that ``synth_plumbing`` accepts most draws and the form is
    seldom singular (A*m is minus the arrows' multiplicities)."""
    n = draw(st.integers(1, 3))
    ids = range(1, n + 1)
    order = {i: draw(st.integers(1, 6)) for i in ids}
    color = {i: draw(st.sampled_from((1, -1))) for i in ids}
    m = {i: color[i] * order[i] for i in ids}
    terms = dict.fromkeys(ids, 0)  # neighbour and arrow multiplicities per node

    def pair(low):
        alpha = draw(st.integers(low, 7))
        return alpha, draw(st.sampled_from([b for b in range(alpha) if gcd(alpha, b) == 1]))

    def chain(u, v, alpha, beta, right):
        """Add the chain's first and last values to ``terms``, or return
        False when they are not integral."""
        first, last = right, m[u]
        if alpha > 1:
            first, rest = divmod((alpha - beta) * m[u] + right, alpha)
            if rest:
                return False
            last = (m[u] + (alpha - pow(beta, -1, alpha)) * right) // alpha
        terms[u] += first
        if v is not None:
            terms[v] += last
        return True

    stalks, arrows, edges = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        u, (alpha, beta) = draw(st.sampled_from(ids)), pair(2)
        if chain(u, None, alpha, beta, 0):
            stalks.append(WaldStalk(u, alpha, beta))
    for _ in range(draw(st.integers(0, 3))):
        u, (alpha, beta), rev = draw(st.sampled_from(ids)), pair(1), draw(st.booleans())
        if chain(u, None, alpha, beta, (-1 if rev else 1) * color[u]):
            arrows.append(WaldArrow(u, alpha, beta, rev))
    for _ in range(draw(st.integers(0, 4))):
        u, v = sorted(draw(st.sampled_from(ids)) for _ in range(2))
        alpha, beta = pair(1)
        if chain(u, v, alpha, beta, m[v]):
            edges.append(WaldEdge(u, v, color[u] * color[v], alpha, beta,
                                  pow(beta, -1, alpha) if alpha > 1 else 0))
    for i in ids:
        arrows += [WaldArrow(i, 1, 0)] * ((-terms[i] * color[i] - 1) % order[i] + 1)
    return WaldhausenGraph(tuple(WaldVertex(i, 0, draw(st.integers(0, 1)), 1, order[i])
                                 for i in ids), tuple(stalks), tuple(arrows), tuple(edges))


@given(waldhausen_graphs())
def test_form_and_K_equal_the_expanded_tree_on_drawn_graphs(w):
    try:
        tree = synth_plumbing(w)
    except PlumbingError:
        return
    verify_balance(tree)
    try:
        expected = tree_form_and_K(tree)
    except MonodromyError:
        with pytest.raises(MonodromyError, match="singular intersection matrix"):
            waldhausen_form(w)
        return
    assert form_and_K(w) == expected


def congruence_holds(mp, form, r):
    chi_F = join_euler(fibre_euler(mp).chi, r)
    return (form.chi_resolution + form.K_squared - chi_F) % 12 == 0


@pytest.mark.parametrize("name, side, det, gorenstein", [
    ("cusp", "f", -1, True),                 # Sigma(2, 3, r)
    ("ex1", "f", -1, True),                  # Sigma(2, 7, r)
    ("ex1", "g", -1, True),                  # Sigma(5, 2, r)
    ("ex1", "fg", -BIG_R, False),
])
def test_verdicts_at_r_beyond_any_tree(name, side, det, gorenstein):
    start = time.perf_counter()
    mp, w = waldhausen(name, side, BIG_R)
    form = waldhausen_form(w)
    assert time.perf_counter() - start < 1
    assert sum(c.k for c in form.chains) > 10**7
    assert (form.determinant, form.negative_definite) == (det, True)
    assert form.numerically_gorenstein == gorenstein
    if gorenstein:
        assert congruence_holds(mp, form, BIG_R)


def dedekind_sum(h, k):
    """s(h, k) by reciprocity, s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12
    - 1/4 (Rademacher-Grosswald 1972), in O(log k) steps."""
    total, sign, h = Fraction(0), 1, h % k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign, h, k = -sign, k % h, h
    return total


def dedekind_sum_by_definition(h, k):
    def saw(x):  # ((x)) = x - floor(x) - 1/2, and 0 on the integers
        return x - x.numerator // x.denominator - Fraction(1, 2) if x.denominator > 1 else 0
    return sum((saw(Fraction(i, k)) * saw(Fraction(h * i, k)) for i in range(1, k)), Fraction(0))


def seifert_k2_plus_vertices(b0, legs):
    """K^2 + #V of a genus-0 star with central weight -b0 and legs
    alpha/omega: eps^2*e + e + 5 - 12 * sum s(omega, alpha), with
    e = -b0 + sum omega/alpha and eps = (2 - legs + sum 1/alpha)/e
    (Nemethi-Nicolaescu 2002)."""
    e = -b0 + sum(Fraction(omega, alpha) for alpha, omega in legs)
    eps = (2 - len(legs) + sum(Fraction(1, alpha) for alpha, _ in legs)) / e
    return eps * eps * e + e + 5 - 12 * sum(dedekind_sum(omega, alpha) for alpha, omega in legs)


def star_legs(tree):
    """(alpha, omega) of each leg of a one-node tree whose node comes first:
    the continued fraction [b_1, ..., b_k] read outward from the node."""
    node = tree.vertices[0].id
    weight = {v.id: v.weight for v in tree.vertices}
    adj = {v.id: [] for v in tree.vertices}
    for e in tree.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    legs = []
    for start in adj[node]:
        chain, prev, cur = [], node, start
        while cur is not None:
            chain.append(-weight[cur])
            prev, cur = cur, next((x for x in adj[cur] if x != prev), None)
        num, den = 1, 0
        for b in reversed(chain):
            num, den = b * num - den, num
        legs.append((num, den))
    return legs


def test_dedekind_sum_reciprocity_equals_its_definition():
    for k in range(1, 40):
        for h in range(k):
            if k == 1 or h and Fraction(h, k).denominator == k:
                assert dedekind_sum(h, k) == dedekind_sum_by_definition(h, k), (h, k)


@pytest.mark.parametrize("name, side", [run for run in RUNS if run[1] != "fg"])
def test_dedekind_sum_oracle_on_one_node_runs(name, side):
    text, checked = read_input(f"{name}.txt"), 0
    for r in range(2, 61):
        result = run_pipeline(text, r, side=side)
        w, tree = result.waldhausen, result.plumbing_full
        if len(w.vertices) != 1 or w.vertices[0].genus or w.edges:
            continue
        expected = seifert_k2_plus_vertices(-tree.vertices[0].weight, star_legs(tree))
        assert form_invariants(tree)["K_squared"] + len(tree.vertices) == expected, r
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name, side, a, b", [
    ("cusp", "f", 2, 3), ("ex1", "f", 2, 7), ("ex1", "g", 5, 2)])
def test_dedekind_sum_oracle_at_r_beyond_any_tree(name, side, a, b):
    """Sigma(a, b, r) for pairwise coprime a, b, r is one node of rational
    Euler number -1/(a*b*r) (Neumann-Raymond 1978): its legs are the
    Waldhausen pairs, alpha/(alpha - beta), and e fixes the central weight."""
    w = waldhausen(name, side, BIG_R)[1]
    assert len(w.vertices) == 1 and not w.edges
    legs = [(p.alpha, p.alpha - p.beta) for p in (*w.stalks, *w.arrows) if p.alpha > 1]
    assert sorted(alpha for alpha, _ in legs) == sorted((a, b, BIG_R))
    b0 = sum(Fraction(omega, alpha) for alpha, omega in legs) + Fraction(1, a * b * BIG_R)
    assert b0.denominator == 1
    form = waldhausen_form(w)
    vertices = 1 + sum(c.k for c in form.chains)
    assert form.K_squared + vertices == seifert_k2_plus_vertices(int(b0), legs)
