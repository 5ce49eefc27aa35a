from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from susplink.errors import BalanceError, NotATreeError, PlumbingError
from susplink import synthesis
from susplink.contfrac import neg_cf_expand
from susplink.exactlinalg import eliminate
from susplink.graphs import (
    Arrow,
    Edge,
    PlumbingTree,
    Vertex,
    WaldArrow,
    WaldhausenGraph,
    WaldStalk,
    WaldVertex,
    intersection_matrix,
)
from susplink.nielsen import build_nielsen
from susplink.power import power_nielsen
from susplink.resolve import subtract_and_normalize
from susplink.synthesis import (
    blow_down,
    normalize_edge_signs,
    reduce_tree,
    strip_decorations,
    synth_plumbing,
)
from susplink.waldhausen import nielsen_to_waldhausen
import blowdown_reference
import chain_reference
import normalize_reference
from dense_linalg import determinant
from graph_helpers import verify_balance, weight_multiset
from test_exactlinalg import plumbing_forms


def tree_of(graph, r):
    n = build_nielsen(subtract_and_normalize(graph))
    w = nielsen_to_waldhausen(power_nielsen(n, r))
    return synth_plumbing(w)


def legs(tree, node):
    """Sorted list of weight sequences hanging off a node (chains read
    outward, node-to-node chains excluded)."""
    adj = {}
    for e in tree.edges:
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    nodes = {v.id for v in tree.vertices if len(adj.get(v.id, [])) >= 3}
    weight = {v.id: v.weight for v in tree.vertices}
    out = []
    for first in adj[node]:
        chain = []
        prev, cur = node, first
        while cur not in nodes:
            chain.append(weight[cur])
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        out.append(tuple(chain))
    return sorted(out)


# -- chain errors ------------------------------------------------------------

def _balance_text(fn, *args):
    """The text of the BalanceError ``fn(*args)`` raises, None if it returns."""
    try:
        fn(*args)
    except BalanceError as exc:
        return str(exc)
    return None


reduced_pairs = st.integers(2, 60).flatmap(lambda alpha: st.tuples(
    st.just(alpha), st.integers(1, alpha - 1).filter(lambda beta: gcd(alpha, beta) == 1)))


@given(st.integers(1, 60), st.integers(-9, 9), reduced_pairs,
       st.sampled_from(["stalk", "arrow", "reversed arrow"]))
@example(3, -1, (2, 1), "stalk")  # the pinned CLI case of test_derived_views.py
def test_chain_balance_error_names_the_reference_solution(order, e, pair, leg):
    """One node with one stalk or binding arrow (alpha, beta): step 5 refuses
    the chain exactly when the eliminate-based solver does, with its text
    (weights, end data, rational multiplicities); otherwise at most the node
    weight is fractional."""
    alpha, beta = pair
    node = (WaldVertex(1, e, 0, 1, order),)
    if leg == "stalk":
        w, right = WaldhausenGraph(node, stalks=(WaldStalk(1, alpha, beta),)), 0
    else:
        reverse = leg == "reversed arrow"
        w = WaldhausenGraph(node, arrows=(WaldArrow(1, alpha, beta, reverse),))
        right = -1 if reverse else 1
    weights = [-b for b in neg_cf_expand(alpha, alpha - beta)]
    want = _balance_text(chain_reference.chain_mults, weights, order, right)
    got = _balance_text(synth_plumbing, w)
    if want is None:
        assert got is None or got.startswith("monodromical balance failure: node 1 weight")
    else:
        assert got == want


# -- synthesized trees -------------------------------------------------------

def test_ex1_tree(ex1_graph):
    tree = tree_of(ex1_graph, 3)
    plain = strip_decorations(tree)
    assert len(plain.vertices) == 13
    assert weight_multiset(plain) == {-2: 12, -7: 1}
    assert plain.is_tree()
    # node 2: stalk [2], arrow chain [2, 2]; node 7: three [2] stalks;
    # connecting chain [2, 2, 2, 2, 7]
    assert legs(plain, 2) == [(-2,), (-2, -2), (-2, -2, -2, -2, -7)]
    assert legs(plain, 7) == [(-7, -2, -2, -2, -2), (-2,), (-2,), (-2,)]
    node_weights = {v.id: v.weight for v in plain.vertices}
    assert node_weights[2] == -2 and node_weights[7] == -2


def test_ex1_multiplicities(ex1_graph):
    tree = tree_of(ex1_graph, 3)
    verify_balance(tree)
    mult = {v.origin: v.mult for v in tree.vertices}
    assert mult["piece 2"] == 10 and mult["piece 7"] == -2
    chain = [v.mult for v in tree.vertices if v.origin.startswith("chain (31,6)")]
    assert chain == [8, 6, 4, 2, 0]
    assert {a.mult for a in tree.arrows} == {1, -1}


def test_ex2_tree_is_a_cycle(ex2_graph):
    tree = tree_of(ex2_graph, 2)
    weights = sorted(v.weight for v in tree.vertices)
    assert weights == [-5, -5, -1, -1]
    assert not tree.is_tree()  # two parallel chains close a cycle
    assert len(tree.edges) == 4
    verify_balance(tree)


def test_ex3_tree(ex3_graph):
    tree = strip_decorations(tree_of(ex3_graph, 5))
    assert len(tree.vertices) == 17
    assert weight_multiset(tree) == {-2: 12, -3: 2, -5: 1, -9: 1, -1: 1}
    assert legs(tree, 2) == [(-9, -3, -2, -2, -2, -2, -2, -2, -2), (-5,), (-2, -2)]
    assert legs(tree, 7) == [(-2,), (-2, -3), (-2, -2, -2, -2, -2, -2, -2, -3, -9)]
    node_weights = {v.id: v.weight for v in tree.vertices}
    assert node_weights[2] == -1 and node_weights[7] == -2


def test_balance_on_all_runs(ex1_graph, ex2_graph, ex3_graph, cusp_graph):
    for graph, r in ((ex1_graph, 3), (ex2_graph, 2), (ex3_graph, 5),
                     (cusp_graph, 5), (ex1_graph, 1), (ex2_graph, 1),
                     (ex3_graph, 1)):
        verify_balance(tree_of(graph, r))


def test_balance_honours_edge_signs():
    """Two weight -1 vertices on a -1 edge: multiplicities (1, 1) break the
    balance, (1, -1) solve it."""
    def pair(m1, m2):
        return PlumbingTree((Vertex(1, -1, mult=m1), Vertex(2, -1, mult=m2)),
                            (Edge(1, 2, -1),))

    with pytest.raises(BalanceError):
        verify_balance(pair(1, 1))
    verify_balance(pair(1, -1))


def test_r1_resynthesizes_the_input(ex1_graph):
    # running the whole loop at r = 1 rebuilds the resolution tree shape
    tree = strip_decorations(tree_of(ex1_graph, 1))
    assert len(tree.vertices) == 8
    assert weight_multiset(tree) == {-2: 3, -1: 2, -3: 3}
    assert abs(determinant(intersection_matrix(tree))) == 1


# -- blow-down ---------------------------------------------------------------

def test_blow_down_ex2(ex2_graph):
    tree = strip_decorations(tree_of(ex2_graph, 2))
    before = abs(determinant(intersection_matrix(tree)))
    reduced = blow_down(tree)
    assert sorted(v.weight for v in reduced.vertices) == [-3, -3]
    assert len(reduced.edges) == 2  # double edge
    matrix = intersection_matrix(reduced)
    assert matrix in ([[-3, 2], [2, -3]], [[-3, 2], [2, -3]])
    assert abs(determinant(matrix)) == before == 5


def test_blow_down_fixpoint_and_sphere_marker():
    tree = PlumbingTree((Vertex(1, -2), Vertex(2, -2)), (Edge(1, 2),))
    assert blow_down(tree) == tree
    lone = PlumbingTree((Vertex(1, -1),))
    assert blow_down(lone) == lone  # never blown down to nothing


def test_blow_down_valence_one():
    tree = PlumbingTree((Vertex(1, -1), Vertex(2, -3)), (Edge(1, 2),))
    reduced = blow_down(tree)
    assert [(v.id, v.weight) for v in reduced.vertices] == [(2, -2)]


def _chain(weights):
    return PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights, 1)),
                        tuple(Edge(i, i + 1) for i in range(1, len(weights))))


def test_blow_down_checks_det_at_the_end(monkeypatch):
    """A reduced form whose |det| differs from the input's ends in the
    |det| comparison after the last step; the fault is injected into the
    final elimination."""
    calls = []

    def corrupted(graph, rhs=None):
        calls.append(len(graph.vertices))
        if len(calls) == 2:
            first = graph.vertices[0]
            graph = PlumbingTree((first._replace(weight=first.weight - 1),)
                                 + graph.vertices[1:], graph.edges, graph.arrows)
        return eliminate(graph, rhs)

    monkeypatch.setattr(synthesis, "eliminate", corrupted)
    with pytest.raises(BalanceError, match=r"^blow-down changed \|det\| from 1 to 2$"):
        blow_down(_chain([-1, -2, -2, -2]))
    assert calls == [4, 1]


def test_blow_down_joining_sign():
    """Blowing down the middle of a signed chain joins its ends by an edge
    of sign s1*s2, oriented from the far end of the first incident edge,
    exactly as the reference does; the arrow keeps the -1 end from being
    blown down in turn."""
    def chain(signs):
        return PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate([-2, -1, -3], 1)),
                            (Edge(2, 1, signs[0]), Edge(2, 3, signs[1])), (Arrow(1),))

    for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        reduced = blow_down(chain(signs))
        assert reduced == PlumbingTree((Vertex(1, -1), Vertex(3, -2)),
                                       (Edge(1, 3, signs[0] * signs[1]),), (Arrow(1),))
        assert reduced == blowdown_reference.blow_down(chain(signs))


def test_blow_down_builds_one_tree(monkeypatch):
    """199 blow-downs build the reduced tree once, after the last step."""
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return PlumbingTree(*args, **kwargs)

    tree = _chain([-1] + [-2] * 199)
    monkeypatch.setattr(synthesis, "PlumbingTree", counting)
    assert blow_down(tree) == PlumbingTree((Vertex(200, -1),))
    assert len(built) == 1


def test_blow_down_eliminates_twice(monkeypatch):
    """199 blow-downs, one elimination of the input and one of the result,
    both after the last step."""
    calls = []

    def counting(graph, rhs=None):
        calls.append(len(graph.vertices))
        return eliminate(graph, rhs)

    monkeypatch.setattr(synthesis, "eliminate", counting)
    reduced = blow_down(_chain([-1] + [-2] * 199))
    assert reduced == PlumbingTree((Vertex(200, -1),))
    assert calls == [200, 1]


@pytest.mark.parametrize("tree,calls", [
    (_chain([-2, -3, -2]), []),  # no -1 vertex
    # each -1 vertex held by its genus or by an arrow
    (PlumbingTree((Vertex(1, -1, 1), Vertex(2, -1)), (Edge(1, 2),), (Arrow(2),)), []),
    (PlumbingTree((Vertex(1, -1),)), []),  # a last vertex is never removed
    (_chain([-3, -1, -3]), [3, 2]),
])
def test_blow_down_eliminates_only_when_a_vertex_goes(monkeypatch, tree, calls):
    """A tree from which no vertex is blown down comes back unchanged
    without an elimination; one blow-down compares |det| of the input and
    of the result, two eliminations."""
    seen = []

    def counting(graph, rhs=None):
        seen.append(len(graph.vertices))
        return eliminate(graph, rhs)

    monkeypatch.setattr(synthesis, "eliminate", counting)
    reduced = blow_down(tree)
    assert (reduced is tree) == (not calls)
    assert seen == calls


@st.composite
def decorated_forms(draw):
    """``plumbing_forms`` (signed edges, cycles, parallel edges) with many
    -1 weights, a run of -1 over consecutive ids, and some vertices of
    positive genus or carrying arrows."""
    form = draw(plumbing_forms(max_vertices=10,
                               weight=st.sampled_from((-3, -2, -2, -1, -1, -1, 0, 1))))
    n = len(form.vertices)
    lo = draw(st.integers(0, n - 1))
    run = range(lo, draw(st.integers(lo, n)))
    genus = draw(st.sets(st.integers(0, n - 1), max_size=2))
    vertices = tuple(v._replace(weight=-1 if v.id in run else v.weight,
                                genus=1 if v.id in genus else 0)
                     for v in form.vertices)
    arrows = tuple(Arrow(i, draw(st.sampled_from((1, -1))))
                   for i in draw(st.lists(st.integers(0, n - 1), max_size=2)))
    return PlumbingTree(vertices, form.edges, arrows)


def _outcome(reduce, tree):
    try:
        return reduce(tree)
    except PlumbingError as e:
        return type(e)


@given(decorated_forms())
def test_blow_down_matches_reference(tree):
    """The worklist kernel gives exactly the reference's tree, vertex and
    edge order included, or the same error."""
    assert _outcome(blow_down, tree) == _outcome(blowdown_reference.blow_down, tree)


@st.composite
def random_trees(draw):
    n = draw(st.integers(2, 8))
    weights = draw(st.lists(st.integers(-5, -1), min_size=n, max_size=n))
    parents = [draw(st.integers(1, k)) for k in range(1, n)]
    vertices = tuple(Vertex(i + 1, w) for i, w in enumerate(weights))
    edges = tuple(Edge(parents[k - 1], k + 1) for k in range(1, n))
    return PlumbingTree(vertices, edges)


@given(random_trees())
def test_blow_down_preserves_abs_det(tree):
    before = abs(determinant(intersection_matrix(tree)))
    reduced = blow_down(tree)
    assert abs(determinant(intersection_matrix(reduced))) == before


# -- edge sign normalization ---------------------------------------------------

def test_normalize_edge_signs_identity_on_positive():
    tree = PlumbingTree((Vertex(1, -2, mult=3), Vertex(2, -3, mult=1)),
                        (Edge(1, 2),))
    assert normalize_edge_signs(tree) == tree


def test_normalize_edge_signs_moves_sign_to_flags(ex1_graph):
    tree = tree_of(ex1_graph, 3)
    normalized = normalize_edge_signs(tree)
    assert all(e.sign == 1 for e in normalized.edges)
    assert [v.weight for v in normalized.vertices] == [v.weight for v in tree.vertices]
    mult = {v.origin: (v.mult, v.flipped) for v in normalized.vertices}
    assert mult["piece 2"] == (10, False)
    assert mult["piece 7"] == (2, True)


def test_normalize_edge_signs_flips_across_negative_edge():
    tree = PlumbingTree(
        (Vertex(1, -2, mult=2), Vertex(2, -3, mult=-5)),
        (Edge(1, 2, -1),),
    )
    normalized = normalize_edge_signs(tree)
    assert normalized.edges == (Edge(1, 2, 1),)
    by_id = {v.id: v for v in normalized.vertices}
    assert (by_id[1].mult, by_id[1].flipped) == (2, False)
    assert (by_id[2].mult, by_id[2].flipped) == (5, False)  # -1 * -5 = 5


def test_normalize_edge_signs_rejects_multigraph(ex2_graph):
    tree = tree_of(ex2_graph, 2)
    with pytest.raises(NotATreeError, match="sign normalization skipped"):
        normalize_edge_signs(tree)


@given(random_trees(), st.sets(st.integers(1, 7)))
def test_normalize_edge_signs_property(tree, flip_edges):
    signed = PlumbingTree(
        tree.vertices,
        tuple(Edge(e.u, e.v, -1 if i in flip_edges else 1)
              for i, e in enumerate(tree.edges)),
    )
    normalized = normalize_edge_signs(signed)
    assert all(e.sign == 1 for e in normalized.edges)
    assert [v.weight for v in normalized.vertices] == [v.weight for v in signed.vertices]
    # determinant of the intersection form is conjugation invariant
    assert determinant(intersection_matrix(normalized)) == \
        determinant(intersection_matrix(signed))


@pytest.mark.parametrize("signs", [(1, 1, 1), (-1, -1, 1), (-1, 1, 1), (-1, -1, -1)])
def test_normalize_edge_signs_rejects_a_cycle_with_tree_many_edges(signs):
    """A triangle and an isolated vertex have |V| - 1 edges but are no
    tree, whether the cycle carries an even or an odd number of -1 signs;
    an odd one must not surface as the colouring's BalanceError."""
    tree = PlumbingTree(
        tuple(Vertex(i, -2) for i in (1, 2, 3, 4)),
        tuple(Edge(u, v, s) for (u, v), s in zip(((1, 2), (2, 3), (3, 1)), signs)))
    assert not tree.is_tree()
    with pytest.raises(NotATreeError, match="sign normalization skipped"):
        normalize_edge_signs(tree)
    assert reduce_tree(tree) == blow_down(tree)  # signs kept, nothing to blow down


def test_normalize_edge_signs_rejects_the_empty_graph():
    with pytest.raises(NotATreeError):
        normalize_edge_signs(PlumbingTree(()))


@st.composite
def decorated_trees(draw):
    """Trees with shuffled ids, vertex and edge orders and edge directions,
    a multiplicity (none, zero or signed), a flip flag and a label on each
    vertex, random edge signs, and arrows with signed multiplicities."""
    n = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
    vertices = tuple(
        Vertex(i, draw(st.integers(-4, 0)), draw(st.integers(0, 1)),
               draw(st.none() | st.integers(-6, 6)), draw(st.booleans()), f"v{i}")
        for i in ids)
    edges = []
    for k in range(1, n):
        u, v = ids[draw(st.integers(0, k - 1))], ids[k]
        if draw(st.booleans()):
            u, v = v, u
        edges.append(Edge(u, v, draw(st.sampled_from((1, -1)))))
    arrows = draw(st.lists(st.builds(Arrow, st.sampled_from(ids), st.sampled_from((1, -1)),
                                     st.sampled_from(("", "binding"))), max_size=3))
    return PlumbingTree(vertices, tuple(draw(st.permutations(edges))), tuple(arrows))


@given(decorated_trees())
def test_normalize_edge_signs_matches_reference(tree):
    """Vertices, edges and arrows equal the docstring's reference, and each
    one whose fields do not change is the input's own object."""
    normalized = normalize_edge_signs(tree)
    reference = normalize_reference.normalize_edge_signs(tree)
    assert normalized.vertices == reference.vertices
    assert normalized.edges == reference.edges
    assert normalized.arrows == reference.arrows
    for part in ("vertices", "edges", "arrows"):
        for before, after in zip(getattr(tree, part), getattr(normalized, part)):
            assert (after is before) == (after == before)


def test_blow_down_rejects_parallel_edge_vertex():
    from susplink.errors import UnsupportedError

    tree = PlumbingTree(
        (Vertex(1, -1), Vertex(2, -3)),
        (Edge(1, 2), Edge(1, 2)),
    )
    with pytest.raises(UnsupportedError, match="parallel"):
        blow_down(tree)


def test_keep_arrows(ex1_graph):
    kept = tree_of(ex1_graph, 3)
    assert len(kept.arrows) == 2
    assert all(a.label == "binding" for a in kept.arrows)
    dropped = strip_decorations(kept)
    assert dropped.arrows == ()
    assert [v.mult for v in dropped.vertices] == [v.mult for v in kept.vertices]
