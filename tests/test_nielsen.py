import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import nielsen_reference
from conftest import read_input
from nielsen_iso import nielsen_isomorphic
from susplink.errors import ChainDataError, InputError, UnsupportedError
from susplink.graphs import (Arrow, Edge, MultPlumbing, MultVertex, NielsenGraph,
                             NielsenVertex, Stalk)
from susplink.nielsen import _chain_fraction, build_nielsen
from susplink.resolve import parse_resolution, product_multiplicity_tree, subtract_and_normalize


def mp_of(graph):
    return subtract_and_normalize(graph)


def test_decompose_ex1(ex1_graph):
    """ex1 is cut at its nodes 2 and 7 into a stalk at each and one edge
    chain, walked from 2, whose edge signs multiply to -1: its twist is
    positive."""
    n = build_nielsen(mp_of(ex1_graph))
    assert [v.id for v in n.vertices] == [2, 7]
    assert [s.vertex for s in n.stalks] == [2, 7]
    (edge,) = n.edges
    assert (edge.u, edge.v) == (2, 7)
    assert edge.twist > 0
    assert len(n.boundary_stalks) == 2


def test_decompose_ex2(ex2_graph):
    n = build_nielsen(mp_of(ex2_graph))
    assert [v.id for v in n.vertices] == [2, 4]
    (edge,) = n.edges
    assert (edge.u, edge.v) == (2, 4)
    assert edge.twist > 0
    assert len(n.stalks) == 2


def test_decompose_star_has_no_edge_chain():
    mp = MultPlumbing(
        (MultVertex(1, -1, 0, 6, False), MultVertex(2, -2, 0, 3, False),
         MultVertex(3, -3, 0, 2, False)),
        (Edge(1, 2), Edge(1, 3)),
        (Arrow(1, 1),),
    )
    n = build_nielsen(mp)
    assert [v.id for v in n.vertices] == [1]
    assert n.edges == ()
    assert len(n.stalks) == 2


def test_decompose_rejects_nodeless():
    mp = MultPlumbing(
        (MultVertex(1, -2, 0, 1, False), MultVertex(2, -2, 0, 1, False)),
        (Edge(1, 2),),
    )
    with pytest.raises(UnsupportedError, match="no node"):
        build_nielsen(mp)


def test_decompose_rejects_zero_on_stalk_chain():
    mp = MultPlumbing(
        (MultVertex(1, -1, 0, 2, False), MultVertex(2, -2, 0, 0, False),
         MultVertex(3, -2, 0, 1, False)),
        (Edge(1, 2), Edge(1, 3)),
        (Arrow(1, 1),),
    )
    with pytest.raises(ChainDataError, match="m = 0 inside stalk chain") as info:
        build_nielsen(mp)
    assert info.value.elements == (2,)


def test_nielsen_ex1(ex1_graph):
    n = build_nielsen(mp_of(ex1_graph))
    assert [(v.id, v.order, v.genus, v.q) for v in n.vertices] == [
        (2, 10, 0, 1), (7, 6, 0, 1)]
    assert [(s.vertex, s.lam, s.sigma) for s in n.stalks] == [
        (2, 2, 1), (7, 2, 1)]
    assert [(b.vertex, b.lam, b.sigma, b.twist) for b in n.boundary_stalks] == [
        (2, 10, 9, Fraction(-1, 10)), (7, 6, 5, Fraction(-1, 6))]
    (e,) = n.edges
    assert e.twist == Fraction(31, 30)
    # figure prints (5, -2) and (3, 2); canonical classes
    assert (e.lam_u, e.sigma_u) == (5, (-2) % 5)
    assert (e.lam_v, e.sigma_v) == (3, 2)


def test_nielsen_ex2(ex2_graph):
    n = build_nielsen(mp_of(ex2_graph))
    assert [(v.order, v.genus) for v in n.vertices] == [(2, 0), (2, 0)]
    assert {(s.lam, s.sigma) for s in n.stalks} == {(2, 1)}
    assert {(b.lam, b.sigma, b.twist) for b in n.boundary_stalks} == {
        (2, 1, Fraction(-1, 2))}
    (e,) = n.edges
    assert e.twist == Fraction(5, 2)
    assert (e.lam_u, e.sigma_u, e.lam_v, e.sigma_v) == (1, 0, 1, 0)


def test_nielsen_ex3(ex3_graph):
    n = build_nielsen(mp_of(ex3_graph))
    assert [(v.order, v.genus) for v in n.vertices] == [(9, 0), (8, 0)]
    assert [(s.vertex, s.lam, s.sigma) for s in n.stalks] == [
        (2, 3, (-1) % 3), (7, 2, 1)]
    assert [(b.lam, b.sigma, b.twist) for b in n.boundary_stalks] == [
        (9, 8, Fraction(-1, 9)), (8, 7, Fraction(-1, 8))]
    (e,) = n.edges
    assert e.twist == Fraction(29, 72)
    assert (e.lam_u, e.sigma_u) == (9, (-5) % 9)
    assert (e.lam_v, e.sigma_v) == (8, (-3) % 8)


def test_euler_class_sums_are_integral(ex1_graph, ex2_graph, ex3_graph):
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        n = build_nielsen(mp_of(graph))
        sums = {v.id: Fraction(0) for v in n.vertices}
        for vid, lam, sigma in n.incidences():
            sums[vid] += Fraction(sigma, lam)
        assert all(s.denominator == 1 for s in sums.values())


@pytest.mark.parametrize("order,stalk,message", [
    (2, Stalk(5, 2, 1), "sum of sigma/lam at vertex 5 is 1/2, not an integer"),
    (2, Stalk(5, 3, 1), "lam = 3 does not divide the order 2"),
    (4, Stalk(5, 4, 2), "sigma = 2 is not invertible mod lam = 4"),
], ids=["euler_sum", "lam_divides_order", "sigma_invertible"])
def test_nielsen_graph_validation(order, stalk, message):
    with pytest.raises(InputError, match=re.escape(message)) as info:
        NielsenGraph((NielsenVertex(5, order, 0),), (stalk,))
    assert info.value.elements == (5,)


def test_stalk_alpha_cross_check(ex1_graph, ex3_graph):
    # alpha of a stalk chain must equal order / gcd(order, adjacent mult);
    # corrupting the leaf weight trips the check
    mp = mp_of(ex1_graph)
    vertices = tuple(
        MultVertex(v.id, -4 if v.id == 1 else v.weight, v.genus, v.m, v.flipped)
        for v in mp.vertices)
    broken = MultPlumbing(vertices, mp.edges, mp.arrows)
    with pytest.raises(ChainDataError):
        build_nielsen(broken)


def test_holomorphic_twists_negative(cusp_graph, ex2_graph):
    n = build_nielsen(mp_of(cusp_graph))
    assert all(b.twist < 0 for b in n.boundary_stalks)
    assert all(e.twist < 0 for e in n.edges)
    # flipped inputs turn the inter-node twist positive
    n2 = build_nielsen(mp_of(ex2_graph))
    assert all(e.twist > 0 for e in n2.edges)


def test_nielsen_isomorphic_relabelled(ex1_graph):
    n = build_nielsen(mp_of(ex1_graph))
    relabel = {2: 100, 7: 200}
    from susplink.graphs import (BoundaryStalk, NielsenEdge, NielsenGraph,
                                 NielsenVertex, Stalk)

    other = NielsenGraph(
        tuple(NielsenVertex(relabel[v.id], v.order, v.genus, v.q)
              for v in reversed(n.vertices)),
        tuple(Stalk(relabel[s.vertex], s.lam, s.sigma) for s in n.stalks),
        tuple(BoundaryStalk(relabel[b.vertex], b.lam, b.sigma, b.twist)
              for b in n.boundary_stalks),
        tuple(NielsenEdge(relabel[e.u], relabel[e.v], e.twist,
                          e.lam_u, e.sigma_u, e.lam_v, e.sigma_v)
              for e in n.edges),
    )
    assert nielsen_isomorphic(n, other)


def test_nielsen_isomorphic_detects_difference(ex1_graph, ex3_graph):
    a = build_nielsen(mp_of(ex1_graph))
    b = build_nielsen(mp_of(ex3_graph))
    assert not nielsen_isomorphic(a, b)


@pytest.mark.parametrize("weight", [2, 3])
def test_chain_fraction_message_stays_bounded(weight):
    """A 200-vertex chain of positive weights has a negative fraction (with
    a numerator of over 80 digits at weight 3); the message quotes it
    through the excerpt and leaves the chain's vertices to ``elements``."""
    chain = list(range(1, 201))
    with pytest.raises(ChainDataError, match="is not of the form") as exc:
        _chain_fraction(dict.fromkeys(chain, weight), chain, (0, *chain))
    assert len(exc.value.args[0]) < 150
    assert exc.value.elements == tuple(chain)


@pytest.mark.parametrize("weight", [-3, -4, -5])
def test_non_integral_rotation_numbers_are_a_chain_error(weight):
    """Two genus-1 nodes of multiplicity 1 joined through one vertex of
    multiplicity 1 and weight -3, -4 or -5: the chain fraction alpha is 3,
    4 or 5, and neither rotation number (lam_u * beta_u - lam_v) / alpha nor
    its dual is an integer."""
    mp = MultPlumbing((MultVertex(1, -1, 1, 1, False), MultVertex(2, weight, 0, 1, False),
                       MultVertex(3, -1, 1, 1, False)),
                      (Edge(1, 2), Edge(2, 3)))
    with pytest.raises(ChainDataError) as info:
        build_nielsen(mp)
    assert str(info.value) == (
        "inconsistent chain data: rotation numbers are not integral (the input does "
        "not satisfy the monodromical system) (elements: 1, 3)")


@st.composite
def multiplicity_trees_drawn(draw):
    """A MultPlumbing of up to 9 vertices on distinct ids: m from a few
    small values and 0, weights -6..1, genus 0 or 1, random flips with the
    edge signs they force, edges in either orientation, and 0-3 arrows of
    mult 1, -1 or 2; most are not fibred multiplicity trees."""
    size = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(1, 30), min_size=size, max_size=size, unique=True))
    flipped = {vid: draw(st.booleans()) for vid in ids}
    vertices = tuple(
        MultVertex(vid, draw(st.integers(-6, 1)), draw(st.integers(0, 1)),
                   draw(st.sampled_from((0, 1, 2, 3, 4, 5, 6, 8, 12))), flipped[vid])
        for vid in ids)
    edges = []
    for i in range(1, size):
        u, v = ids[draw(st.integers(0, i - 1))], ids[i]
        if draw(st.booleans()):
            u, v = v, u
        edges.append(Edge(u, v, -1 if flipped[u] != flipped[v] else 1))
    arrows = tuple(Arrow(draw(st.sampled_from(ids)), draw(st.sampled_from((1, -1, 2))))
                   for _ in range(draw(st.integers(0, 3))))
    return MultPlumbing(vertices, tuple(edges), arrows)


def _outcome(build, mp):
    """The graph ``build`` makes of ``mp``, or the type, text and elements
    of the error it raises."""
    try:
        return build(mp)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "elements", None)


@given(multiplicity_trees_drawn())
def test_build_nielsen_equals_the_reference(mp):
    """One walk per chain builds the graph, or raises the first error, of
    ``decompose`` and the records it filled (``nielsen_reference.py``)."""
    assert _outcome(build_nielsen, mp) == _outcome(nielsen_reference.build_nielsen, mp)


@pytest.mark.parametrize("name, side", [
    (name, side) for name in ("ex1", "ex2", "ex3", "cusp")
    for side in ("fg", "f", "g") if (name, side) != ("cusp", "g")])
def test_build_nielsen_ignores_vertex_and_edge_order(name, side):
    """Every chain is walked from its node with the smaller id, whatever the
    order of the vertices and edges and the orientation of each edge."""
    graph = parse_resolution(read_input(f"{name}.txt"))
    trees = [subtract_and_normalize(graph, side)]
    if side == "fg":
        trees.append(product_multiplicity_tree(graph))
    rnd = random.Random(f"{name}-{side}")
    for mp in trees:
        want = build_nielsen(mp)
        for _ in range(50):
            vertices, edges = list(mp.vertices), [
                Edge(e.v, e.u, e.sign) if rnd.random() < 0.5 else e for e in mp.edges]
            rnd.shuffle(vertices)
            rnd.shuffle(edges)
            assert build_nielsen(MultPlumbing(tuple(vertices), tuple(edges), mp.arrows)) == want
