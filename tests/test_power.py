from fractions import Fraction
from math import gcd

import pytest

from conftest import read_input
from nielsen_iso import nielsen_isomorphic
from susplink import synthesis
from susplink.errors import UnsupportedError
from susplink.graphs import BoundaryStalk, NielsenEdge, NielsenGraph, NielsenVertex, Stalk
from susplink.nielsen import build_nielsen
from susplink.pipeline import run_pipeline
from susplink.power import _lift_valency, power_nielsen, valency_formula_notes
from susplink.resolve import multiplicity_trees, parse_resolution, subtract_and_normalize


def nielsen_of(graph):
    return build_nielsen(subtract_and_normalize(graph))


def test_identity_power(ex1_graph, ex2_graph, ex3_graph):
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        n = nielsen_of(graph)
        assert power_nielsen(n, 1) == n


def test_power_ex1_r3(ex1_graph):
    n3 = power_nielsen(nielsen_of(ex1_graph), 3)
    assert [(v.id, v.order, v.genus) for v in n3.vertices] == [(2, 10, 0), (7, 2, 0)]
    assert [(s.vertex, s.lam, s.sigma) for s in n3.stalks] == [
        (2, 2, 1), (7, 2, 1), (7, 2, 1), (7, 2, 1)]
    assert [(b.vertex, b.lam, b.sigma, b.twist) for b in n3.boundary_stalks] == [
        (2, 10, 3, Fraction(-3, 10)), (7, 2, 1, Fraction(-1, 2))]
    (e,) = n3.edges
    assert e.twist == Fraction(31, 10)
    assert (e.lam_u, e.sigma_u) == (5, 1)
    assert (e.lam_v, e.sigma_v) == (1, 0)  # figure prints (1, 1), same class


def test_power_ex2_r2(ex2_graph):
    n2 = power_nielsen(nielsen_of(ex2_graph), 2)
    assert [(v.order, v.genus) for v in n2.vertices] == [(1, 0), (1, 0)]
    assert n2.stalks == ()  # interior stalks dropped at lam' = 1
    assert [(b.lam, b.twist) for b in n2.boundary_stalks] == [
        (1, Fraction(-1)), (1, Fraction(-1))]
    assert len(n2.edges) == 2  # the reduction curve lifts to two parallel curves
    assert all(e.twist == 5 for e in n2.edges)


def test_power_ex3_r5(ex3_graph):
    n5 = power_nielsen(nielsen_of(ex3_graph), 5)
    assert [(v.order, v.genus) for v in n5.vertices] == [(9, 0), (8, 0)]
    assert [(s.vertex, s.lam, s.sigma) for s in n5.stalks] == [
        (2, 3, 1), (7, 2, 1)]
    assert [(b.vertex, b.lam, b.sigma, b.twist) for b in n5.boundary_stalks] == [
        (2, 9, 7, Fraction(-5, 9)), (7, 8, 3, Fraction(-5, 8))]
    (e,) = n5.edges
    assert e.twist == Fraction(145, 72)
    assert (e.lam_u, e.sigma_u) == (9, 8)
    assert (e.lam_v, e.sigma_v) == (8, 1)


def test_twist_linearity(ex1_graph, ex2_graph, ex3_graph):
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        n = nielsen_of(graph)
        for r in range(1, 9):
            nr = power_nielsen(n, r)
            base_edges = {(e.u, e.v): e.twist for e in n.edges}
            for e in nr.edges:
                assert e.twist == r * base_edges[(e.u, e.v)]
            base_bnd = {b.vertex: b.twist for b in n.boundary_stalks}
            for b in nr.boundary_stalks:
                assert b.twist == r * base_bnd[b.vertex]


def test_power_composition(ex1_graph, ex2_graph, ex3_graph):
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        n = nielsen_of(graph)
        for a in (2, 3, 5):
            for b in (2, 3, 5):
                composed = power_nielsen(power_nielsen(n, a), b)
                direct = power_nielsen(n, a * b)
                assert nielsen_isomorphic(composed, direct)


def test_power_rejects_q_gt_1():
    """A q = 2 piece is rejected where its Nielsen graph is built."""
    with pytest.raises(UnsupportedError, match="pieces permuted") as info:
        power_nielsen(NielsenGraph((NielsenVertex(1, 4, 0, 2),),
                                   (Stalk(1, 2, 1), Stalk(1, 2, 1))), 2)
    assert info.value.elements == (1,)


def one_vertex(order):
    """One piece of order ``order`` with a (1, 0) stalk: it has ``order``
    components, so its r-th power has gcd(order, r) vertices."""
    return NielsenGraph((NielsenVertex(1, order, 0),), (Stalk(1, 1, 0),))


def test_oversized_power_is_refused(monkeypatch):
    monkeypatch.setattr(synthesis, "MAX_VERTICES", 1000)
    with pytest.raises(UnsupportedError) as info:
        power_nielsen(one_vertex(5000), 5000)
    assert str(info.value) == ("the Nielsen graph of the power would have 5000 vertices, "
                               "more than the 1000 supported")
    assert len(power_nielsen(one_vertex(5000), 1000).vertices) == 1000


LISTS = ("vertices", "stalks", "boundary_stalks", "edges")


def assert_bound_is_the_largest_list(n, r, monkeypatch):
    """The power passes at a bound equal to its largest list.  One below the
    length of any list, it is refused, and the message names the first list
    at least that long."""
    built = power_nielsen(n, r)
    sizes = {key: len(getattr(built, key)) for key in LISTS}
    monkeypatch.setattr(synthesis, "MAX_VERTICES", max(sizes.values()))
    assert power_nielsen(n, r) == built
    for size in set(sizes.values()) - {0}:
        key = next(key for key in LISTS if sizes[key] >= size)
        monkeypatch.setattr(synthesis, "MAX_VERTICES", size - 1)
        with pytest.raises(UnsupportedError, match=f"would have {sizes[key]} {key}, "):
            power_nielsen(n, r)
    monkeypatch.undo()
    return sizes


@pytest.mark.parametrize("name, side", [
    (name, side) for name in ("ex1", "ex2", "ex3", "cusp")
    for side in ("fg", "f", "g") if (name, side) != ("cusp", "g")])
def test_power_bound_is_the_largest_list(name, side, monkeypatch):
    mp, _ = multiplicity_trees(parse_resolution(read_input(f"{name}.txt")), side)
    n = build_nielsen(mp)
    for r in range(2, 13):
        assert_bound_is_the_largest_list(n, r, monkeypatch)


# A piece of order 6 with stalks (2, 1), (3, 2), (6, 5) has one component,
# and at r = 6 every stalk lifts to lam' = 1: a (1, 0) incidence on it lifts
# six times, more than any other list has entries.
PIECE = (Stalk(1, 2, 1), Stalk(1, 3, 2), Stalk(1, 6, 5))


@pytest.mark.parametrize("n, key", [
    (NielsenGraph((NielsenVertex(1, 6, 0),), PIECE, (BoundaryStalk(1, 1, 0, Fraction(1)),)),
     "boundary_stalks"),
    (NielsenGraph((NielsenVertex(1, 6, 0), NielsenVertex(2, 6, 0)),
                  PIECE + tuple(s._replace(vertex=2) for s in PIECE),
                  edges=(NielsenEdge(1, 2, Fraction(1), 1, 0, 1, 0),)), "edges"),
], ids=["boundary_stalks", "edges"])
def test_power_bound_on_lifted_incidences(n, key, monkeypatch):
    assert assert_bound_is_the_largest_list(n, 6, monkeypatch)[key] == 6


def test_valency_audit_notes(ex1_graph):
    notes = valency_formula_notes(nielsen_of(ex1_graph), 3)
    assert any("(10,9)" in note for note in notes)


def test_lift_valency_is_whole_and_keeps_sigma_a_unit():
    """For every m <= 60, lam | m, unit sigma mod lam and r <= 60, the lifted
    valency (lam', sigma') has lam' * n = lam * n_i and sigma' a unit mod
    lam', so power_nielsen needs no check of its own on either."""
    for m in range(1, 61):
        for lam in (d for d in range(1, m + 1) if m % d == 0):
            for r in range(1, 61):
                n, n_i = gcd(m, r), gcd(m // lam, r)
                for sigma in (s for s in range(lam) if gcd(s, lam) == 1):
                    copies, lam_new, sigma_new = _lift_valency(m, r, lam, sigma)
                    assert copies == n_i and lam_new * n == lam * n_i
                    assert 0 <= sigma_new < lam_new and gcd(sigma_new, lam_new) == 1


# (y^2 - x^3)^2 - x^5 y, Newton pairs (2,3) and (2,1): the (2,13)-cable of
# the trefoil, with m = 4, 12, 6, 26, 13.  Node 2 carries no arrow, and its
# piece of the fibre has d = gcd(12/3, 12/2, 12/6) = 2 components.
CABLE = """
vertex 1 weight=-3
vertex 2 weight=-3
vertex 3 weight=-2
vertex 4 weight=-1
vertex 5 weight=-2
edge 1 2
edge 2 3
edge 2 4
edge 4 5
arrow 4 side=f
"""


def test_cable_double_cover_has_h1_of_order_13():
    """At r = 2 node 2 splits in two pieces (fresh id 5).  The link is the
    double cover branched along the knot, |H_1| = |Delta(-1)| = 13, and as a
    hypersurface it is negative definite, numerically Gorenstein and passes
    the mod-12 congruence."""
    result = run_pipeline(CABLE, 2, side="f", reduce=True)
    assert [(v.id, v.order, v.genus) for v in result.nielsen_power.vertices] == [
        (2, 6, 0), (5, 6, 0), (4, 13, 0)]
    obs = result.obstructions
    assert abs(obs.determinant) == 13
    assert obs.negative_definite and obs.numerically_gorenstein and obs.ls_congruent
    assert sorted(v.weight for v in result.blowdown.vertices) == [-3, -3, -2, -2, -2, -2]


def test_cable_at_r_12_has_two_genus_1_pieces_and_no_cycle():
    """b_1 = 4, the roots of Phi_12 among the 12th roots of unity: two
    genus-1 pieces on a tree, not one genus-1 piece on a cycle."""
    result = run_pipeline(CABLE, 12, side="f")
    assert sorted((v.order, v.genus) for v in result.nielsen_power.vertices) == [
        (1, 1), (1, 1), (13, 0)]
    assert result.plumbing_full.is_tree()
    assert 2 * sum(v.genus for v in result.plumbing_full.vertices) == 4


@pytest.mark.parametrize("r", range(1, 13))
def test_cable_copies_share_every_incidence(r):
    """Each of the c = gcd(2, r) copies of node 2 gets the same share of
    every lifted incidence, so all copies carry the same decorations."""
    n = power_nielsen(nielsen_of(parse_resolution(CABLE)), r)
    copies = [v for v in n.vertices if v.id != 4]
    assert len(copies) == gcd(2, r)
    shares = {tuple(sorted((s.lam, s.sigma) for s in n.stalks if s.vertex == v.id))
              + tuple(sorted((e.lam_u, e.sigma_u) for e in n.edges if e.u == v.id))
              for v in copies}
    assert len(shares) == 1
    assert len({(v.order, v.genus) for v in copies}) == 1
