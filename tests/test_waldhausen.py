import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from susplink.errors import InputError, NormalizationError, PlumbingError, UnsupportedError
from susplink.graphs import (
    BoundaryStalk,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    PlumbingTree,
    Stalk,
    WaldArrow,
    WaldhausenGraph,
    WaldStalk,
    WaldVertex,
)
from susplink.nielsen import build_nielsen
from susplink.power import power_nielsen
from susplink.resolve import subtract_and_normalize
from susplink.synthesis import synth_plumbing
from susplink.waldhausen import _seifert_pair, nielsen_to_waldhausen


def waldhausen_of(graph, r):
    n = build_nielsen(subtract_and_normalize(graph))
    return nielsen_to_waldhausen(power_nielsen(n, r))


def test_ex1_step4(ex1_graph):
    w = waldhausen_of(ex1_graph, 3)
    assert [(v.id, v.e, v.genus, v.order) for v in w.vertices] == [
        (2, 1, 0, 10), (7, 2, 0, 2)]
    assert [(s.vertex, s.alpha, s.beta) for s in w.stalks] == [
        (2, 2, 1), (7, 2, 1), (7, 2, 1), (7, 2, 1)]
    assert [(a.vertex, a.alpha, a.beta) for a in w.arrows] == [
        (2, 3, 1), (7, 1, 0)]
    (e,) = w.edges
    assert (e.eps, e.alpha, e.beta_u, e.beta_v) == (-1, 31, 6, 26)


def test_ex2_step4(ex2_graph):
    w = waldhausen_of(ex2_graph, 2)
    assert [v.e for v in w.vertices] == [1, 1]
    assert w.stalks == ()
    assert [(a.alpha, a.beta) for a in w.arrows] == [(1, 0), (1, 0)]
    assert [(e.eps, e.alpha, e.beta_u, e.beta_v) for e in w.edges] == [
        (-1, 5, 4, 4), (-1, 5, 4, 4)]


def test_ex3_step4(ex3_graph):
    w = waldhausen_of(ex3_graph, 5)
    assert [(v.id, v.e, v.order) for v in w.vertices] == [(2, 2, 9), (7, 1, 8)]
    assert [(s.vertex, s.alpha, s.beta) for s in w.stalks] == [
        (2, 3, 1), (7, 2, 1)]
    assert [(a.vertex, a.alpha, a.beta) for a in w.arrows] == [
        (2, 5, 4), (7, 5, 2)]
    (e,) = w.edges
    assert (e.eps, e.alpha, e.beta_u, e.beta_v) == (-1, 145, 128, 17)


def test_unpowered_reproduces_base_gluing(ex1_graph):
    # at r = 1 the Waldhausen edge must carry the base chain fraction again
    w = waldhausen_of(ex1_graph, 1)
    (e,) = w.edges
    assert (e.alpha, e.beta_u, e.beta_v) == (31, 18, 19)
    assert [(a.alpha, a.beta) for a in w.arrows] == [(1, 0), (1, 0)]
    assert [v.e for v in w.vertices] == [1, 1]


def test_pairs_normalized_and_dual(ex1_graph, ex2_graph, ex3_graph, cusp_graph):
    for graph, r in ((ex1_graph, 3), (ex2_graph, 2), (ex3_graph, 5),
                     (cusp_graph, 5), (ex1_graph, 1), (ex3_graph, 1)):
        w = waldhausen_of(graph, r)
        for s in w.stalks:
            assert 1 <= s.beta < s.alpha
        for a in w.arrows:
            assert 0 <= a.beta < a.alpha
        for e in w.edges:
            if e.alpha == 1:
                assert e.beta_u == e.beta_v == 0
            else:
                assert 0 <= e.beta_u < e.alpha and 0 <= e.beta_v < e.alpha
                assert (e.beta_u * e.beta_v) % e.alpha == 1


def test_rejects_q_gt_1():
    """A q = 2 piece is rejected where its Nielsen graph is built."""
    with pytest.raises(UnsupportedError, match="pieces permuted") as info:
        nielsen_to_waldhausen(NielsenGraph((NielsenVertex(1, 4, 0, 2),),
                                           (Stalk(1, 2, 1), Stalk(1, 2, 1))))
    assert info.value.elements == (1,)


def test_waldhausen_graph_rejects_q_gt_1():
    """A q = 2 Seifert piece is rejected where its Waldhausen graph is built."""
    with pytest.raises(UnsupportedError, match="pieces permuted") as info:
        synth_plumbing(WaldhausenGraph((WaldVertex(1, -1, 0, 1), WaldVertex(2, -1, 0, 2)),
                                       arrows=(WaldArrow(1, 1, 0),)))
    assert info.value.elements == (2,)


def test_normalization_failure_is_reported():
    # a twist incompatible with the vertex order leaves a fractional alpha
    # or beta for every representative choice
    n = NielsenGraph(
        (NielsenVertex(1, 6, 1, 1),),
        (Stalk(1, 6, 1),),
        (BoundaryStalk(1, 6, 5, Fraction(-1, 4)),),
        (),
    )
    with pytest.raises(NormalizationError):
        nielsen_to_waldhausen(n)


def _fraction_seifert_pair(m, m_far, t, lam, sigma, at):
    """The Seifert pair computed on Fractions throughout: the reference the
    integer computation must equal, errors included."""
    where = f"arrow at vertex {at[0]}" if len(at) == 1 else f"edge at {at[0]} to {at[1]}"
    alpha = abs(m_far * t * lam)
    beta = (-1 if t > 0 else 1) * Fraction(m_far - m * m_far * t * sigma, m)
    if alpha.denominator != 1:
        raise NormalizationError(f"{where}: alpha = {alpha} is not integral", elements=at)
    if beta.denominator != 1:
        raise NormalizationError(
            f"mero normalization failure at {where}: "
            f"beta = {beta} is not integral for any representative", elements=at)
    alpha, beta = int(alpha), int(beta)
    k = -(beta // alpha)
    return alpha, beta + k * alpha, sigma + k * lam


def _outcome(pair, *args):
    try:
        return pair(*args)
    except NormalizationError as exc:
        return str(exc), exc.elements


# alpha = 3/2 (the twist's denominator 4 is not cancelled by m' * lam = 6);
# beta = -1/2 with alpha = 1; and an integral pair (alpha, beta, sigma') =
# (2, 0, -1) at an edge.
@example(6, 1, Fraction(-1, 4), 6, 5, (1,))
@example(2, 1, Fraction(1), 1, 0, (1,))
@example(2, 2, Fraction(-1, 2), 2, 1, (1, 2))
@given(st.integers(1, 12), st.integers(1, 12),
       st.fractions(-6, 6, max_denominator=36).filter(bool),
       st.integers(1, 12), st.integers(-12, 12),
       st.sampled_from([(1,), (1, 2), (7, 3)]))
def test_seifert_pair_equals_the_fraction_formula(m, m_far, t, lam, sigma, at):
    """(alpha, beta, sigma') from divmod equal the Fraction formula, and
    both non-integral cases raise NormalizationError with the same text."""
    assert (_outcome(_seifert_pair, m, m_far, t, lam, sigma, at)
            == _outcome(_fraction_seifert_pair, m, m_far, t, lam, sigma, at))


@pytest.mark.parametrize("args,message", [
    ((6, 1, Fraction(-1, 4), 6, 5, (1,)),
     "arrow at vertex 1: alpha = 3/2 is not integral (elements: 1)"),
    ((2, 1, Fraction(1), 1, 0, (1,)),
     "mero normalization failure at arrow at vertex 1: beta = -1/2 is not integral "
     "for any representative (elements: 1)"),
    ((3, 2, Fraction(-1, 2), 3, 1, (1, 2)),
     "mero normalization failure at edge at 1 to 2: beta = 5/3 is not integral "
     "for any representative (elements: 1, 2)"),
], ids=["alpha", "beta_arrow", "beta_edge"])
def test_seifert_pair_errors_are_pinned(args, message):
    with pytest.raises(NormalizationError) as info:
        _seifert_pair(*args)
    assert str(info.value) == message


def test_lam_1_stalks_are_regular_fibres():
    # a lam = 1 stalk is a regular fibre and leaves no Seifert pair
    n = NielsenGraph(
        (NielsenVertex(1, 2, 1, 1),),
        (Stalk(1, 1, 0), Stalk(1, 2, 1), Stalk(1, 2, 1)),
    )
    w = nielsen_to_waldhausen(n)
    assert [(s.alpha, s.beta) for s in w.stalks] == [(2, 1), (2, 1)]
    assert w.vertices[0].e == 1


def test_edge_duality_is_checked_in_step_4():
    # both ends read (2, 0): no beta' inverts beta mod 2, and the Waldhausen
    # graph step 4 builds rejects the gluing, naming both of its ends
    n = NielsenGraph((NielsenVertex(1, 8, 0),),
                     edges=(NielsenEdge(1, 1, Fraction(1, 8), 2, 1, 2, 1),))
    with pytest.raises(InputError) as info:
        nielsen_to_waldhausen(n)
    assert info.value.args[0] == "beta * beta' = 0 * 0 is not 1 mod 2"
    assert info.value.elements == (1, 1)


@pytest.mark.parametrize("stalks,arrows,message", [
    ((WaldStalk(1, 6, 4),), (), "stalk pair (6, 4) at vertex 1 is not reduced: gcd 2"),
    ((), (WaldArrow(1, 4, 2),), "arrow pair (4, 2) at vertex 1 is not reduced: gcd 2"),
], ids=["stalk", "arrow"])
def test_rejects_non_reduced_pairs(stalks, arrows, message):
    with pytest.raises(InputError, match=re.escape(message)) as info:
        WaldhausenGraph((WaldVertex(1, -1, 0),), stalks, arrows)
    assert info.value.elements == (1,)


def test_reversed_boundary_stalk_gives_a_reversed_arrow():
    """A positive boundary twist marks the binding arrow as reversed; the
    Seifert pair is the same as for the opposite twist."""
    def arrow(sigma, twist):
        n = NielsenGraph((NielsenVertex(1, 4, 0),), (Stalk(1, 4, 4 - sigma),),
                         (BoundaryStalk(1, 4, sigma, Fraction(twist, 4)),))
        return nielsen_to_waldhausen(n).arrows
    assert arrow(3, -1) == (WaldArrow(1, 1, 0),)
    assert arrow(1, 1) == (WaldArrow(1, 1, 0, True),)


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@st.composite
def nielsen_graphs(draw):
    """Nielsen graphs their constructor accepts: up to four pieces of order
    <= 12 with random stalks, boundary stalks and edges; one last stalk per
    piece makes its sum of sigma/lam integral."""
    order = dict(enumerate(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)), 1))
    piece = st.sampled_from(sorted(order))
    twist = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 12))

    def valency(lam):
        return lam, draw(st.sampled_from([s for s in range(lam) if gcd(s, lam) == 1]))

    def any_valency(v):
        return valency(draw(st.sampled_from(_divisors(order[v]))))

    stalks = [Stalk(v, *any_valency(v)) for v in draw(st.lists(piece, max_size=4))]
    boundary = [BoundaryStalk(v, *any_valency(v), draw(twist))
                for v in draw(st.lists(piece, max_size=3))]
    edges = []
    for u, v in draw(st.lists(st.tuples(piece, piece), max_size=4)):
        orbits = draw(st.sampled_from(_divisors(gcd(order[u], order[v]))))
        edges.append(NielsenEdge(u, v, draw(twist), *valency(order[u] // orbits),
                                 *valency(order[v] // orbits)))
    total = dict.fromkeys(order, Fraction(0))
    for s in (*stalks, *boundary):
        total[s.vertex] += Fraction(s.sigma, s.lam)
    for e in edges:
        total[e.u] += Fraction(e.sigma_u, e.lam_u)
        total[e.v] += Fraction(e.sigma_v, e.lam_v)
    stalks += [Stalk(v, t.denominator, -t.numerator % t.denominator)
               for v, t in total.items() if t.denominator > 1]
    vertices = tuple(NielsenVertex(v, m, draw(st.integers(0, 2))) for v, m in order.items())
    return NielsenGraph(vertices, tuple(stalks), tuple(boundary), tuple(edges))


@settings(max_examples=200, deadline=None)
@given(nielsen_graphs())
def test_steps_3_to_5_end_in_a_graph_or_a_plumbing_error(n):
    """Steps 3-5 trust their validated input: on any Nielsen graph the
    constructor accepts they return a plumbing tree or raise PlumbingError."""
    for r in (1, 2, 3, 4, 6, 12):
        try:
            tree = synth_plumbing(nielsen_to_waldhausen(power_nielsen(n, r)))
        except PlumbingError:
            continue
        assert isinstance(tree, PlumbingTree)
