import pytest
from hypothesis import assume, given, strategies as st

from susplink import resolve
from susplink.errors import PlumbingError
from susplink.graphs import ResArrow, ResolutionGraph, ResVertex
from susplink.invariants import determinant, fibre_euler
from susplink.pipeline import StageError, run_pipeline
from susplink.report import describe_waldhausen, render_json_dict, render_text
from susplink.resolve import multiplicity_trees, parse_resolution, product_multiplicity_tree
from susplink.serialize import from_json, to_dict, to_dot, to_json
from conftest import read_input


def test_stage_outputs_compose(ex1_graph):
    # the pipeline's stage dictionaries equal what the stage functions emit
    result = run_pipeline(ex1_graph, 3)
    report = render_json_dict(result)
    assert report["stages"]["multiplicity"] == to_dict(result.multiplicity)
    assert report["stages"]["nielsen"] == to_dict(result.nielsen)
    assert report["stages"]["plumbing"] == to_dict(result.plumbing)
    assert report["schema"] == "susplink/report:1"


def test_pipeline_rejects_bad_r(ex1_graph):
    with pytest.raises(StageError):
        run_pipeline(ex1_graph, 0)


def test_stage_error_carries_stage_name():
    text = ("vertex 1 weight=-1\nvertex 2 weight=-2\nedge 1 2\n"
            "arrow 1 side=f\narrow 1 side=g\n")
    with pytest.raises(StageError) as exc:
        run_pipeline(text, 2)
    assert exc.value.stage == "step1"
    assert "not fibred" in str(exc.value)


def test_report_text_mentions_everything(ex3_result):
    text = render_text(ex3_result)
    assert "29/72" in text
    assert "145/72" in text
    assert "(-1,145,128)" in text.replace(" ", "") or "145" in text
    assert "numerically Gorenstein: no" in text
    assert "genus 5" in text


def test_report_notes_fibre_contrast(ex2_result):
    text = render_text(ex2_result)
    assert "genus 1" in text and "genus 5" in text
    assert "cannot be equivalent" in text


def product_germ_graph(ex2_graph):
    """ex2's tree with both branches on side f: the holomorphic product germ
    (x^2+y^3)(x^3+y^2) itself."""
    return ResolutionGraph(ex2_graph.vertices, ex2_graph.edges,
                           (ResArrow(2, "f", 1), ResArrow(4, "f", 1)))


def test_product_germ_yields_the_same_link(ex2_graph):
    """The mixed germ of ex2 at r = 2 and the holomorphic product germ
    (x^2+y^3)(x^3+y^2) at r = 2 produce homeomorphic plumbing descriptions:
    both reduce to two -3 vertices joined by a double edge."""
    mixed = run_pipeline(ex2_graph, 2, reduce=True)
    product = run_pipeline(product_germ_graph(ex2_graph), 2, reduce=True)
    assert sorted(v.weight for v in product.blowdown.vertices) == [-3, -3]
    assert len(product.blowdown.edges) == 2
    assert sorted(v.weight for v in mixed.blowdown.vertices) == [-3, -3]
    assert abs(determinant(product.blowdown)) == abs(determinant(mixed.blowdown)) == 5
    # ... but the fibre genera differ (1 vs 5), so the open books do not match
    assert mixed.obstructions.fibre_genus == 1
    assert product.obstructions.fibre_genus == 5


def test_holomorphic_sides_run(ex1_graph):
    for side in ("f", "g"):
        result = run_pipeline(ex1_graph, 2, side=side)
        n = result.nielsen
        assert all(b.twist < 0 for b in n.boundary_stalks)
        assert all(e.twist < 0 for e in n.edges)


def test_notes_present_for_powers(ex1_result):
    assert any("lifts with lam'" in note for note in ex1_result.notes)


# (x^2+y^3)*conj(x^3+y^4): the f branch meets vertex 2 where m^f < m^g, so
# step 1 flips it and the f arrow leaves against its piece (mult -1)
REVERSED_ARROW = """\
vertex 1 weight=-2 mf=3 mg=4
vertex 2 weight=-2 mf=6 mg=8
vertex 3 weight=-1 mf=8 mg=12
vertex 4 weight=-4 mf=2 mg=3
edge 1 2
edge 2 3
edge 3 4
arrow 2 side=f
arrow 3 side=g
"""

# (x^2+y^3)*conj(x^4+y^5), the same situation on a five-vertex chain
REVERSED_ARROW_5 = """\
vertex 1 weight=-2 mf=3 mg=5
vertex 2 weight=-2 mf=6 mg=10
vertex 3 weight=-2 mf=8 mg=15
vertex 4 weight=-1 mf=10 mg=20
vertex 5 weight=-5 mf=2 mg=4
edge 1 2
edge 2 3
edge 3 4
edge 4 5
arrow 2 side=f
arrow 4 side=g
"""


def test_reversed_binding_arrow_is_a_sphere_at_r1():
    """At r = 1 the link is S^3 whatever the arrows' orientation."""
    result = run_pipeline(REVERSED_ARROW, 1, reduce=True)
    assert [a.mult for a in result.multiplicity.arrows] == [-1, 1]
    assert [a.reversed for a in result.waldhausen.arrows] == [True, False]
    assert [a.mult for a in result.plumbing_full.arrows] == [-1, 1]
    assert len(result.blowdown.vertices) == 1
    assert abs(result.obstructions.determinant) == 1


def test_reversed_binding_arrow_runs():
    """On the step-1 tree (|m| = 2, 4, 7, 10, 2, arrows at 2 and 4) the
    monodromy has Delta(t) = (t-1)(t^4-1)(t^10-1)/(t^2-1)^2; the join
    theorem gives |H_1| = |Delta(-1)| = 20 at r = 2."""
    assert abs(run_pipeline(REVERSED_ARROW_5, 1, reduce=True).obstructions.determinant) == 1
    result = run_pipeline(REVERSED_ARROW_5, 2, reduce=True)
    assert result.blowdown.is_tree()
    assert abs(result.obstructions.determinant) == 20
    assert from_json(to_json(result.waldhausen)) == result.waldhausen
    assert [a.reversed for a in result.waldhausen.arrows] == [True, False]
    written = to_dict(result.waldhausen)["arrows"]
    assert written[0]["reversed"] is True and "reversed" not in written[1]


def test_reversed_binding_arrow_renders_apart():
    """At r = 1 both binding arrows are the pair (1,0); the text and dot
    renderings of the Waldhausen graph mark the reversed one."""
    result = run_pipeline(REVERSED_ARROW, 1)
    text = [line for line in describe_waldhausen(result.waldhausen) if "arrow" in line]
    assert text == ["  arrow at 2: (1,0) reversed", "  arrow at 3: (1,0)"]
    assert text[0] in render_text(result).splitlines()
    dot = [line for line in to_dot(result.waldhausen).splitlines() if "style=bold" in line]
    assert dot == ['  v2 -- a0 [style=bold, label="(1,0) reversed"];',
                   '  v3 -- a1 [style=bold, label="(1,0)"];']


@pytest.mark.parametrize("r,det", [(1, 1), (2, 3), (3, 4), (5, 1)])
def test_leaf_chain_below_one(r, det):
    """The f side keeps g's -1 vertex next to the node, so the leaf chain
    [3, 4] has value 3/4.  x^2 + y^3 + z^r is smooth, A2, D4 and E8 at
    r = 1, 2, 3, 5."""
    result = run_pipeline(REVERSED_ARROW, r, side="f", reduce=True)
    assert abs(result.obstructions.determinant) == det


def product_fibre(obs):
    return obs.product_chi, obs.product_genus, obs.product_boundary


@pytest.mark.parametrize("side, solves", [("fg", ["f", "g"]), ("f", ["f"]), ("g", ["g"])])
def test_pipeline_solves_each_side_once(monkeypatch, side, solves):
    """Step 1 and the product germ's fibre share one solve of each side.
    A mixed run reads the product fibre off its own fibred tree with the
    multiplicities |m^f + m^g|; it equals the fibre of the tree
    ``product_multiplicity_tree`` builds.  A one-sided run has none."""
    calls = []
    solve = resolve.solve_monodromical

    def counted(graph, s):
        calls.append(s)
        return solve(graph, s)

    monkeypatch.setattr(resolve, "solve_monodromical", counted)
    for name in ("ex1", "ex2", "ex3", "cusp"):
        if (name, side) == ("cusp", "g"):
            continue  # the cusp has no g branch
        graph = parse_resolution(read_input(f"{name}.txt"))
        want = fibre_euler(product_multiplicity_tree(graph)) if side == "fg" else (None,) * 3
        for r in (1, 2, 5):
            calls.clear()
            assert product_fibre(run_pipeline(graph, r, side=side).obstructions) == tuple(want)
            assert calls == solves


def test_product_fibre_of_the_product_germ_is_its_own(ex2_graph):
    """With both branches on one side, m^g = 0: the product fibre is the
    fibre of the run itself (ex2's product germ, genus 5)."""
    graph = product_germ_graph(ex2_graph)
    obs = run_pipeline(graph, 2).obstructions
    assert product_fibre(obs) == tuple(fibre_euler(product_multiplicity_tree(graph)))
    assert product_fibre(obs) == (obs.chi_fibre_fg, obs.fibre_genus, obs.fibre_boundary)
    assert obs.product_genus == 5


@st.composite
def mixed_resolution_trees(draw):
    """A resolution tree of at most 9 vertices and weights -4..-1 built by
    blow-ups from one -1 vertex, so that every multiplicity system has an
    integer solution, with one f and one g arrow on drawn vertices."""
    weights, edges = {1: -1}, []
    for new in range(2, draw(st.integers(1, 9)) + 1):
        centres = [(v,) for v, w in weights.items() if w > -4] + [
            e for e in edges if weights[e[0]] > -4 and weights[e[1]] > -4]
        if not centres:
            break
        centre = draw(st.sampled_from(centres))  # a point on one curve, or where two meet
        if len(centre) == 2:
            edges.remove(centre)
        edges += [(v, new) for v in centre]
        for v in centre:
            weights[v] -= 1
        weights[new] = -1
    ids = st.sampled_from(sorted(weights))
    return ResolutionGraph(tuple(ResVertex(v, w) for v, w in weights.items()), tuple(edges),
                           (ResArrow(draw(ids), "f", 1), ResArrow(draw(ids), "g", -1)))


def _fibre(*args):
    """``fibre_euler(*args)``, or the type and text of the PlumbingError it raises."""
    try:
        return fibre_euler(*args)
    except PlumbingError as exc:
        return type(exc), str(exc)


@given(mixed_resolution_trees())
def test_product_fibre_of_drawn_mixed_trees_is_the_product_trees(graph):
    """Wherever step 1 accepts a drawn mixed tree, the fibre read off its
    fibred tree with the product multiplicities is the product tree's
    fibre, or the same fractional-genus error."""
    try:
        mp, product_m = multiplicity_trees(graph, "fg")
    except PlumbingError:
        assume(False)
    assert _fibre(mp, product_m) == _fibre(product_multiplicity_tree(graph))
