"""What a graph container derives from its fields is computed once, while it
is built, and must equal a fresh computation: ``ids`` on every graph,
``valence`` and ``node_ids`` on a ``MultPlumbing``, and the chain table and
node balance that step 5 and the Waldhausen node form share.  Kept outside
the fields, they change nothing that equality, hashing, repr, pickling,
copying or ``dataclasses.replace`` do."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from susplink import contfrac, synthesis
from susplink.cli import main
from susplink.graphs import Arrow, Edge, MultPlumbing, MultVertex, WaldhausenGraph
from susplink.pipeline import run_pipeline
from susplink.resolve import product_multiplicity_tree
from susplink.synthesis import node_balance, waldhausen_chains
from conftest import read_input
from test_exactlinalg import plumbing_forms
from test_graphs_properties import random_trees

RUNS = [(name, side) for name in ("ex1", "ex2", "ex3", "cusp")
        for side in ("fg", "f", "g") if (name, side) != ("cusp", "g")]


def fresh_valence(mp):
    valence = {v.id: 0 for v in mp.vertices}
    for e in mp.edges:
        valence[e.u] += 1
        valence[e.v] += 1
    for a in mp.arrows:
        valence[a.vertex] += 1
    return valence


def check_views(graph):
    assert graph.ids == tuple(v.id for v in graph.vertices)
    if isinstance(graph, MultPlumbing):
        valence = fresh_valence(graph)
        assert graph.valence == valence
        assert graph.node_ids == tuple(v.id for v in graph.vertices
                                       if valence[v.id] >= 3 or v.genus >= 1)


def containers(result):
    """Every graph of ``result``, and the product germ's tree of a mixed run."""
    graphs = [result.resolution, result.multiplicity, result.nielsen, result.nielsen_power,
              result.waldhausen, result.plumbing_full, result.plumbing, result.blowdown]
    if result.side == "fg" and result.resolution.arrows:
        graphs.append(product_multiplicity_tree(result.resolution))
    return graphs


@pytest.mark.parametrize("name, side", RUNS)
def test_views_of_every_pipeline_container_equal_a_fresh_computation(name, side):
    text = read_input(f"{name}.txt")
    for r in range(1, 13):
        result = run_pipeline(text, r, side=side, reduce=True)
        for graph in containers(result):
            check_views(graph)
        w = result.waldhausen  # its chain table and balance are kept since step 5
        assert waldhausen_chains(w) is waldhausen_chains(w) == waldhausen_chains(
            dataclasses.replace(w))
        assert node_balance(w) is node_balance(w) == node_balance(dataclasses.replace(w))


def drawn_multiplicity_trees(tree, data):
    """A multiplicity tree on a drawn tree: drawn m and genus, unflipped, and
    arrows on drawn vertices."""
    ids = tree.ids
    vertices = tuple(MultVertex(v.id, v.weight, data.draw(st.integers(0, 1)),
                                data.draw(st.integers(0, 5)), False) for v in tree.vertices)
    arrows = tuple(Arrow(i) for i in data.draw(st.lists(st.sampled_from(ids), max_size=4)))
    return MultPlumbing(vertices, tuple(Edge(e.u, e.v) for e in tree.edges), arrows)


@given(random_trees(), st.data())
def test_views_of_drawn_trees_equal_a_fresh_computation(tree, data):
    check_views(tree)
    check_views(drawn_multiplicity_trees(tree, data))


@given(plumbing_forms())
def test_ids_of_drawn_forms_equal_a_fresh_computation(tree):
    check_views(tree)


@pytest.fixture(scope="module")
def ex1_containers():
    result = run_pipeline(read_input("ex1.txt"), 3, reduce=True)
    return containers(result)


def fields_of(graph):
    return {f.name: getattr(graph, f.name) for f in dataclasses.fields(graph)}


def test_views_are_not_fields(ex1_containers):
    for graph in ex1_containers:
        assert not {"ids", "valence", "node_ids"} & set(fields_of(graph))


def test_equality_hash_and_repr_see_the_fields_alone(ex1_containers):
    for graph in ex1_containers:
        twin = type(graph)(**fields_of(graph))
        assert twin == graph and hash(twin) == hash(graph)
        assert repr(graph) == f"{type(graph).__name__}(" + ", ".join(
            f"{k}={v!r}" for k, v in fields_of(graph).items()) + ")"


@pytest.mark.parametrize("clone", [copy.copy, lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "pickle"])
def test_copies_keep_their_views(ex1_containers, clone):
    for graph in ex1_containers:
        twin = clone(graph)
        assert twin == graph and hash(twin) == hash(graph) and repr(twin) == repr(graph)
        check_views(twin)


def test_replace_derives_the_views_of_the_new_fields(ex1_containers):
    for graph in ex1_containers:
        twin = dataclasses.replace(graph, vertices=graph.vertices[::-1])
        assert twin.ids == graph.ids[::-1]
        check_views(twin)
        if isinstance(graph, MultPlumbing):
            bare = dataclasses.replace(graph, arrows=())
            check_views(bare)
            assert bare.valence != graph.valence
    w = next(g for g in ex1_containers if isinstance(g, WaldhausenGraph))
    assert "_chains" in vars(w) and "_chains" not in vars(dataclasses.replace(w))


@pytest.mark.parametrize("name, side, r", [("ex1", "fg", 3), ("ex3", "fg", 211),
                                           ("cusp", "f", 401), ("ex2", "g", 7)])
def test_one_run_expands_each_chain_length_once(monkeypatch, name, side, r):
    """``synth_plumbing`` and ``waldhausen_form`` share one chain table, so
    a run takes the Hirzebruch-Jung length of each chain with alpha > 1 once."""
    calls = []

    def counted(num, den):
        calls.append((num, den))
        return contfrac.hj_length(num, den)

    monkeypatch.setattr(synthesis, "hj_length", counted)
    result = run_pipeline(read_input(f"{name}.txt"), r, side=side)
    monkeypatch.undo()
    chains = [c for c in waldhausen_chains(dataclasses.replace(result.waldhausen))
              if c.alpha > 1]
    assert chains and calls == [(c.alpha, c.q) for c in chains]


@pytest.mark.parametrize("doc, message", [
    ('"vertices": [{"id": 1, "e": -1, "order": 2}], '
     '"arrows": [{"vertex": 1, "alpha": 1, "beta": 0}]',
     "node 1 weight -(1)/(2) is not integral (elements: 1)"),
    ('"vertices": [{"id": 1, "e": -1, "order": 3}], '
     '"stalks": [{"vertex": 1, "alpha": 2, "beta": 1}]',
     "chain [-2] with end data (3, 0) has non-integral multiplicities [Fraction(3, 2)]"),
], ids=["node", "chain"])
def test_unbalanced_waldhausen_document_fails_in_the_plumbing_stage(
        tmp_path, capsys, doc, message):
    path = tmp_path / "w.json"
    path.write_text('{"schema": "susplink/waldhausen:1", ' + doc + "}", encoding="utf-8")
    code = main(["plumbing", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error [plumbing] monodromical balance failure: {message}\n")


@pytest.mark.parametrize("name, side", RUNS)
def test_integral_entries_of_K_are_ints(name, side):
    """An integral entry of K is an int, any other a Fraction; the JSON and
    text writers print both with ``str``, so the reports do not change."""
    text = read_input(f"{name}.txt")
    for r in range(1, 13):
        K = run_pipeline(text, r, side=side).obstructions.K
        assert all(type(k) is int or (type(k) is Fraction and k.denominator > 1) for k in K)
        if side != "fg" or name == "cusp":  # one-sided: Gorenstein, all ints
            assert all(type(k) is int for k in K), r
