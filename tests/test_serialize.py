import json
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_input
from susplink import synthesis
from susplink.cli import main
from susplink.errors import InputError, PlumbingError, UnsupportedError
from susplink.graphs import (
    Arrow,
    BoundaryStalk,
    Edge,
    MultVertex,
    NielsenEdge,
    NielsenVertex,
    PlumbingTree,
    ResArrow,
    ResVertex,
    Stalk,
    Vertex,
    WaldArrow,
    WaldEdge,
    WaldStalk,
    WaldVertex,
)
from susplink.invariants import ObstructionReport
from susplink.nielsen import build_nielsen
from susplink.pipeline import run_pipeline
from susplink.power import power_nielsen
from susplink.report import obstructions_to_dict
from susplink.resolve import subtract_and_normalize
from susplink.serialize import dumps, element_dicts, from_dict, from_json, to_dict, to_dot, to_json
from susplink.synthesis import synth_plumbing
from susplink.waldhausen import nielsen_to_waldhausen


def all_stage_graphs(graph, r):
    mp = subtract_and_normalize(graph)
    n = build_nielsen(mp)
    nr = power_nielsen(n, r)
    w = nielsen_to_waldhausen(nr)
    tree = synth_plumbing(w)
    return [graph, mp, n, nr, w, tree]


def test_json_roundtrip_every_stage(ex1_graph, ex2_graph, ex3_graph):
    for graph, r in ((ex1_graph, 3), (ex2_graph, 2), (ex3_graph, 5)):
        for stage in all_stage_graphs(graph, r):
            assert from_json(to_json(stage)) == stage


def test_schema_tags(ex1_graph):
    for stage in all_stage_graphs(ex1_graph, 3):
        data = to_dict(stage)
        assert data["schema"].startswith("susplink/")
        assert data["schema"].endswith(":1")


def test_twists_serialized_exactly(ex1_graph):
    n = build_nielsen(subtract_and_normalize(ex1_graph))
    data = to_dict(n)
    assert data["edges"][0]["twist"] == "31/30"
    assert data["boundary_stalks"][0]["twist"] == "-1/10"


def test_fractions_are_written_as_n_or_n_over_d():
    edges = [NielsenEdge(1, 2, twist, 2, 1, 2, 1)
             for twist in (Fraction(31, 30), Fraction(-33), 5)]
    assert [d["twist"] for d in element_dicts(NielsenEdge, edges)] == ["31/30", "-33", "5"]


def test_dot_nielsen_labels(ex1_graph):
    n = build_nielsen(subtract_and_normalize(ex1_graph))
    dot = to_dot(n)
    assert "t=31/30" in dot
    assert "(5,-2)" in dot   # symmetric representative of (5, 3)
    assert "(3,2)" in dot    # canonical representative
    assert "t=-1/10" in dot
    assert dot.startswith("graph G {")


def test_dot_other_stages(ex1_graph):
    for stage in all_stage_graphs(ex1_graph, 3):
        dot = to_dot(stage)
        assert dot.startswith("graph G {") and dot.rstrip().endswith("}")


def test_dot_waldhausen_shows_triplets(ex3_graph):
    n5 = power_nielsen(build_nielsen(subtract_and_normalize(ex3_graph)), 5)
    dot = to_dot(nielsen_to_waldhausen(n5))
    assert "(-1,145,128)" in dot
    assert "(5,4)" in dot and "(5,2)" in dot


def test_json_is_valid_json(ex2_graph):
    for stage in all_stage_graphs(ex2_graph, 2):
        json.loads(to_json(stage))


def test_malformed_json_is_rejected():
    import pytest

    from susplink.errors import InputError

    with pytest.raises(InputError, match="invalid JSON"):
        from_json("{not json")
    with pytest.raises(InputError, match="schema"):
        from_json('{"schema": "susplink/unknown:9"}')
    for doc, message in (
        ('[1, 2]', "JSON object"),
        ('{"schema": "susplink/plumbing:1", "vertices": 3, "edges": []}', "'vertices'"),
        ('{"schema": "susplink/plumbing:1", "vertices": [{"id": 1, "weight": -2,'
         ' "flipped": "no"}], "edges": []}', "'flipped' must be bool"),
        ('{"schema": "susplink/nielsen:1", "vertices": [{"id": 1, "order": 2}],'
         ' "boundary_stalks": [{"vertex": 1, "lam": 2, "sigma": 1, "twist": "1/0"}]}',
         "'twist' must be a fraction"),
        ('{"schema": "susplink/multiplicity:1", "vertices": [{"id": 1, "weight": -1,'
         ' "m": 1}], "edges": [{"u": 1, "v": 9}]}', "unknown vertex"),
        ('{"schema": "susplink/resolution:1", "vertices": [{"id": 1, "weight": -1}],'
         ' "edges": [[1]]}', "pairs"),
    ):
        with pytest.raises(InputError, match=message):
            from_json(doc)


@pytest.mark.parametrize("doc", [
    {"schema": "susplink/resolution:1", "vertices": [{"id": 1, "weight": -1, "genus": -1}],
     "edges": []},
    {"schema": "susplink/multiplicity:1",
     "vertices": [{"id": 1, "weight": -1, "genus": -1, "m": 1}], "edges": []},
], ids=["resolution", "multiplicity"])
def test_negative_genus_documents_are_rejected(doc):
    with pytest.raises(InputError) as info:
        from_json(json.dumps(doc))
    assert str(info.value) == "genus must be >= 0 (elements: 1)"


@pytest.mark.parametrize("doc,start", [
    ({"schema": "susplink/plumbing:1", "edges": [],
      "vertices": [{"id": 1, "weight": -1}, {"id": 2, "weight": "x", "origin": "o" * 10**6}]},
     "field 'weight' must be int in vertices[1]"),
    ({"schema": "s" * 10**6}, "unknown or missing schema 'sss"),
    ({"schema": [["s" * 10**6, 1]]}, "unknown or missing schema [['sss"),
], ids=["origin", "schema", "schema_list"])
def test_document_errors_stay_short(doc, start):
    """A field error names its element by list and index, and a schema
    error quotes only the start of the schema, however long the input."""
    with pytest.raises(InputError) as info:
        from_json(json.dumps(doc))
    message = str(info.value)
    assert message.startswith(start) and len(message) < 200


_PLUMBING = {"schema": "susplink/plumbing:1",
             "vertices": [{"id": 1, "weight": -2}, {"id": 2, "weight": -2}],
             "edges": [{"u": 1, "v": 2}]}


@pytest.mark.parametrize("vertices,edges,counted", [
    (4, 0, "4 vertices"), (3, 4, "4 edges"), (1, 0, None), (3, 2, None),
])
def test_document_lists_are_counted_before_any_record_is_built(monkeypatch, capsys, tmp_path,
                                                              vertices, edges, counted):
    """Each list of a document is held to synthesis.MAX_VERTICES entries,
    counted before any record is built: an item that is not even an object
    is not reached."""
    monkeypatch.setattr(synthesis, "MAX_VERTICES", 3)
    doc = {"schema": "susplink/plumbing:1",
           "vertices": [{"id": i, "weight": -2} for i in range(1, vertices + 1)],
           "edges": [{"u": i, "v": i + 1} for i in range(1, edges + 1)]}
    if counted is None:
        assert len(from_dict(doc).vertices) == vertices
        return
    message = f"the document has {counted}, more than the 3 supported"
    with pytest.raises(UnsupportedError, match=f"^{message}$"):
        from_dict({**doc, "vertices": doc["vertices"][:-1] + ["not an object"]})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invariants", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error [invariants] {message}\n")


@pytest.mark.parametrize("doc,message", [
    ({**_PLUMBING, "vertices": [{"id": 1, "weight": -2, "genu": 1}, {"id": 2, "weight": -2}]},
     "unknown field 'genu' in vertices[0]"),
    ({**_PLUMBING, "edges": [{"u": 1, "v": 2, "sing": -1}]}, "unknown field 'sing' in edges[0]"),
    ({**_PLUMBING, "arrows": [{"vertex": 1}, {"vertex": 2, "side": "f"}]},
     "unknown field 'side' in arrows[1]"),
    ({**_PLUMBING, "arrowz": [{"vertex": 1}]}, "unknown field 'arrowz' in the document"),
    ({"schema": "susplink/multiplicity:1",
      "vertices": [{"id": 1, "weight": -1, "m": 1, "flipped": False}], "edges": [],
      "arrowz": [{"vertex": 1, "mult": 1}]}, "unknown field 'arrowz' in the document"),
    ({"schema": "susplink/nielsen:1", "vertices": [{"id": 1, "order": 2}],
      "boundary_stalks": [{"vertex": 1, "lam": 2, "sigma": 1, "twist": "1/2", "x" * 10**6: 1}]},
     "unknown field 'xxx"),
], ids=["vertex", "edge", "arrow", "list", "multiplicity_list", "long_key"])
def test_unknown_keys_are_rejected(doc, message):
    """A key that is not a field of its record type, or not a list of the
    document, is an error, as an unknown field of an input line is."""
    with pytest.raises(InputError) as info:
        from_json(json.dumps(doc))
    assert str(info.value).startswith(message) and len(str(info.value)) < 200


@pytest.mark.parametrize("twist", ["1e-3", "0.5", 0.5, "1/0", " 1", "+1", "1/-2", True, "\u0663"])
def test_fraction_fields_take_only_n_or_n_over_d(twist):
    """A rational field reads an int or a string as str writes a Fraction,
    nothing else: no exponents, no decimals, no JSON floats."""
    doc = {"schema": "susplink/nielsen:1", "vertices": [{"id": 1, "order": 2}],
           "boundary_stalks": [{"vertex": 1, "lam": 2, "sigma": 1, "twist": twist}]}
    with pytest.raises(InputError, match="'twist' must be a fraction"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("twist,value", [
    (3, Fraction(3)), ("-3", Fraction(-3)), ("-31/30", Fraction(-31, 30)),
    ("2/4", Fraction(1, 2)), ("7/01", Fraction(7)),
])
def test_fraction_fields_read_exactly(twist, value):
    stalk = {"vertex": 1, "lam": 2, "sigma": 1, "twist": twist}
    doc = {"schema": "susplink/nielsen:1", "vertices": [{"id": 1, "order": 2}],
           "boundary_stalks": [stalk, stalk]}
    for b in from_json(json.dumps(doc)).boundary_stalks:
        assert type(b.twist) is Fraction and b.twist == value


# ---------------------------------------------------------------------------
# reader fuzz
# ---------------------------------------------------------------------------

# the list fields of each document, by schema tag
_LAYOUTS = {
    "susplink/resolution:1": {"vertices": ResVertex, "edges": None, "arrows": ResArrow},
    "susplink/multiplicity:1": {"vertices": MultVertex, "edges": Edge, "arrows": Arrow},
    "susplink/nielsen:1": {"vertices": NielsenVertex, "stalks": Stalk,
                           "boundary_stalks": BoundaryStalk, "edges": NielsenEdge},
    "susplink/waldhausen:1": {"vertices": WaldVertex, "stalks": WaldStalk,
                              "arrows": WaldArrow, "edges": WaldEdge},
    "susplink/plumbing:1": {"vertices": Vertex, "edges": Edge, "arrows": Arrow},
}
_SCALARS = st.one_of(
    st.integers(-3, 5), st.integers(), st.none(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "f", "g", "h", "binding", "1/2", "-31/30", "1/0", "1e-3", "0.5", "x"]),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_TYPED = {int: st.integers(-2, 3), int | None: st.one_of(st.none(), st.integers(-2, 3)),
          bool: st.booleans(), str: st.sampled_from(["f", "g", "", "binding"]),
          Fraction: st.sampled_from([1, -2, "1/2", "-1/2", "31/30", "-1/10"])}


@st.composite
def _objects(draw, cls):
    """A JSON object for ``cls``: well-typed small values, but now and then
    with a field dropped, a field holding any JSON value, or an unknown key."""
    obj = {name: draw(_TYPED[kind]) for name, kind in get_type_hints(cls).items()}
    flaw = draw(st.integers(0, 7))
    name = draw(st.sampled_from([*obj, "x"]))
    if flaw == 5:
        obj.pop(name, None)
    elif flaw == 6:
        obj[name] = draw(_VALUES)
    return obj


def _list(draw, cls):
    """A list field: ``cls`` objects or [u, v] pairs, now and then any JSON value."""
    if draw(st.integers(0, 9)) == 7:
        return draw(_VALUES)
    elements = (st.lists(st.integers(1, 4), min_size=2, max_size=2) if cls is None
                else _objects(cls))
    return draw(st.lists(elements, max_size=5))


@st.composite
def _documents(draw):
    """A document under a known or a wrong schema tag, or any JSON value."""
    if draw(st.integers(0, 9)) == 7:
        return draw(_VALUES)
    schema = draw(st.sampled_from([*_LAYOUTS] * 4 + ["susplink/report:1",
                                                     "susplink/plumbing:2", "", None, 1]))
    layout = _LAYOUTS.get(schema, _LAYOUTS["susplink/plumbing:1"])
    keys = [k for k in layout if k == "vertices" or draw(st.integers(0, 3)) != 2]
    doc = {"schema": schema}
    for key in keys + draw(st.lists(st.sampled_from([*layout, "x"]), max_size=1)):
        doc[key] = _list(draw, layout.get(key, Vertex))
    return doc


@settings(max_examples=300)
@given(_documents())
def test_from_json_fuzz_ends_in_graph_or_plumbing_error(doc):
    """Random schema tags, list keys, field names and values (bools, None,
    floats, strings, nested lists) read to the tagged graph or raise a
    PlumbingError."""
    try:
        graph = from_json(json.dumps(doc))
    except PlumbingError:
        return
    assert to_dict(graph)["schema"] == doc["schema"]


# ---------------------------------------------------------------------------
# the indent-2 writer
# ---------------------------------------------------------------------------

_TEXT = st.text(st.one_of(st.characters(), st.characters(max_codepoint=0x1f),
                          st.characters(categories=["Cs"])))  # control, lone surrogate
_SCALARS = st.one_of(_TEXT, st.integers(), st.integers(-10**4000, 10**4000),
                     st.sampled_from([10**4000, -10**4000]), st.booleans(), st.none())
_DOCS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=4)), max_leaves=20)


@settings(max_examples=500)
@given(_DOCS)
def test_dumps_is_the_standard_indent_2_output(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1}, 0.5])
def test_dumps_rejects_other_types(value):
    for doc in (value, [1, value], {"a": {"b": value}}):
        with pytest.raises(TypeError):
            dumps(doc)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("*.json")),
                         ids=lambda path: path.name)
def test_golden_documents_are_written_by_dumps(path):
    text = path.read_text(encoding="utf-8")
    assert text == dumps(json.loads(text)) + "\n"


# ---------------------------------------------------------------------------
# writer rule
# ---------------------------------------------------------------------------

def _omitted(x, name) -> bool:
    """Whether field ``name`` of ``x`` holds a None, False or "" default."""
    defaults = type(x)._field_defaults
    if name not in defaults:
        return False
    default, value = defaults[name], getattr(x, name)
    return any(default is d and value is d for d in (None, False)) or (
        default == "" and value == "")


def _check_writer_rule(x, d: dict) -> None:
    assert list(d) == [name for name in x._fields if name in d]
    for name in x._fields:
        assert (name not in d) == _omitted(x, name), name
        if name in d:
            value = getattr(x, name)
            if isinstance(value, Fraction):
                value = str(value)
            elif isinstance(value, tuple):
                value = [str(k) for k in value]
            assert d[name] == value


@st.composite
def plumbing_trees(draw):
    n = draw(st.integers(1, 8))
    vertices = tuple(
        Vertex(i, draw(st.integers(-5, 1)), draw(st.integers(0, 2)),
               draw(st.one_of(st.none(), st.just(0), st.integers(-9, 9))),
               draw(st.booleans()), draw(st.sampled_from(["", "node", "chain 1-2"])))
        for i in range(1, n + 1))
    edges = tuple(Edge(draw(st.integers(1, i - 1)), i, draw(st.sampled_from([1, -1])))
                  for i in range(2, n + 1))
    arrows = tuple(Arrow(draw(st.integers(1, n)), draw(st.integers(-3, 3)),
                         draw(st.sampled_from(["", "binding"])))
                   for _ in range(draw(st.integers(0, 3))))
    return PlumbingTree(vertices, edges, arrows)


@given(plumbing_trees())
def test_writer_rule_on_plumbing_trees(tree):
    data = to_dict(tree)
    assert list(data) == ["schema", "vertices", "edges", "arrows"]
    for key in ("vertices", "edges", "arrows"):
        for x, d in zip(getattr(tree, key), data[key], strict=True):
            _check_writer_rule(x, d)
    assert from_dict(data) == tree
    assert from_json(to_json(tree)) == tree


_FRACTIONS = st.fractions(max_denominator=40)
_MAYBE_INT = st.one_of(st.none(), st.integers(-20, 20))


@given(st.builds(
    ObstructionReport, st.lists(_FRACTIONS, max_size=5).map(tuple), _FRACTIONS,
    st.booleans(), st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 5),
    st.integers(1, 5), st.integers(-20, 20), st.integers(0, 20), st.booleans(),
    _MAYBE_INT, _MAYBE_INT, st.one_of(st.none(), st.booleans()), st.booleans(),
    st.integers(-50, 50), _MAYBE_INT, _MAYBE_INT, _MAYBE_INT))
def test_writer_rule_on_obstruction_reports(report):
    data = obstructions_to_dict(report)
    _check_writer_rule(report, data)
    assert json.loads(json.dumps(data)) == data


def test_writer_rule_examples():
    tree = PlumbingTree((Vertex(1, -2, mult=0), Vertex(2, -1, 1, None, True, "node")),
                        (Edge(1, 2, -1),), (Arrow(1), Arrow(2, -1, "binding")))
    assert to_dict(tree) == {
        "schema": "susplink/plumbing:1",
        "vertices": [{"id": 1, "weight": -2, "genus": 0, "mult": 0},
                     {"id": 2, "weight": -1, "genus": 1, "flipped": True, "origin": "node"}],
        "edges": [{"u": 1, "v": 2, "sign": -1}],
        "arrows": [{"vertex": 1, "mult": 1}, {"vertex": 2, "mult": -1, "label": "binding"}],
    }


def test_pipeline_arrows_are_binding_arrows():
    """An arrow is written without "label" only while it has none; the
    pipeline labels every arrow of its trees, so its documents keep it."""
    for name in ("ex1.txt", "ex2.txt", "ex3.txt", "cusp.txt"):
        for side in ("fg", "f", "g"):
            try:
                result = run_pipeline(read_input(name), 3, side=side, keep_arrows=True)
            except PlumbingError:  # cusp on side g has no node
                continue
            arrows = result.plumbing_full.arrows + result.plumbing.arrows
            assert arrows and all(a.label == "binding" for a in arrows)
