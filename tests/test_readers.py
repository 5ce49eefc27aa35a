"""The generated record readers of ``serialize.from_dict`` against the
per-field loop they replaced (``reader_reference.py``): on drawn documents
of every schema, on documents whose objects have several fields missing,
mistyped or unknown at once, and on the malformed documents of the
benchmark.  Each must read to an equal graph, with every value of the same
type, or raise the same exception with the same text."""

import json
from dataclasses import fields
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import reader_reference
from conftest import read_input
from susplink.errors import InputError
from susplink.pipeline import run_pipeline
from susplink.serialize import from_dict, to_json
from test_serialize import _LAYOUTS, _TYPED, _VALUES, _documents


def _outcome(read, doc):
    """The graph ``read`` makes of ``doc``, every value with its type, or
    the type and text of what it raises."""
    try:
        graph = read(doc)
    except Exception as exc:  # noqa: BLE001 - any exception is compared
        return type(exc), str(exc)
    return type(graph), [(f.name, [(type(x), [(type(v), v) for v in x])
                                   for x in getattr(graph, f.name)]) for f in fields(graph)]


def assert_same_reading(doc):
    assert _outcome(from_dict, doc) == _outcome(reader_reference.from_dict, doc)


@settings(max_examples=400)
@given(_documents())
def test_reader_equals_the_reference(doc):
    assert_same_reading(doc)


@st.composite
def _flawed_objects(draw, cls):
    """A JSON object for ``cls`` in which each field may be left out, hold
    any JSON value, or sit next to an unknown key, in any key order: the
    first of several errors decides what is raised."""
    pairs = []
    for name, kind in get_type_hints(cls).items():
        flaw = draw(st.integers(0, 5))
        if flaw:
            pairs.append((name, draw(_VALUES if flaw == 1 else _TYPED[kind])))
        if draw(st.integers(0, 11)) == 0:
            pairs.append((f"{name}_", 1))
    return dict(draw(st.permutations(pairs)))


@st.composite
def _flawed_documents(draw):
    schema = draw(st.sampled_from(sorted(_LAYOUTS)))
    doc = {"schema": schema}
    for key, cls in _LAYOUTS[schema].items():
        if key == "vertices" or draw(st.booleans()):
            doc[key] = draw(st.lists(st.lists(st.integers(1, 3), min_size=2, max_size=2)
                                     if cls is None else _flawed_objects(cls), max_size=4))
    return doc


@settings(max_examples=400)
@given(_flawed_documents())
def test_reader_raises_the_first_error_of_the_reference(doc):
    assert_same_reading(doc)


# The malformed stage documents of the benchmark's stage_files workload.
MALFORMED = {
    "no_weight": {"schema": "susplink/plumbing:1", "vertices": [{"id": 1}], "edges": []},
    "weight_x": {"schema": "susplink/plumbing:1", "vertices": [{"id": 1, "weight": "x"}],
                 "edges": []},
    "stalk_no_beta": {"schema": "susplink/waldhausen:1", "vertices": [{"id": 1, "e": -1}],
                      "stalks": [{"vertex": 1, "alpha": 2}]},
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED)
def test_malformed_documents_read_as_the_reference(doc):
    assert_same_reading(doc)
    with pytest.raises(InputError):
        from_dict(doc)


@pytest.mark.parametrize("name,r", [("ex1", 3), ("ex3", 5), ("cusp", 101)])
def test_stage_documents_read_as_the_reference(name, r):
    result = run_pipeline(read_input(f"{name}.txt"), r, keep_arrows=True)
    for graph in (result.resolution, result.multiplicity, result.nielsen, result.nielsen_power,
                  result.waldhausen, result.plumbing_full, result.plumbing):
        doc = json.loads(to_json(graph))
        assert from_dict(doc) == graph
        assert_same_reading(doc)


def test_an_error_names_its_element_at_size():
    """The last of 5000 vertices holds a str weight: the error names it by
    its index, as the reference does."""
    doc = {"schema": "susplink/plumbing:1", "edges": [],
           "vertices": [{"id": i, "weight": -2} for i in range(1, 5001)]}
    doc["vertices"][-1]["weight"] = "x"
    assert _outcome(from_dict, doc) == (InputError,
                                        "field 'weight' must be int in vertices[4999]")
    assert_same_reading(doc)
