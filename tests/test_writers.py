"""The generated record writers of ``serialize.element_dicts`` against the
generic writer they replaced (``writer_reference.py``): on drawn records of
every record type a document or report writes, and on every stage document
of the data files at small r.  The generated text writers of
``serialize.to_json`` against ``dumps`` of the dict and against the
standard library: on drawn documents of every schema, and on every CLI
report of the data files at small r."""

import json
from fractions import Fraction
from typing import NamedTuple, get_type_hints

import pytest
from hypothesis import assume, given, strategies as st

from conftest import DATA, read_input
from susplink import serialize
from susplink.cli import main
from susplink.invariants import ObstructionReport
from susplink.pipeline import run_pipeline
from susplink.report import render_json_dict
from writer_reference import element_dicts as reference_dicts


class Interleaved(NamedTuple):
    """Fields that are always written after fields that may be left out,
    an order no record type of the package has."""
    a: int
    b: int | None = None
    c: Fraction = Fraction(0)
    d: str = ""
    e: bool = True


class Omittable(NamedTuple):
    """Every field may be left out, the first too."""
    a: int | None = None
    b: str = ""
    c: bool = False


RECORDS = sorted({cls for _, _, lists in serialize._DOCUMENTS.values()
                  for cls in lists.values() if cls is not None}
                 | {ObstructionReport, Interleaved, Omittable}, key=lambda cls: cls.__name__)

_FRACTION = st.one_of(st.fractions(max_denominator=60), st.integers(-99, 99))
# Falsy values that are not a field's default are drawn too: 0 for an
# int | None field, 0 and 1 for a bool, "0" for a str.
_KINDS = {
    int: st.integers(-30, 30),
    int | None: st.one_of(st.none(), st.just(0), st.integers(-30, 30)),
    bool: st.sampled_from([False, True, 0, 1]),
    bool | None: st.sampled_from([None, False, True, 0]),
    str: st.sampled_from(["", "0", "node", "binding"]),
    Fraction: _FRACTION,
    tuple[Fraction, ...]: st.lists(_FRACTION, max_size=6).map(tuple),
}


def records(cls):
    """Instances of ``cls``; a field with a default holds it half the time."""
    hints, defaults = get_type_hints(cls), cls._field_defaults
    return st.builds(cls, **{
        name: (st.one_of(st.just(defaults[name]), _KINDS[hints[name]])
               if name in defaults else _KINDS[hints[name]])
        for name in cls._fields})


def assert_written_as_reference(cls, items) -> None:
    """The same JSON objects, with their keys in the same order."""
    written, expected = serialize.element_dicts(cls, items), reference_dicts(cls, items)
    assert written == expected
    assert [list(d) for d in written] == [list(d) for d in expected]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_generated_writer_equals_the_reference(cls, data):
    assert_written_as_reference(cls, data.draw(st.lists(records(cls), max_size=5)))


RUNS = [(name, side) for name in ("ex1", "ex2", "ex3", "cusp")
        for side in ("fg", "f", "g") if (name, side) != ("cusp", "g")]  # cusp has no g branch


@pytest.mark.parametrize("name, side", RUNS)
def test_stage_documents_equal_the_reference(name, side):
    text = read_input(f"{name}.txt")
    for r in range(1, 13):
        result = run_pipeline(text, r, side=side, keep_arrows=True, reduce=True)
        for stage in ("resolution", "multiplicity", "nielsen", "nielsen_power",
                      "waldhausen", "plumbing_full", "plumbing", "blowdown"):
            graph = getattr(result, stage)
            for key, cls in serialize._DOCUMENTS[type(graph)][2].items():
                if cls is not None:
                    assert_written_as_reference(cls, getattr(graph, key))
        assert_written_as_reference(ObstructionReport, (result.obstructions,))


# ---------------------------------------------------------------------------
# to_json against dumps of the dict
# ---------------------------------------------------------------------------

_TEXT = st.one_of(st.sampled_from(["", "0", "piece 2", "binding"]), st.text(st.one_of(
    st.characters(), st.characters(max_codepoint=0x1f),  # non-ASCII, control
    st.characters(categories=["Cs"])), max_size=6))      # lone surrogates
# Every kind of _KINDS, plus values a record can hold that a pipeline does
# not write: a bool in an int field, and any text.
_TEXT_KINDS = {
    int: st.one_of(_KINDS[int], st.booleans()),
    int | None: st.one_of(_KINDS[int | None], st.booleans()),
    bool: st.one_of(_KINDS[bool], st.none()),
    str: _TEXT,
    Fraction: _FRACTION,
}
# Values no document can hold: ints with more digits than str writes, and
# in a field that is not a fraction, a float and a set.
_TOO_LONG = [10**4300, -10**4300, 10**5000]
_UNWRITABLE = st.sampled_from(_TOO_LONG + [0.5, {1}])


def text_records(cls):
    """Instances of ``cls`` drawn from _TEXT_KINDS; a field with a default
    holds it half the time."""
    hints, defaults = get_type_hints(cls), cls._field_defaults
    return st.builds(cls, **{
        name: (st.one_of(st.just(defaults[name]), _TEXT_KINDS[hints[name]])
               if name in defaults else _TEXT_KINDS[hints[name]])
        for name in cls._fields})


def unchecked(graph_cls, **lists):
    """A ``graph_cls`` holding ``lists``, without its constructor's checks:
    the writers read the lists alone."""
    graph = object.__new__(graph_cls)
    graph.__dict__.update(lists)
    return graph


def documents(graph_cls):
    lists = serialize._DOCUMENTS[graph_cls][2]
    pairs = st.tuples(_TEXT_KINDS[int], _TEXT_KINDS[int])
    return st.builds(lambda **kw: unchecked(graph_cls, **kw), **{
        key: st.lists(pairs if cls is None else text_records(cls), max_size=4).map(tuple)
        for key, cls in lists.items()})


def outcome(write, graph):
    """What ``write(graph)`` returns, or the type and text of its error."""
    try:
        return write(graph)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_written_as_dumps(graph) -> None:
    expected = outcome(lambda g: serialize.dumps(serialize.to_dict(g)), graph)
    assert outcome(serialize.to_json, graph) == expected
    if type(expected) is str:  # json.dumps writes a float too
        assert json.dumps(serialize.to_dict(graph), indent=2) == expected


@pytest.mark.parametrize("graph_cls", list(serialize._DOCUMENTS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_to_json_equals_dumps_of_the_dict(graph_cls, data):
    graph = data.draw(documents(graph_cls))
    assert_written_as_dumps(graph)
    assert type(serialize.to_json(graph)) is str


@pytest.mark.parametrize("graph_cls", list(serialize._DOCUMENTS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_to_json_raises_as_dumps_of_the_dict(graph_cls, data):
    """One field of one record, or one end of an edge, holds a value no
    document can; the error is the one ``dumps`` raises."""
    graph = data.draw(documents(graph_cls))
    keys = [key for key, items in vars(graph).items() if items]
    assume(keys)
    key = data.draw(st.sampled_from(keys))
    items, cls = list(vars(graph)[key]), serialize._DOCUMENTS[graph_cls][2][key]
    i = data.draw(st.integers(0, len(items) - 1))
    field = data.draw(st.integers(0, 1 if cls is None else len(cls._fields) - 1))
    fraction = cls is not None and get_type_hints(cls)[cls._fields[field]] is Fraction
    record = [*items[i]]
    record[field] = data.draw(st.sampled_from(_TOO_LONG) if fraction else _UNWRITABLE)
    items[i] = tuple(record) if cls is None else cls(*record)
    graph.__dict__[key] = tuple(items)
    assert_written_as_dumps(graph)
    assert type(outcome(serialize.to_json, graph)) is tuple


@pytest.mark.parametrize("graph_cls", list(serialize._DOCUMENTS), ids=lambda cls: cls.__name__)
def test_to_json_of_empty_lists(graph_cls):
    graph = unchecked(graph_cls, **dict.fromkeys(serialize._DOCUMENTS[graph_cls][2], ()))
    assert_written_as_dumps(graph)
    assert serialize.to_json(graph).count("[]") == len(serialize._DOCUMENTS[graph_cls][2])


TEXT_RECORDS = [cls for cls in RECORDS if cls is not ObstructionReport]


@pytest.mark.parametrize("cls", TEXT_RECORDS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("make", [
    lambda cls: cls(**{n: 0 for n in cls._fields if n not in cls._field_defaults}),  # defaults
    lambda cls: cls(*(False if hint is bool else "" if hint is str else 0  # falsy values
                      for hint in get_type_hints(cls).values())),
    lambda cls: cls(*(True if hint is int else 0 for hint in get_type_hints(cls).values())),
], ids=["defaults", "falsy", "bool_in_int"])
def test_text_writer_on_defaults_and_falsy_values(cls, make):
    record = make(cls)
    expected = serialize.dumps(serialize.element_dicts(cls, (record,)))
    written = "[\n    " + serialize._text_writer(cls)((record,))[0] + "\n  ]"
    assert written.replace("\n  ", "\n") == expected


@pytest.mark.parametrize("graph_cls", list(serialize._DOCUMENTS), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("value", [0.5, {1}])
def test_to_json_rejects_a_float_or_a_set(graph_cls, value):
    key, cls = next((key, cls) for key, cls in serialize._DOCUMENTS[graph_cls][2].items()
                    if cls is not None)
    record = cls(*(value if i == 0 else 0 for i in range(len(cls._fields))))
    graph = unchecked(graph_cls, **{k: (record,) if k == key else ()
                                    for k in serialize._DOCUMENTS[graph_cls][2]})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        serialize.to_json(graph)
    assert_written_as_dumps(graph)


@pytest.mark.parametrize("name, side", RUNS)
def test_cli_report_is_dumps_of_the_report_dict(name, side, tmp_path):
    out = tmp_path / "report.json"
    for r in range(1, 13):
        for keep_arrows in (False, True):
            for blow_down in (False, True):
                flags = ["--keep-arrows"] * keep_arrows + ["--blow-down"] * blow_down
                assert main(["pipeline", str(DATA / f"{name}.txt"), "-r", str(r), "--side", side,
                             "--format", "json", "-o", str(out), *flags]) == 0
                result = run_pipeline(read_input(f"{name}.txt"), r, side=side,
                                      keep_arrows=keep_arrows, reduce=blow_down)
                text = out.read_text(encoding="utf-8")
                assert text == serialize.dumps(render_json_dict(result)) + "\n"
                assert text == json.dumps(json.loads(text), indent=2) + "\n"
