"""The generated record writers of ``serialize.element_dicts`` against the
generic writer they replaced (``writer_reference.py``): on drawn records of
every record type a document or report writes, and on every stage document
of the data files at small r."""

from fractions import Fraction
from typing import NamedTuple, get_type_hints

import pytest
from hypothesis import given, strategies as st

from conftest import read_input
from susplink import serialize
from susplink.invariants import ObstructionReport
from susplink.pipeline import run_pipeline
from writer_reference import element_dicts as reference_dicts


class Interleaved(NamedTuple):
    """Fields that are always written after fields that may be left out,
    an order no record type of the package has."""
    a: int
    b: int | None = None
    c: Fraction = Fraction(0)
    d: str = ""
    e: bool = True


RECORDS = sorted({cls for _, _, lists in serialize._DOCUMENTS.values()
                  for cls in lists.values() if cls is not None} | {ObstructionReport, Interleaved},
                 key=lambda cls: cls.__name__)

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
