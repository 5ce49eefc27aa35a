"""The contract of the record types: the graph elements and the results of
the passes are immutable values with value equality and hashing, a
``Name(field=value, ...)`` repr, and JSON keys in field order."""

import pytest

from conftest import read_input
from susplink import exactlinalg, graphs, invariants, nielsen, pipeline
from susplink.serialize import element_dicts, to_dict

ELEMENTS = {
    "vertices": (graphs.Vertex, graphs.ResVertex, graphs.MultVertex,
                 graphs.NielsenVertex, graphs.WaldVertex),
    "edges": (graphs.Edge, graphs.NielsenEdge, graphs.WaldEdge),
    "arrows": (graphs.Arrow, graphs.ResArrow, graphs.WaldArrow),
    "stalks": (graphs.Stalk, graphs.WaldStalk),
    "boundary_stalks": (graphs.BoundaryStalk,),
}
RESULTS = (nielsen.StalkChain, nielsen.EdgeChain, nielsen.Decomposition,
           exactlinalg.Elimination, invariants.FibreData, invariants.LauferSteenbrink,
           invariants.ObstructionReport, pipeline.PipelineResult)
RECORDS = tuple(cls for group in ELEMENTS.values() for cls in group) + RESULTS


def _samples() -> dict:
    """One instance of each record type, all from ex1 at r = 3."""
    result = pipeline.run_pipeline(read_input("ex1.txt"), 3, keep_arrows=True, reduce=True)
    decomposition = nielsen.decompose(result.multiplicity)
    out = {type(x): x for x in (
        result, result.obstructions, decomposition,
        decomposition.stalk_chains[0], decomposition.edge_chains[0],
        exactlinalg.eliminate(result.plumbing),
        invariants.fibre_euler(result.multiplicity),
        invariants.laufer_steenbrink(result.plumbing, result.obstructions.chi_fibre_F))}
    for graph in (result.resolution, result.multiplicity, result.nielsen,
                  result.waldhausen, result.plumbing_full):
        for key in ELEMENTS:
            for x in getattr(graph, key, ()):
                if type(x) is not tuple:  # a resolution edge is a plain (u, v)
                    out.setdefault(type(x), x)
    return out


SAMPLES = _samples()


def test_every_record_type_has_a_sample():
    assert set(SAMPLES) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    x = SAMPLES[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    x = SAMPLES[cls]
    y = cls(**{name: getattr(x, name) for name in cls._fields})
    assert y is not x and y == x and hash(y) == hash(x)
    first = cls._fields[0]
    assert x._replace(**{first: object()}) != x


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    x = SAMPLES[cls]
    fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in cls._fields)
    assert repr(x) == f"{cls.__name__}({fields})"


# a value other than the omitted None, False or "" default, per such field
SHOWN = {"mult": 1, "flipped": True, "origin": "node", "label": "binding", "reversed": True,
         "mf": 1, "mg": 1, "product_chi": 0, "product_genus": 0, "product_boundary": 0}


@pytest.mark.parametrize("cls", [cls for group in ELEMENTS.values() for cls in group]
                         + [invariants.ObstructionReport], ids=lambda cls: cls.__name__)
def test_json_keys_are_the_fields_in_order(cls):
    x = SAMPLES[cls]._replace(**{name: value for name, value in SHOWN.items()
                                 if name in cls._fields})
    assert list(element_dicts(cls, (x,))[0]) == list(cls._fields)


def test_documents_write_fields_in_record_order():
    result = SAMPLES[pipeline.PipelineResult]
    for graph in (result.resolution, result.multiplicity, result.nielsen_power,
                  result.waldhausen, result.plumbing_full):
        document = to_dict(graph)
        del document["schema"]
        for key, items in document.items():
            for x, d in zip(getattr(graph, key), items, strict=True):
                if hasattr(x, "_fields"):  # not a resolution edge's [u, v]
                    assert list(d) == [name for name in x._fields if name in d], key
