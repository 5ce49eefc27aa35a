"""The rules every graph container shares, checked on each of the five
through minimal valid documents: distinct vertex ids, genus >= 0, every
edge end and every arrow, stalk and boundary stalk on a known vertex, and
``ids`` in vertex order."""

import copy

import pytest

from susplink.errors import InputError
from susplink.serialize import from_dict

# Two vertices listed as 2, 1, one edge between them, and one element of
# each vertex-hung list.
DOCUMENTS = {
    "plumbing": {
        "schema": "susplink/plumbing:1",
        "vertices": [{"id": 2, "weight": -2}, {"id": 1, "weight": -2}],
        "edges": [{"u": 2, "v": 1}],
        "arrows": [{"vertex": 1}],
    },
    "resolution": {
        "schema": "susplink/resolution:1",
        "vertices": [{"id": 2, "weight": -1}, {"id": 1, "weight": -2}],
        "edges": [[2, 1]],
        "arrows": [{"vertex": 2, "side": "f"}],
    },
    "multiplicity": {
        "schema": "susplink/multiplicity:1",
        "vertices": [{"id": 2, "weight": -1, "m": 1}, {"id": 1, "weight": -2, "m": 1}],
        "edges": [{"u": 2, "v": 1}],
        "arrows": [{"vertex": 2, "mult": 1}],
    },
    "nielsen": {
        "schema": "susplink/nielsen:1",
        "vertices": [{"id": 2, "order": 2}, {"id": 1, "order": 2}],
        "stalks": [{"vertex": 2, "lam": 2, "sigma": 1}, {"vertex": 2, "lam": 2, "sigma": 1}],
        "boundary_stalks": [{"vertex": 1, "lam": 1, "sigma": 0, "twist": "1"}],
        "edges": [{"u": 2, "v": 1, "twist": "1", "lam_u": 1, "sigma_u": 0,
                   "lam_v": 1, "sigma_v": 0}],
    },
    "waldhausen": {
        "schema": "susplink/waldhausen:1",
        "vertices": [{"id": 2, "e": -1}, {"id": 1, "e": -1}],
        "stalks": [{"vertex": 2, "alpha": 2, "beta": 1}],
        "arrows": [{"vertex": 1, "alpha": 1, "beta": 0}],
        "edges": [{"u": 2, "v": 1, "eps": 1, "alpha": 1, "beta_u": 0, "beta_v": 0}],
    },
}
HUNG = [(kind, key) for kind, doc in DOCUMENTS.items()
        for key in ("arrows", "stalks", "boundary_stalks") if key in doc]


def _rejected(doc, offending):
    with pytest.raises(InputError) as info:
        from_dict(doc)
    assert offending in info.value.elements


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_minimal_document_is_valid_and_ids_follow_vertex_order(kind):
    assert from_dict(DOCUMENTS[kind]).ids == (2, 1)


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_duplicate_id_is_rejected(kind):
    doc = copy.deepcopy(DOCUMENTS[kind])
    doc["vertices"].append(doc["vertices"][0])
    _rejected(doc, 2)


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_edge_end_on_unknown_vertex_is_rejected(kind):
    doc = copy.deepcopy(DOCUMENTS[kind])
    edge = doc["edges"][0]
    if isinstance(edge, list):
        edge[1] = 9
    else:
        edge["v"] = 9
    _rejected(doc, 9)


@pytest.mark.parametrize("kind,key", HUNG, ids=[f"{kind}-{key}" for kind, key in HUNG])
def test_element_on_unknown_vertex_is_rejected(kind, key):
    doc = copy.deepcopy(DOCUMENTS[kind])
    doc[key][0]["vertex"] = 9
    _rejected(doc, 9)


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_negative_genus_is_rejected(kind):
    doc = copy.deepcopy(DOCUMENTS[kind])
    doc["vertices"][1]["genus"] = -1
    _rejected(doc, 1)
