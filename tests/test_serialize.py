import json

from susplink.nielsen import build_nielsen
from susplink.power import power_nielsen
from susplink.resolve import subtract_and_normalize
from susplink.serialize import frac_str, from_json, to_dict, to_dot, to_json
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


def test_frac_str():
    from fractions import Fraction

    assert frac_str(Fraction(31, 30)) == "31/30"
    assert frac_str(Fraction(-33)) == "-33"
    assert frac_str(5) == "5"


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
