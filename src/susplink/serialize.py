"""Versioned JSON and DOT serialization for every pipeline graph.

JSON documents carry a ``schema`` tag ("susplink/<kind>:1"); twists and
other rationals are strings like "31/30" so the documents stay exact.  DOT
output renders stalks, boundary-stalks and binding arrows as small pseudo
nodes, and prints valency classes both canonically and with the smallest
symmetric representative so figures can be matched by eye.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from fractions import Fraction

from .errors import InputError
from .graphs import (
    Arrow,
    BoundaryStalk,
    Edge,
    MultPlumbing,
    MultVertex,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    PlumbingTree,
    ResArrow,
    ResolutionGraph,
    ResVertex,
    Stalk,
    Vertex,
    WaldArrow,
    WaldEdge,
    WaldhausenGraph,
    WaldStalk,
    WaldVertex,
    symmetric_rep,
)

SCHEMAS = {
    ResolutionGraph: "susplink/resolution:1",
    MultPlumbing: "susplink/multiplicity:1",
    NielsenGraph: "susplink/nielsen:1",
    WaldhausenGraph: "susplink/waldhausen:1",
    PlumbingTree: "susplink/plumbing:1",
}


def frac_str(x) -> str:
    """An int or a Fraction as ``n`` or ``n/d``."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# to dict
# ---------------------------------------------------------------------------

def to_dict(graph) -> dict:
    if isinstance(graph, ResolutionGraph):
        return {
            "schema": SCHEMAS[ResolutionGraph],
            "vertices": [
                {"id": v.id, "weight": v.weight, "genus": v.genus,
                 **({"mf": v.mf, "mg": v.mg} if v.mf is not None else {})}
                for v in graph.vertices
            ],
            "edges": [[u, v] for u, v in graph.edges],
            "arrows": [{"vertex": a.vertex, "side": a.side, "mult": a.mult}
                       for a in graph.arrows],
        }
    if isinstance(graph, MultPlumbing):
        return {
            "schema": SCHEMAS[MultPlumbing],
            "vertices": [
                {"id": v.id, "weight": v.weight, "genus": v.genus,
                 "m": v.m, "flipped": v.flipped}
                for v in graph.vertices
            ],
            "edges": [{"u": e.u, "v": e.v, "sign": e.sign} for e in graph.edges],
            "arrows": [{"vertex": a.vertex, "mult": a.mult} for a in graph.arrows],
        }
    if isinstance(graph, NielsenGraph):
        return {
            "schema": SCHEMAS[NielsenGraph],
            "vertices": [
                {"id": v.id, "order": v.order, "genus": v.genus, "q": v.q}
                for v in graph.vertices
            ],
            "stalks": [{"vertex": s.vertex, "lam": s.lam, "sigma": s.sigma}
                       for s in graph.stalks],
            "boundary_stalks": [
                {"vertex": b.vertex, "lam": b.lam, "sigma": b.sigma,
                 "twist": frac_str(b.twist)}
                for b in graph.boundary_stalks
            ],
            "edges": [
                {"u": e.u, "v": e.v, "twist": frac_str(e.twist),
                 "lam_u": e.lam_u, "sigma_u": e.sigma_u,
                 "lam_v": e.lam_v, "sigma_v": e.sigma_v}
                for e in graph.edges
            ],
        }
    if isinstance(graph, WaldhausenGraph):
        return {
            "schema": SCHEMAS[WaldhausenGraph],
            "vertices": [
                {"id": v.id, "e": v.e, "genus": v.genus, "q": v.q,
                 "order": v.order}
                for v in graph.vertices
            ],
            "stalks": [{"vertex": s.vertex, "alpha": s.alpha, "beta": s.beta}
                       for s in graph.stalks],
            "arrows": [{"vertex": a.vertex, "alpha": a.alpha, "beta": a.beta}
                       for a in graph.arrows],
            "edges": [
                {"u": e.u, "v": e.v, "eps": e.eps, "alpha": e.alpha,
                 "beta_u": e.beta_u, "beta_v": e.beta_v}
                for e in graph.edges
            ],
        }
    if isinstance(graph, PlumbingTree):
        return {
            "schema": SCHEMAS[PlumbingTree],
            "vertices": [
                {"id": v.id, "weight": v.weight, "genus": v.genus,
                 **({"mult": v.mult} if v.mult is not None else {}),
                 **({"flipped": True} if v.flipped else {}),
                 **({"origin": v.origin} if v.origin else {})}
                for v in graph.vertices
            ],
            "edges": [{"u": e.u, "v": e.v, "sign": e.sign} for e in graph.edges],
            "arrows": [{"vertex": a.vertex, "mult": a.mult, "label": a.label}
                       for a in graph.arrows],
        }
    raise TypeError(f"cannot serialize {type(graph).__name__}")


def to_json(graph, indent: int | None = 2) -> str:
    return json.dumps(to_dict(graph), indent=indent)


# ---------------------------------------------------------------------------
# from dict
# ---------------------------------------------------------------------------

_JSON_TYPES = {"int": (int,), "int | None": (int, type(None)), "bool": (bool,),
               "str": (str,)}


def _objects(data: dict, key: str, required: bool = False) -> list:
    items = data.get(key, None if required else [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise InputError(f"field {key!r} must be a list of objects")
    return items


def _elements(cls, items: list, **defaults) -> tuple:
    """Graph elements from JSON objects keyed by the fields of ``cls``;
    InputError when a field without default is missing or holds a value
    of another type."""
    spec = [(f.name, defaults.get(f.name, f.default), f.type) for f in fields(cls)]
    elements = []
    for item in items:
        values = []
        for name, default, kind in spec:
            value = item.get(name, default)
            if value is MISSING:
                raise InputError(f"missing field {name!r} in {item}")
            if kind == "Fraction":
                try:
                    value = Fraction(value)
                except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                    raise InputError(f"field {name!r} must be a fraction in {item}") from None
            elif type(value) not in _JSON_TYPES[kind]:
                raise InputError(f"field {name!r} must be {kind} in {item}")
            values.append(value)
        elements.append(cls(*values))
    return tuple(elements)


def from_dict(data: dict):
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    schema = data.get("schema")
    if schema == SCHEMAS[ResolutionGraph]:
        edges = data.get("edges")
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                for e in edges):
            raise InputError("field 'edges' must be a list of [u, v] vertex id pairs")
        return ResolutionGraph(
            _elements(ResVertex, _objects(data, "vertices", True)),
            tuple((u, v) for u, v in edges),
            _elements(ResArrow, [{"mult": 1 if a.get("side") == "f" else -1, **a}
                                 for a in _objects(data, "arrows")]),
        )
    if schema == SCHEMAS[MultPlumbing]:
        return MultPlumbing(
            _elements(MultVertex, _objects(data, "vertices", True), genus=0, flipped=False),
            _elements(Edge, _objects(data, "edges", True)),
            _elements(Arrow, _objects(data, "arrows")),
        )
    if schema == SCHEMAS[NielsenGraph]:
        return NielsenGraph(
            _elements(NielsenVertex, _objects(data, "vertices", True), genus=0),
            _elements(Stalk, _objects(data, "stalks")),
            _elements(BoundaryStalk, _objects(data, "boundary_stalks")),
            _elements(NielsenEdge, _objects(data, "edges")),
        )
    if schema == SCHEMAS[WaldhausenGraph]:
        return WaldhausenGraph(
            _elements(WaldVertex, _objects(data, "vertices", True), genus=0),
            _elements(WaldStalk, _objects(data, "stalks")),
            _elements(WaldArrow, _objects(data, "arrows")),
            _elements(WaldEdge, _objects(data, "edges")),
        )
    if schema == SCHEMAS[PlumbingTree]:
        return PlumbingTree(
            _elements(Vertex, _objects(data, "vertices", True)),
            _elements(Edge, _objects(data, "edges", True)),
            _elements(Arrow, _objects(data, "arrows")),
        )
    raise InputError(f"unknown or missing schema {schema!r}")


def from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return from_dict(data)


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _valency_label(lam: int, sigma: int) -> str:
    sym = symmetric_rep(sigma, lam)
    canon = sigma % lam
    if sym != canon:
        return f"({lam},{canon}) = ({lam},{sym})"
    return f"({lam},{canon})"


def to_dot(graph, name: str = "G") -> str:
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    if isinstance(graph, (PlumbingTree, MultPlumbing)):
        for v in graph.vertices:
            parts = [str(v.weight)]
            if v.genus:
                parts.append(f"g={v.genus}")
            if isinstance(graph, MultPlumbing):
                parts.append(f"({-v.m if v.flipped else v.m})")
            elif v.mult is not None:
                parts.append(f"({v.mult})")
            lines.append(f'  v{v.id} [label="{" ".join(parts)}"];')
        for e in graph.edges:
            attr = ' [label="-1"]' if e.sign == -1 else ""
            lines.append(f"  v{e.u} -- v{e.v}{attr};")
        for i, a in enumerate(graph.arrows):
            lines.append(f'  a{i} [shape=none, label="({a.mult:+d})"];')
            lines.append(f"  v{a.vertex} -- a{i} [style=bold];")
    elif isinstance(graph, NielsenGraph):
        for v in graph.vertices:
            lines.append(f'  v{v.id} [label="[{v.order},{v.genus}] q={v.q}"];')
        for i, s in enumerate(graph.stalks):
            lines.append(f'  s{i} [shape=point, label=""];')
            lines.append(
                f'  v{s.vertex} -- s{i} [label="{_valency_label(s.lam, s.sigma)}"];')
        for i, b in enumerate(graph.boundary_stalks):
            lines.append(f'  b{i} [shape=odot, label=""];')
            lines.append(
                f'  v{b.vertex} -- b{i} '
                f'[label="{_valency_label(b.lam, b.sigma)} t={frac_str(b.twist)}"];')
        for e in graph.edges:
            lines.append(
                f'  v{e.u} -- v{e.v} [label="t={frac_str(e.twist)} '
                f'{_valency_label(e.lam_u, e.sigma_u)} | '
                f'{_valency_label(e.lam_v, e.sigma_v)}"];')
    elif isinstance(graph, WaldhausenGraph):
        for v in graph.vertices:
            lines.append(f'  v{v.id} [label="e={v.e} [g={v.genus}] q={v.q}"];')
        for i, s in enumerate(graph.stalks):
            lines.append(f'  s{i} [shape=point, label=""];')
            lines.append(f'  v{s.vertex} -- s{i} [label="({s.alpha},{s.beta})"];')
        for i, a in enumerate(graph.arrows):
            lines.append(f'  a{i} [shape=none, label=""];')
            lines.append(
                f'  v{a.vertex} -- a{i} [style=bold, label="({a.alpha},{a.beta})"];')
        for e in graph.edges:
            lines.append(
                f'  v{e.u} -- v{e.v} '
                f'[label="({e.eps:+d},{e.alpha},{e.beta_u}) | beta\'={e.beta_v}"];')
    elif isinstance(graph, ResolutionGraph):
        for v in graph.vertices:
            mult = f" ({v.mf}|{v.mg})" if v.mf is not None else ""
            lines.append(f'  v{v.id} [label="{v.weight}{mult}"];')
        for u, v in graph.edges:
            lines.append(f"  v{u} -- v{v};")
        for i, a in enumerate(graph.arrows):
            lines.append(f'  a{i} [shape=none, label="{a.side}"];')
            lines.append(f"  v{a.vertex} -- a{i} [style=bold];")
    else:
        raise TypeError(f"cannot render {type(graph).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"
