"""Versioned JSON and DOT serialization for every pipeline graph.

JSON documents carry a ``schema`` tag ("susplink/<kind>:1"); twists and
other rationals are strings like "31/30", as ``str`` writes a Fraction, so
the documents stay exact.  Each record type gets one writer, generated from
its fields the first time it is written (``_writer``): it unpacks every
record and builds each JSON object with constant keys.
``dumps`` writes each JSON document and report byte for byte as
``json.dumps(doc, indent=2)``, which is pure Python on 3.10 and 3.11, in
half its time (ex3's r = 5 report: 360 against 720 us).  DOT output renders
stalks, boundary-stalks and binding arrows as small pseudo nodes, and prints
valency classes both canonically and with the smallest symmetric
representative so figures can be matched by eye.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import get_type_hints

from . import synthesis
from .errors import InputError, UnsupportedError, excerpt
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

# Each graph class: its schema tag, the lists a document must carry, and the
# element class of each list field in field order (None: [u, v] id pairs).
_DOCUMENTS = {
    ResolutionGraph: ("susplink/resolution:1", ("vertices", "edges"),
                      {"vertices": ResVertex, "edges": None, "arrows": ResArrow}),
    MultPlumbing: ("susplink/multiplicity:1", ("vertices", "edges"),
                   {"vertices": MultVertex, "edges": Edge, "arrows": Arrow}),
    NielsenGraph: ("susplink/nielsen:1", ("vertices",),
                   {"vertices": NielsenVertex, "stalks": Stalk,
                    "boundary_stalks": BoundaryStalk, "edges": NielsenEdge}),
    WaldhausenGraph: ("susplink/waldhausen:1", ("vertices",),
                      {"vertices": WaldVertex, "stalks": WaldStalk, "arrows": WaldArrow,
                       "edges": WaldEdge}),
    PlumbingTree: ("susplink/plumbing:1", ("vertices", "edges"),
                   {"vertices": Vertex, "edges": Edge, "arrows": Arrow}),
}


# ---------------------------------------------------------------------------
# to dict
# ---------------------------------------------------------------------------

@cache
def _writer(cls):
    """``element_dicts`` for ``cls``, generated from its fields as namedtuple
    generates its code: each record unpacked, each key a constant."""
    hints, head, tail = get_type_hints(cls), [], ""
    for name in cls._fields:
        value = {Fraction: f"_str({name})",
                 tuple[Fraction, ...]: f"[*_map(_str, {name})]"}.get(hints[name], name)
        default = cls._field_defaults.get(name, _MISSING)
        if default is None or default is False or default == "":
            test = "is not None" if default is None else f"!= {default!r}"
            tail += f"\n        if {name} {test}: _d[{name!r}] = {value}"
        elif tail:
            tail += f"\n        _d[{name!r}] = {value}"
        else:
            head.append(f"{name!r}: {value}")
    row, loop = "{" + ", ".join(head) + "}", "for " + ", ".join(cls._fields) + ", in _items"
    source = (f"def write(_items):\n    _out = []\n    {loop}:\n        _d = {row}{tail}\n"
              "        _out.append(_d)\n    return _out" if tail else
              f"def write(_items):\n    return [{row} {loop}]")
    exec(source, namespace := {"_str": str, "_map": map})
    return namespace["write"]


def element_dicts(cls, items) -> list[dict]:
    """Each of ``items``, all of record type ``cls``, as a JSON object:
    fields in record order, fractions through str, and a field left out
    while it holds its None, False or "" default."""
    return _writer(cls)(items)


def to_dict(graph) -> dict:
    if type(graph) not in _DOCUMENTS:
        raise TypeError(f"cannot serialize {type(graph).__name__}")
    tag, _, lists = _DOCUMENTS[type(graph)]
    out = {"schema": tag}
    for key, cls in lists.items():
        items = getattr(graph, key)
        out[key] = [[u, v] for u, v in items] if cls is None else element_dicts(cls, items)
    return out


def dumps(doc) -> str:
    """``doc`` (str, int, bool, None, and lists, tuples and str-keyed dicts of
    those) as ``json.dumps(doc, indent=2)`` writes it; TypeError otherwise."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(x, pad: str, out: list[str]) -> None:
    """Append the pieces of ``x``, which starts a line indented ``pad``."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        inner = pad + "  "
        sep = "{" + inner
        for key, value in x.items():
            out.append(sep + _quote(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(pad + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner = pad + "  "
        sep = "[" + inner
        for value in x:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(pad + "]" if x else "[]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def to_json(graph) -> str:
    return dumps(to_dict(graph))


# ---------------------------------------------------------------------------
# from dict
# ---------------------------------------------------------------------------

_JSON_TYPES = {int: (int,), int | None: (int, type(None)), bool: (bool,), str: (str,)}
# rationals exactly as str writes a Fraction
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


# Defaults for fields without a record default: a document may leave out
# genus and flipped, and a resolution arrow's mult follows from its side.
_READ_DEFAULTS = {"genus": 0, "flipped": False,
                  "mult": lambda item: 1 if item.get("side") == "f" else -1}
_MISSING = object()  # the read default of a required field


@cache
def _spec(cls) -> tuple:
    """Per field of ``cls``: name, read default (_MISSING when required),
    type, and the JSON types read as they are."""
    hints, defaults = get_type_hints(cls), cls._field_defaults
    return tuple((name, defaults.get(name, _READ_DEFAULTS.get(name, _MISSING)), hints[name],
                  _JSON_TYPES.get(hints[name], ())) for name in cls._fields)


def _fraction(value) -> Fraction | None:
    """An int, or a string ``n`` or ``n/d`` with d != 0, as a Fraction."""
    try:
        return Fraction(value) if type(value) is int or (
            type(value) is str and _RATIONAL.fullmatch(value)) else None
    except ValueError:  # more digits than int() converts
        return None


def _list(data: dict, key: str, cls, required: bool) -> tuple:
    """List ``key`` of ``data``: [u, v] pairs when ``cls`` is None, else
    ``cls`` elements from JSON objects keyed by its fields.  InputError on
    a key that is not a field, and when a field without default is missing
    or holds a value of another type."""
    items = data.get(key, None if required else [])
    if cls is None:
        if not isinstance(items, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                for e in items):
            raise InputError(f"field {key!r} must be a list of [u, v] vertex id pairs")
        return tuple((u, v) for u, v in items)
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise InputError(f"field {key!r} must be a list of objects")
    spec = _spec(cls)
    names = frozenset(cls._fields)
    elements = []
    for i, item in enumerate(items):
        if not item.keys() <= names:
            unknown = next(name for name in item if name not in names)
            raise InputError(f"unknown field {excerpt(unknown)} in {key}[{i}]")
        values = []
        for name, default, kind, types in spec:
            value = item.get(name, default)
            if type(value) not in types:
                if value is _MISSING:
                    raise InputError(f"missing field {name!r} in {key}[{i}]")
                if callable(value):
                    value = value(item)
                elif kind is not Fraction:
                    raise InputError(f"field {name!r} must be "
                                     f"{getattr(kind, '__name__', kind)} in {key}[{i}]")
                elif (value := _fraction(value)) is None:
                    raise InputError(f"field {name!r} must be a fraction n or n/d in {key}[{i}]")
            values.append(value)
        elements.append(cls(*values))
    return tuple(elements)


def from_dict(data: dict):
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    schema = data.get("schema")
    for graph_cls, (tag, required, lists) in _DOCUMENTS.items():
        if tag == schema:
            for key, items in data.items():  # every list counted before any record is built
                if key != "schema" and key not in lists:
                    raise InputError(f"unknown field {excerpt(key)} in the document")
                if type(items) is list and len(items) > synthesis.MAX_VERTICES:
                    raise UnsupportedError(f"the document has {len(items)} {key}, "
                                           f"more than the {synthesis.MAX_VERTICES} supported")
            return graph_cls(**{key: _list(data, key, cls, key in required)
                                for key, cls in lists.items()})
    raise InputError(f"unknown or missing schema {excerpt(schema)}")


def from_json(text: str):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: syntax, or too many digits
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


def to_dot(graph) -> str:
    lines = ["graph G {", "  node [shape=circle];"]
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
                f'[label="{_valency_label(b.lam, b.sigma)} t={b.twist!s}"];')
        for e in graph.edges:
            lines.append(
                f'  v{e.u} -- v{e.v} [label="t={e.twist!s} '
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
            rev = " reversed" if a.reversed else ""
            lines.append(
                f'  v{a.vertex} -- a{i} [style=bold, label="({a.alpha},{a.beta}){rev}"];')
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
