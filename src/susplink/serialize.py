"""Versioned JSON and DOT serialization for every pipeline graph.

JSON documents carry a ``schema`` tag ("susplink/<kind>:1"); twists and
other rationals are strings like "31/30", as ``str`` writes a Fraction, so
the documents stay exact.  Each record type gets two writers, generated from
its fields the first time it is written, which leave out the same fields
(``_written_if``): ``_writer`` builds each JSON object with constant keys
for ``to_dict``, and ``_text_writer`` writes each object as one f-string
with its key text fixed for ``to_json``.  ``dumps`` is the general writer,
byte for byte ``json.dumps(doc, indent=2)`` (pure Python on 3.10 and 3.11),
and writes a graph it meets through ``to_json``.  On ex3's r = 5 run,
``to_json`` of the plumbing document takes 19 us against 86 us for
``dumps(to_dict(...))``, and the report 110 us against 265 us through
``dumps`` and 500 us through ``json.dumps`` (best of 5 x 2000 calls, Python
3.11.7, 2 cores).  ``from_dict`` reads each list of records by one reader
per record type, generated from its fields the first time it is read
(``_reader``): one ``get`` and one inline type test per field, each error
raised where the per-field loop it replaced raised it.  ``from_dict`` of
ex1's r = 3 plumbing document takes 26 us against 34 us with that loop,
and of cusp's r = 101 one, arrows kept, 44 us against 57 us (best of 7 x
3 x 1000 calls, same host).  DOT output renders stalks, boundary-stalks
and binding arrows as small pseudo nodes, and prints valency classes both
canonically and with the smallest symmetric representative so figures can
be matched by eye.
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
# to dict and to JSON text
# ---------------------------------------------------------------------------

def _written_if(cls, name: str) -> str | None:
    """The test under which field ``name`` of a ``cls`` record is written,
    None when it always is: a field is left out while it holds its None,
    False or "" default."""
    default = cls._field_defaults.get(name, _MISSING)
    if default is None:
        return f"{name} is not None"
    return f"{name} != {default!r}" if default is False or default == "" else None


def _value(name: str, hint) -> str:
    """The JSON value of field ``name``: a fraction through str."""
    return {Fraction: f"_str({name})",
            tuple[Fraction, ...]: f"[*_map(_str, {name})]"}.get(hint, name)


@cache
def _writer(cls):
    """``element_dicts`` for ``cls``, generated from its fields as namedtuple
    generates its code: each record unpacked, each key a constant."""
    hints, head, tail = get_type_hints(cls), [], ""
    for name in cls._fields:
        value, test = _value(name, hints[name]), _written_if(cls, name)
        if test:
            tail += f"\n        if {test}: _d[{name!r}] = {value}"
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


@cache
def _text_writer(cls):
    """The text of each of a list of ``cls`` records as ``to_json`` writes
    it in a document's list, generated like ``_writer``: one f-string per
    record with the text of each key fixed, an exact int, a str and a
    fraction written inline and any other value by ``dumps``."""
    hints, pieces, keys = get_type_hints(cls), [], {}
    for i, name in enumerate(cls._fields):
        hint, test = hints[name], _written_if(cls, name)
        value = (f"_quote(_str({name}))" if hint is Fraction else
                 f"{name} if _type({name}) is _int else _field({name})" if hint in (int, int | None)
                 else f"_quote({name}) if _type({name}) is _str else _field({name})" if hint is str
                 else f"_field({_value(name, hint)})")
        if test:  # a nested '-quoted f-string, as the row is "-quoted
            keys[f"_k{i}"] = f',\n      "{name}": '
            pieces.append(f"{{f'{{_k{i}}}{{{value}}}' if {test} else ''}}")
        else:
            pieces.append(f',\\n      \\"{name}\\": {{{value}}}')
    body = "".join(pieces)
    row = ('f"{{' + body[1:] + '\\n    }}"' if body.startswith(",") else
           f'_brace(f"{body}")')  # the first field may be left out
    exec(f"def write(_items):\n    return [{row} for {', '.join(cls._fields)}, in _items]",
         namespace := {"_quote": _quote, "_str": str, "_map": map, "_type": type,
                       "_int": int, "_field": _field, "_brace": _brace, **keys})
    return namespace["write"]


def _field(x) -> str:
    """``x`` as ``dumps`` writes the value of a field in a document."""
    out: list[str] = []
    _write(x, "\n      ", out)
    return "".join(out)


def _brace(fields: str) -> str:
    """The object of a record whose first field may be left out, from the
    text of its fields, each led by a comma."""
    return "{" + fields[1:] + "\n    }" if fields else "{}"


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


def to_json(graph) -> str:
    """``dumps(to_dict(graph))``, written without the dict: each list of
    records by its record type's generated text writer.  A value that
    cannot be written raises what ``dumps(to_dict(graph))`` raises, which
    converts every fraction before it writes any value."""
    if type(graph) not in _DOCUMENTS:
        raise TypeError(f"cannot serialize {type(graph).__name__}")
    tag, _, lists = _DOCUMENTS[type(graph)]
    out = ['{\n  "schema": ', _quote(tag)]
    try:
        for key, cls in lists.items():
            items = getattr(graph, key)
            out.append(f',\n  "{key}": ')
            if cls is None:
                _write([[u, v] for u, v in items], "\n  ", out)
            elif items:
                out += "[\n    ", ",\n    ".join(_text_writer(cls)(items)), "\n  ]"
            else:
                out.append("[]")
    except (TypeError, ValueError):
        dumps(to_dict(graph))
        raise
    out.append("\n}")
    return "".join(out)


def dumps(doc) -> str:
    """``doc`` (str, int, bool, None, graphs, and lists, tuples and str-keyed
    dicts of those) as ``json.dumps(doc, indent=2)`` writes it, a graph as
    its ``to_dict``; TypeError otherwise."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(x, pad: str, out: list[str]) -> None:
    """Append the pieces of ``x``, which starts a line indented ``pad``.  A
    graph is its ``to_json`` text indented by ``pad``: exact, since that
    text holds no newline inside a string."""
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
    elif type(x) in _DOCUMENTS:
        out.append(to_json(x).replace("\n", pad))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


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


def _field_value(item: dict, name: str, value, kind, key: str, i: int):
    """Field ``name`` of ``item``, element ``i`` of list ``key``, whose
    value ``value`` (its read default when the field is left out) is not of
    a JSON type read as it is: the read default's value for ``item``, or
    the Fraction it writes.  InputError when the field is missing or holds
    a value of another type."""
    if value is _MISSING:
        raise InputError(f"missing field {name!r} in {key}[{i}]")
    if callable(value):
        return value(item)
    if kind is not Fraction:
        raise InputError(f"field {name!r} must be "
                         f"{getattr(kind, '__name__', kind)} in {key}[{i}]")
    if (value := _fraction(value)) is None:
        raise InputError(f"field {name!r} must be a fraction n or n/d in {key}[{i}]")
    return value


@cache
def _reader(cls):
    """The ``cls`` elements of a list of JSON objects, generated from
    ``_spec(cls)`` as ``_writer`` is from the fields: per field one ``get``
    and one inline test of its JSON types, a value that fails it through
    ``_field_value``, and each element built by ``tuple.__new__``."""
    body, namespace = [], {"_cls": cls, "_names": frozenset(cls._fields), "_new": tuple.__new__,
                           "_type": type, "_int": int, "_bool": bool, "_str": str,
                           "_field_value": _field_value, "_unknown": _unknown}
    for j, (name, default, kind, types) in enumerate(_spec(cls)):
        namespace[f"_d{j}"], namespace[f"_k{j}"] = default, kind
        fix = f"{name} = _field_value(_item, {name!r}, {name}, _k{j}, _key, _i)"
        test = " and ".join(f"{name} is not None" if t is type(None) else
                            f"_type({name}) is not _{t.__name__}" for t in types)
        body += [f"{name} = _get({name!r}, _d{j})", f"if {test}: {fix}" if test else fix]
    source = ("def read(_items, _key):\n"
              "    _out = []\n"
              "    for _i, _item in enumerate(_items):\n"
              "        if not _item.keys() <= _names: _unknown(_item, _names, _key, _i)\n"
              "        _get = _item.get\n"
              + "".join(f"        {line}\n" for line in body)
              + f"        _out.append(_new(_cls, ({', '.join(cls._fields)},)))\n"
              "    return tuple(_out)")
    exec(source, namespace)
    return namespace["read"]


def _unknown(item: dict, names: frozenset, key: str, i: int):
    """InputError on the first key of ``item`` that is not in ``names``."""
    unknown = next(name for name in item if name not in names)
    raise InputError(f"unknown field {excerpt(unknown)} in {key}[{i}]")


def _list(data: dict, key: str, cls, required: bool) -> tuple:
    """List ``key`` of ``data``: [u, v] pairs when ``cls`` is None, else
    ``cls`` elements from JSON objects keyed by its fields, read by
    ``_reader(cls)``.  InputError on a key that is not a field, and when a
    field without default is missing or holds a value of another type."""
    items = data.get(key, None if required else [])
    if cls is None:
        if not isinstance(items, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                for e in items):
            raise InputError(f"field {key!r} must be a list of [u, v] vertex id pairs")
        return tuple((u, v) for u, v in items)
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise InputError(f"field {key!r} must be a list of objects")
    return _reader(cls)(items, key)


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
