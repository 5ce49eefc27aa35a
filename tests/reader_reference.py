"""The record reader that ``serialize.from_dict`` replaced, kept as the
reference its generated readers must equal: ``_list`` loops over the
fields of the record type, driven by ``_spec``, and ``from_dict`` is the
document reader around it.  Both raise the same errors in the same order
as ``serialize.from_dict``."""

import re
from fractions import Fraction
from functools import cache
from typing import get_type_hints

from susplink import synthesis
from susplink.errors import InputError, UnsupportedError, excerpt
from susplink.serialize import _DOCUMENTS

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
