"""The generic record writer that ``serialize.element_dicts`` replaced,
kept as the reference its generated writers must equal: one loop over the
fields of the record type, driven by its defaults and type hints."""

from fractions import Fraction
from typing import get_type_hints


def frac_str(x) -> str:
    """An int or a Fraction as ``n`` or ``n/d``."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_FRACTION_WRITERS = {Fraction: frac_str,
                     tuple[Fraction, ...]: lambda xs: [frac_str(x) for x in xs]}


def _layout(cls) -> tuple[tuple, tuple]:
    """The fields of ``cls`` left out while they hold their None, False or
    "" default, and its fraction fields with their writers."""
    hints = get_type_hints(cls)
    return (tuple((name, d) for name, d in cls._field_defaults.items()
                  if d is None or d is False or d == ""),
            tuple((name, _FRACTION_WRITERS[hints[name]]) for name in cls._fields
                  if hints[name] in _FRACTION_WRITERS))


def element_dicts(cls, items) -> list[dict]:
    """Each of ``items``, all of record type ``cls``, as a JSON object:
    fields in record order, fractions through frac_str, and a field left
    out while it holds its None, False or "" default."""
    omitted, fractions = _layout(cls)
    names = cls._fields
    out = [dict(zip(names, x)) for x in items]
    if omitted or fractions:
        for d in out:
            for name, default in omitted:
                if d[name] == default:
                    del d[name]
            for name, write in fractions:
                d[name] = write(d[name])
    return out
