"""Exception hierarchy shared by all pipeline stages.

Every error raised by the library derives from :class:`PlumbingError` and
carries the ids of the offending graph elements when they are known, so the
command line driver can report "stage: message (elements ...)" and exit
nonzero.
"""

from __future__ import annotations

import reprlib
import sys
from math import log10


class PlumbingError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, *, elements: tuple = ()):
        super().__init__(message)
        self.elements = tuple(elements)

    def __str__(self) -> str:
        base = super().__str__()
        if self.elements:
            return f"{base} (elements: {', '.join(str(e) for e in self.elements)})"
        return base


def digits(n: int) -> int:
    """The number of decimal digits of ``n``, counted from its bit length
    without converting it to text."""
    n = abs(n)
    count = int(n.bit_length() * log10(2))
    return count + (10 ** count <= n)  # the estimate is the digit count or one less


def int_max_str_digits() -> int:
    """The most digits Python converts to text, 0 for no limit (as before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", int)()


class _Excerpt(reprlib.Repr):
    """``reprlib.repr``, but an int too long to convert to text is written
    as its digit count."""

    def repr_int(self, x, level):
        limit, count = int_max_str_digits(), digits(x)
        if limit and count > limit:
            return f"<{'a negative' if x < 0 else 'an'} integer of {count} digits>"
        return super().repr_int(x, level)


def excerpt(value) -> str:
    """The repr of ``value`` cut to its first 40 characters, for an error
    message that quotes input without growing with it; an int too long
    to convert to text is written as its digit count."""
    text = repr(value) if isinstance(value, str) else _EXCERPT.repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


_EXCERPT = _Excerpt()


class InputError(PlumbingError):
    """Malformed input text or JSON (syntax errors carry a line number)."""


class NotATreeError(PlumbingError):
    """The underlying graph is required to be a tree but is not."""


class FibrednessError(PlumbingError):
    """A node carries equal multiplicities on both sides, so the link is not fibred."""


class MonodromyError(PlumbingError):
    """Degenerate or inconsistent monodromical system."""


class ChainDataError(PlumbingError):
    """Chain data (continued fractions, multiplicities, valencies) is inconsistent."""


class NormalizationError(PlumbingError):
    """No representative choice yields a normalized integral Seifert pair."""


class BalanceError(PlumbingError):
    """Monodromical balance failure while synthesizing the plumbing tree."""


class UnsupportedError(PlumbingError):
    """Input is outside the supported family (q > 1 pieces, no node, ...)."""
