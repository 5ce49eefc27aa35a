"""Exception hierarchy shared by all pipeline stages.

Every error raised by the library derives from :class:`PlumbingError` and
carries the ids of the offending graph elements when they are known, so the
command line driver can report "stage: message (elements ...)" and exit
nonzero.
"""

from __future__ import annotations

import reprlib


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


def excerpt(value) -> str:
    """The repr of ``value`` cut to its first 40 characters, for an error
    message that quotes input without growing with it."""
    text = repr(value) if isinstance(value, str) else reprlib.repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


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
