"""Negative continued fractions and mod-inverse duality for plumbing chains.

A chain of rational curves with self-intersections -b_1, ..., -b_k (b_i >= 2)
encodes the fraction

    [b_1, ..., b_k] = b_1 - 1/(b_2 - 1/(... - 1/b_k)) ,

the Hirzebruch-Jung expansion.  A Seifert pair (alpha, beta) corresponds to
the chain of alpha/(alpha - beta), and reading the same chain from the far
end gives alpha/(alpha - beta') with beta * beta' = 1 mod alpha.
"""

from __future__ import annotations

from math import gcd

from .errors import ChainDataError, InputError, excerpt


def neg_cf_expand(num: int, den: int) -> list[int]:
    """Expand num/den into the unique negative continued fraction.

    Requires 1 <= den <= num with gcd(num, den) = 1.  All entries are >= 2
    except for the corner case num = den = 1, which expands to [1].
    """
    if den <= 0:
        raise InputError(f"denominator must be positive, got {den}")
    if den > num:
        raise InputError(f"need den <= num, got {num}/{den}")
    if gcd(num, den) != 1:
        raise InputError(f"{num}/{den} is not reduced")
    entries = []
    while den > 0:
        b = -(-num // den)  # ceiling division
        entries.append(b)
        num, den = den, b * den - num
    return entries


def hj_length(num: int, den: int) -> tuple[int, int]:
    """Length k and excess s = sum(b_i - 2) of ``neg_cf_expand(num, den)``,
    1 <= den < num coprime, in O(log num) steps: num - den is fixed along a
    run of 2's, so a run of den // (num - den) of them is one step."""
    k = s = 0
    while den:
        d = num - den
        if d <= den:
            t = den // d
            k, num, den = k + t, num - t * d, den - t * d
        else:
            b = -(-num // den)
            k, s, num, den = k + 1, s + b - 2, den, b * den - num
    return k, s


def neg_cf_eval(entries) -> tuple[int, int]:
    """Evaluate [b_1, ..., b_k] exactly, returning a reduced (num, den), den > 0.

    Entries may be any integers (step 2 reads non-minimal resolutions, whose
    chain weights may be >= -1); a zero intermediate value raises ChainDataError.
    """
    entries = list(entries)
    if not entries:
        raise InputError("empty continued fraction")
    num, den = entries[-1], 1
    for b in reversed(entries[:-1]):
        if num == 0:
            raise ChainDataError(f"degenerate chain {excerpt(entries)}: zero intermediate value")
        num, den = b * num - den, num
    if den == 0:
        raise ChainDataError(f"degenerate chain {excerpt(entries)}: infinite value")
    if den < 0:
        num, den = -num, -den
    return num, den


def cf_dual(alpha: int, beta: int) -> int:
    """The unique beta' in [0, alpha) with beta * beta' = 1 mod alpha (0 if alpha = 1)."""
    if alpha < 1:
        raise InputError(f"alpha must be >= 1, got {alpha}")
    if gcd(beta, alpha) != 1:
        raise InputError(f"beta = {beta} is not invertible mod alpha = {alpha}")
    return pow(beta, -1, alpha)
