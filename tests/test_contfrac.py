from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from susplink.contfrac import cf_dual, neg_cf_eval, neg_cf_expand
from susplink.errors import ChainDataError, InputError


def bracket_value(entries) -> Fraction:
    """Independent oracle: evaluate b_1 - 1/(b_2 - ...) with Fractions."""
    value = Fraction(entries[-1])
    for b in reversed(entries[:-1]):
        value = b - 1 / value
    return value


def dual_by_scan(alpha, beta):
    """Independent oracle: scan 0..alpha-1 for the inverse."""
    if alpha == 1:
        return 0
    return next(x for x in range(alpha) if (beta * x) % alpha == 1)


def coprime_pairs():
    return st.tuples(st.integers(1, 200), st.integers(1, 200)).map(
        lambda t: (max(t), min(t))
    ).filter(lambda t: gcd(t[0], t[1]) == 1)


# -- expansion ---------------------------------------------------------------

def test_expand_reference_values():
    assert neg_cf_expand(3, 2) == [2, 2]
    assert neg_cf_expand(31, 25) == [2, 2, 2, 2, 7]
    assert neg_cf_expand(31, 13) == [3, 2, 3, 3]
    assert neg_cf_expand(145, 17) == [9, 3, 2, 2, 2, 2, 2, 2, 2]
    assert neg_cf_expand(29, 17) == [2, 4, 2, 3]


def test_expand_single_term():
    assert neg_cf_expand(7, 1) == [7]
    assert neg_cf_expand(1, 1) == [1]


def test_expand_rejects_bad_input():
    with pytest.raises(InputError):
        neg_cf_expand(3, 0)
    with pytest.raises(InputError):
        neg_cf_expand(2, 3)
    with pytest.raises(InputError):
        neg_cf_expand(6, 4)


# -- evaluation --------------------------------------------------------------

def test_eval_reference_values():
    assert neg_cf_eval([2, 2]) == (3, 2)
    assert neg_cf_eval([3, 2, 3, 3]) == (31, 13)
    assert neg_cf_eval([9, 3, 2, 2, 2, 2, 2, 2, 2]) == (145, 17)
    assert neg_cf_eval([5]) == (5, 1)


def test_eval_matches_fraction_oracle():
    for entries in ([2, 2, 2], [4, 3], [7, 2, 2, 2, 2], [3, 3, 3, 3]):
        num, den = neg_cf_eval(entries)
        assert Fraction(num, den) == bracket_value(entries)


def test_eval_degenerate_chain():
    # tail [1, 1] evaluates to 0, so the next step divides by zero
    with pytest.raises(ChainDataError):
        neg_cf_eval([2, 1, 1])
    with pytest.raises(ChainDataError):
        neg_cf_eval([5, 1, 1])


def test_eval_accepts_general_integers():
    # reversed / non-reduced chains are evaluated during verification
    assert neg_cf_eval([1]) == (1, 1)
    assert neg_cf_eval([0, 3]) == (-1, 3)


@given(coprime_pairs())
def test_roundtrip_expand_eval(pair):
    num, den = pair
    entries = neg_cf_expand(num, den)
    assert neg_cf_eval(entries) == (num, den)
    if den < num:
        assert all(b >= 2 for b in entries)


def test_roundtrip_exhaustive_up_to_200():
    for num in range(1, 201):
        for den in range(1, num + 1):
            if gcd(num, den) != 1:
                continue
            entries = neg_cf_expand(num, den)
            assert neg_cf_eval(entries) == (num, den)
            if den < num:
                assert all(b >= 2 for b in entries)


# -- duality -----------------------------------------------------------------

def test_dual_derived_values():
    assert cf_dual(31, 18) == 19 == dual_by_scan(31, 18)
    assert cf_dual(145, 128) == 17 == dual_by_scan(145, 128)
    assert cf_dual(31, 6) == 26 == dual_by_scan(31, 6)
    assert cf_dual(1, 0) == 0


def test_dual_rejects_noninvertible():
    with pytest.raises(InputError):
        cf_dual(6, 3)


@given(st.integers(1, 200), st.integers(0, 10**6))
def test_dual_involution(alpha, seed):
    candidates = [b for b in range(alpha) if gcd(b, alpha) == 1] or [0]
    beta = candidates[seed % len(candidates)]
    assert cf_dual(alpha, cf_dual(alpha, beta)) == beta % alpha


def test_reversal_duality():
    # reading a chain backwards swaps beta for its inverse mod alpha, for
    # every reduced pair 0 <= beta < alpha <= 200 (step 5 relies on it)
    for alpha in range(1, 201):
        for beta in range(alpha):
            if gcd(alpha, beta) == 1:
                entries = neg_cf_expand(alpha, alpha - beta)
                assert neg_cf_eval(entries[::-1]) == (alpha, alpha - cf_dual(alpha, beta))


def test_degenerate_chain_message_stays_bounded():
    """The message quotes the entries through the 40-character excerpt,
    however long the chain."""
    with pytest.raises(ChainDataError, match="zero intermediate value") as exc:
        neg_cf_eval([2] * 200 + [1, 1])
    assert len(exc.value.args[0]) < 100
    assert "[2, 2, 2, 2, 2, 2, ...]" in exc.value.args[0]
