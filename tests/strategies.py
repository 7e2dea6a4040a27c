"""Shared hypothesis strategies.

Series strategies stick to flat or standard truncations: both are exact
quotients (flat caps) or closed subrings (the 3e rule), so ring laws hold
on the nose and property tests need no tolerance.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from hypothesis import strategies as st

from stablemoduli.hodge import HodgePoly
from stablemoduli.partitions import partitions_of
from stablemoduli.series import SymSeries, Truncation

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
small_ints = st.integers(min_value=-5, max_value=5)


class Quarter(Fraction):
    """A subclass of Fraction, which scalars may be."""


# The scalars HodgePoly and SymSeries take in arithmetic: ints, bools and
# Fractions, subclasses included; and some they refuse with TypeError.
SCALARS = [0, 3, -2, True, False, Fraction(3, 2), Fraction(-4), Quarter(1, 4)]
REFUSED_SCALARS = [0.5, Decimal("0.5"), 1j]


def hodge_polys(max_exp: int = 3, diagonal: bool = False) -> st.SearchStrategy[HodgePoly]:
    if diagonal:
        keys = st.integers(0, max_exp).map(lambda k: (k, k))
    else:
        keys = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(keys, small_fractions, max_size=4).map(HodgePoly)


def wide_polys(max_exp: int = 3, diagonal: bool = False) -> st.SearchStrategy[HodgePoly]:
    """Polynomials with off-diagonal terms on both sides of the diagonal
    (only diagonal ones with diagonal), numerators up to 2^64 and
    denominators up to 2^20."""
    coeffs = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**20))
    if diagonal:
        keys = st.integers(0, max_exp).map(lambda k: (k, k))
    else:
        keys = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(keys, coeffs, max_size=4).map(HodgePoly)


def partitions(max_weight: int = 6) -> st.SearchStrategy[tuple[int, ...]]:
    return st.integers(0, max_weight).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def series(
    trunc: Truncation,
    min_lambda: int = 0,
    coeffs: st.SearchStrategy = small_fractions,
) -> st.SearchStrategy[SymSeries]:
    """Random series honoring the truncation, with lambda exponent at least
    min_lambda on every term (min_lambda=1 suits plethystic Exp/Log)."""
    max_w = trunc.max_weight

    def term_keys(e: int) -> st.SearchStrategy:
        return partitions(trunc.cap(e)).map(lambda rho: (e, rho))

    keys = st.integers(min_lambda, trunc.lambda_max).flatmap(term_keys)
    return st.dictionaries(keys, coeffs, max_size=5).map(
        lambda terms: SymSeries(trunc, terms)
    )


FLAT_33 = Truncation.flat(3, 3)
FLAT_08 = Truncation.flat(0, 8)
STD_3 = Truncation.standard(3)


# Strings a JSON writer must escape: quotes, backslashes, control characters
# and non-ASCII text, beside whatever hypothesis draws.
json_strings = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\n\t", "λ^0 é ☃ 𝔐"])
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | json_strings
)


def json_values(max_leaves: int = 40) -> st.SearchStrategy:
    """Nested dicts (str keys) and lists of ints, bools, None and strings,
    empty containers included."""
    return st.recursive(
        json_scalars,
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(json_strings, children, max_size=5),
        max_leaves=max_leaves,
    )
