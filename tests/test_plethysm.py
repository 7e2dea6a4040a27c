from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemoduli.errors import PreconditionError
from stablemoduli.plethysm import (
    GluingMode,
    exp_gluing,
    gluing_operator,
    plethystic_exp,
    plethystic_log,
)
from stablemoduli.series import SymSeries, Truncation, complete_homogeneous, schur

from oracles import gluing_by_derivatives
from strategies import FLAT_33, STD_3, series, small_fractions

HALF = Fraction(1, 2)


def lift(f, trunc, e):
    return f.with_truncation(trunc, lambda_shift=e)


def test_exp_requires_zero_constant_term():
    with pytest.raises(PreconditionError):
        plethystic_exp(SymSeries.constant(STD_3, 1))


def test_log_requires_constant_term_one():
    with pytest.raises(PreconditionError):
        plethystic_log(SymSeries.zero(STD_3))


def test_exp_of_lambda_p1_lists_homogeneous_functions():
    # Exp of lambda p_1 stacks h_k at lambda^k; the Adams terms are what
    # distinguish this from the ordinary exponential.
    trunc = Truncation.flat(4, 4)
    f = SymSeries(trunc, {(1, (1,)): 1})
    e = plethystic_exp(f)
    for k in range(0, 5):
        expected = (
            SymSeries.constant(trunc, 1)
            if k == 0
            else lift(complete_homogeneous(k, trunc), trunc, k)
        )
        assert e.lambda_component(k) == expected.lambda_component(k)


@given(series(STD_3, min_lambda=1, coeffs=small_fractions))
@settings(max_examples=60)
def test_plethystic_log_inverts_exp(f):
    assert plethystic_log(plethystic_exp(f)) == f


@given(
    series(STD_3, min_lambda=1, coeffs=small_fractions),
    series(STD_3, min_lambda=1, coeffs=small_fractions),
)
@settings(max_examples=40)
def test_plethystic_exp_turns_sums_into_products(f, g):
    assert plethystic_exp(f + g) == plethystic_exp(f) * plethystic_exp(g)


def test_gluing_on_three_point_class():
    # Differentiating the degree-3 Schur class: (1/2) d^2/dp1^2 + d/dp2 on
    # (p1^3 + 3 p1 p2 + 2 p3)/6 gives p1/2 + p1/2 = p1.  Geometrically this
    # is the boundary class obtained by gluing two of the three points.
    trunc = Truncation.standard(2)
    f = lift(schur((3,), Truncation.flat(0, 3)), trunc, 1)
    graded = gluing_operator(f, GluingMode.GRADED)
    assert graded == SymSeries(trunc, {(1, (1,)): 1})
    literal = gluing_operator(f, GluingMode.LITERAL)
    # the printed form of the operator carries lambda^2k, landing at lambda^3
    trunc3 = Truncation.standard(3)
    f3 = lift(schur((3,), Truncation.flat(0, 3)), trunc3, 1)
    assert gluing_operator(f3, GluingMode.LITERAL) == SymSeries(trunc3, {(3, (1,)): 1})
    # within lambda_max 2 the literal image is truncated away entirely
    assert not literal


def test_gluing_on_four_point_class():
    # Hand-differentiated value on the degree-4 homogeneous class:
    # (1/2)d1^2 + d2 contribute (p1^2+p2)/4 each, d2^2 and d4 contribute 1/4 each.
    trunc = Truncation.standard(2)
    f = lift(complete_homogeneous(4, Truncation.flat(0, 4)), trunc, 2)
    result = gluing_operator(f, GluingMode.GRADED)
    expected = SymSeries(
        trunc, {(2, (1, 1)): HALF, (2, (2,)): HALF, (2, ()): HALF}
    )
    assert result == expected


@given(
    series(STD_3, coeffs=small_fractions),
    series(STD_3, coeffs=small_fractions),
)
@settings(max_examples=40)
def test_gluing_operator_is_linear(f, g):
    for mode in GluingMode:
        assert gluing_operator(f + g, mode) == gluing_operator(f, mode) + gluing_operator(g, mode)


@given(st.sampled_from([FLAT_33, STD_3]).flatmap(series), st.sampled_from(GluingMode))
@settings(max_examples=80)
def test_gluing_operator_matches_derivative_oracle(f, mode):
    assert gluing_operator(f, mode) == gluing_by_derivatives(f, mode)


def test_exp_gluing_terminates_and_matches_partial_sums():
    trunc = Truncation.standard(2)
    f = lift(schur((3,), Truncation.flat(0, 3)), trunc, 1)
    total = exp_gluing(f, GluingMode.GRADED)
    # Delta f = lambda p1, Delta^2 f = 0
    assert total == f + SymSeries(trunc, {(1, (1,)): 1})


def test_exp_gluing_fixes_constants():
    c = SymSeries.constant(STD_3, 5)
    assert exp_gluing(c, GluingMode.GRADED) == c
    assert exp_gluing(SymSeries.zero(STD_3), GluingMode.GRADED) == SymSeries.zero(STD_3)


@given(series(STD_3, coeffs=small_fractions))
@settings(max_examples=30)
def test_exp_gluing_agrees_with_series_definition(f):
    # Sum Delta^m f / m! with the division done at the end of each power,
    # not folded into the iteration.
    from math import factorial

    total = f
    power = f
    m = 1
    while True:
        power = gluing_operator(power, GluingMode.GRADED)
        if not power:
            break
        total = total + power * Fraction(1, factorial(m))
        m += 1
    assert exp_gluing(f, GluingMode.GRADED) == total
