from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablemoduli.cli import MAX_TRUNCATION
from stablemoduli.errors import PreconditionError
from stablemoduli.hodge import HodgePoly, Packing
from stablemoduli.partitions import count_partitions_up_to, partitions_of
from stablemoduli.plethysm import (
    GluingMode,
    _Codes,
    adams_sum,
    closed_moduli_series,
    exp_gluing,
    gluing_operator,
    mobius_adams_sum,
    plethystic_exp,
    plethystic_log,
)
from stablemoduli.series import (
    SymSeries,
    Truncation,
    complete_homogeneous,
    log_series,
    schur,
)

from oracles import (
    adams_sum_by_series,
    code_key,
    decoded,
    flow_parts,
    gluing_by_derivatives,
    lambda_component,
)
from strategies import FLAT_08, FLAT_33, STD_3, hodge_polys, series, small_fractions, wide_polys

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
        assert lambda_component(e, k) == lambda_component(expected, k)


@given(
    st.sampled_from([STD_3, FLAT_33, FLAT_08]).flatmap(
        lambda trunc: series(trunc, coeffs=hodge_polys(max_exp=2))
    )
)
@example(
    SymSeries(
        FLAT_33,
        {
            (0, ()): HodgePoly({(1, 0): 2}),
            (0, (1,)): HodgePoly({(0, 1): HALF, (1, 1): -1}),
            (1, (2, 1)): HodgePoly({(2, 0): Fraction(-1, 3)}),
            (1, (1,)): HodgePoly({(0, 2): 1}),
        },
    )
)
@settings(max_examples=80, deadline=None)
def test_adams_sum_is_the_sum_of_series_adams_operations(f):
    # terms at lambda^0 (the constant included), off-diagonal coefficients,
    # and images that land on one key from different k
    assert adams_sum(f) == adams_sum_by_series(f)


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


# -- the gluing recursion ------------------------------------------------------------


def flow_sum(f, mode=GluingMode.GRADED):
    """W, the sum of the parts of the gluing recursion on adams_sum(f)."""
    total = SymSeries.zero(f.trunc)
    for part in flow_parts(adams_sum(f), mode):
        total = total + part
    return total


def assert_recursion_is_the_reference(f, mode):
    """The recursion's W is log(exp(Delta) Exp f), and the closed series,
    its Moebius-Adams sum formed on packed ints, is Log exp(Delta) Exp f."""
    log = log_series(exp_gluing(plethystic_exp(f), mode))
    assert flow_sum(f, mode) == log
    assert decoded(closed_moduli_series(f, mode)) == mobius_adams_sum(log)


@given(series(STD_3, min_lambda=1, coeffs=hodge_polys(max_exp=2)))
@settings(max_examples=60, deadline=None)
def test_gluing_recursion_is_the_log_of_the_glued_exp(f):
    for mode in GluingMode:
        assert_recursion_is_the_reference(f, mode)


@given(series(STD_3, min_lambda=1, coeffs=wide_polys(max_exp=2)))
@settings(max_examples=25, deadline=None)
def test_gluing_recursion_on_wide_coefficients(f):
    # off-diagonal both ways, numerators up to 2^64, denominators up to 2^20
    for mode in GluingMode:
        assert_recursion_is_the_reference(f, mode)


def test_gluing_recursion_widens_and_repacks(monkeypatch):
    widened = []
    original = Packing.widened

    def spy(packing, bound):
        widened.append((packing.bits, bound.bit_length()))
        return original(packing, bound)

    monkeypatch.setattr(Packing, "widened", spy)
    f = SymSeries(
        STD_3,
        {
            (1, (1, 1, 1)): HodgePoly({(0, 1): 2**64 - 1, (1, 0): Fraction(1, 2**20 - 3)}),
            (1, (2, 1)): HodgePoly({(1, 1): Fraction(-(2**63), 7)}),
            (2, (2, 2)): HodgePoly({(2, 0): 3, (0, 2): Fraction(5, 2**19)}),
        },
    )
    for mode in GluingMode:
        widened.clear()
        assert_recursion_is_the_reference(f, mode)
        # the parts outgrow the width they start at, and every part is
        # repacked each time
        assert widened and all(bits <= need for bits, need in widened)


def test_gluing_flow_on_the_three_point_class():
    # W_0 = s_3 at lambda^1 and W_1 = Delta W_0 = lambda p_1 (see the
    # operator test above); every product of derivatives lands at lambda^2,
    # past the bound, and Delta p_1 = 0, so nothing follows.
    trunc = Truncation.standard(1)
    f = lift(schur((3,), Truncation.flat(0, 3)), trunc, 1)
    parts = flow_parts(f)
    assert parts[0] == f
    assert parts[1] == SymSeries(trunc, {(1, (1,)): 1})
    assert not any(parts[2:])


def test_gluing_flow_refuses_terms_past_the_3e_rule():
    # a term of weight 4 at lambda^1
    with pytest.raises(PreconditionError):
        flow_parts(SymSeries(Truncation.flat(2, 6), {(1, (2, 2)): 1}))
    # a weight cap below 3e
    with pytest.raises(PreconditionError):
        flow_parts(SymSeries(Truncation.flat(2, 4), {(1, (1,)): 1}))
    with pytest.raises(PreconditionError):
        closed_moduli_series(SymSeries.constant(STD_3, 1))


@pytest.mark.parametrize(
    "top,terms",
    [
        (4, {(2, ()): {(1, 1): Fraction(1, 3)}, (1, ()): {(1, 0): Fraction(-2, 3)}}),
        (6, {(1, ()): {(1, 0): Fraction(-1, 3)}, (3, ()): {(0, 1): 2, (0, 2): -1}}),
    ],
)
def test_closed_series_widens_for_the_moebius_sum(top, terms):
    # With no power sums nothing glues, so Log exp(Delta) Exp f = f.  The
    # terms of W = adams_sum(f) fit in a few bits, but psi_k of the
    # lambda^1 term lands on another term, over lcm(2, 3, ...) times W's
    # denominator, and that sum needs wider digits.
    f = SymSeries(Truncation.standard(top), {key: HodgePoly(c) for key, c in terms.items()})
    for mode in GluingMode:
        assert decoded(closed_moduli_series(f, mode)) == f
        assert_recursion_is_the_reference(f, mode)


@given(series(STD_3, min_lambda=1, coeffs=small_fractions))
@settings(max_examples=30, deadline=None)
def test_gluing_flow_parts_sum_to_the_glued_log(f):
    # the packed Moebius-Adams sum of the parts is the series one
    assert decoded(closed_moduli_series(f)) == mobius_adams_sum(flow_sum(f))


# -- the codes of the recursion's terms -------------------------------------------


def test_codes_round_trip_every_partition_within_the_largest_truncation():
    # every partition the 3e rule allows at lambda^L, each at a lambda
    # exponent that runs through 0..L in turn, so every exponent meets
    # partitions of every weight
    top = MAX_TRUNCATION
    codes = _Codes(top)
    assert (codes.ebits, codes.fbits) == (4, 6)
    i = 0
    for w in range(3 * top + 1):
        for rho in partitions_of(w):
            e = i % (top + 1)
            assert code_key(codes, codes.encode(e, rho)) == (e, rho)
            i += 1
    assert i == count_partitions_up_to(3 * top) == 99133


def test_gluing_recursion_fills_a_multiplicity_field():
    # At L = 5 a field has (15).bit_length() = 4 bits; p_1^15 at lambda^5
    # fills the field of part 1, and p_3^5 reaches the top weight 3L with a
    # larger part, next to terms whose products and Adams images land there.
    trunc = Truncation.standard(5)
    assert _Codes(5).fbits == 4
    f = SymSeries(
        trunc,
        {
            (5, (1,) * 15): 1,
            (5, (3,) * 5): Fraction(-2, 3),
            (1, (1, 1, 1)): HodgePoly({(1, 1): 1, (0, 0): 1}),
            (2, (2, 2, 2)): HodgePoly({(2, 0): 1, (0, 2): -1}),
        },
    )
    for mode in GluingMode:
        assert_recursion_is_the_reference(f, mode)
