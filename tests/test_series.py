from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemoduli.dataset import dataset_text
from stablemoduli.errors import PreconditionError
from stablemoduli.exprlang import evaluate, parse_table, render_table
from stablemoduli.hodge import HodgePoly, Packing
from stablemoduli.partitions import partitions_of
from stablemoduli.series import (
    SymSeries,
    Truncation,
    complete_homogeneous,
    exp_series,
    linear_combination,
    log_series,
    power_sum,
    schur,
)

from oracles import (
    exp_by_powers,
    homogeneous_p_expansion,
    hook_length_count,
    lambda_component,
    log_by_powers,
    schur_jacobi_trudi,
    weights_at,
)
from strategies import (
    FLAT_08,
    FLAT_33,
    REFUSED_SCALARS,
    SCALARS,
    STD_3,
    hodge_polys,
    series,
    small_fractions,
)

T8 = FLAT_08
HALF = Fraction(1, 2)


def P(rho, trunc=T8, e=0):
    return SymSeries(trunc, {(e, tuple(rho)): 1})


# -- truncation ---------------------------------------------------------------------


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(-1, ())
    with pytest.raises(ValueError):
        Truncation(1, (0,))
    with pytest.raises(ValueError):
        Truncation(1, (3, 2))
    with pytest.raises(ValueError):
        Truncation(0, (-1,))


def test_truncations_with_equal_bounds_are_equal_and_hash_alike():
    a, b = Truncation.flat(1, 3), Truncation.flat(1, 3)
    assert a == b and a is not b and hash(a) == hash(b) and {a: 0}[b] == 0
    assert a == Truncation(1, (3, 3)) and (a.lambda_max, a.weight_caps) == (1, (3, 3))
    assert a != Truncation.flat(1, 4) and a != Truncation.standard(1) and a != (1, (3, 3))


def test_truncation_families():
    std = Truncation.standard(5)
    assert std.weight_caps == (0, 3, 6, 9, 12, 15)
    assert std.cap(2) == 6
    assert std.admits(2, 6) and not std.admits(2, 7) and not std.admits(6, 1)
    flat = Truncation.flat(2, 4)
    assert flat.weight_caps == (4, 4, 4)
    assert flat.weight_caps[-1] == 4


def test_construction_respects_truncation():
    s = SymSeries(Truncation.standard(2), {(1, (2,)): 1, (1, (4,)): 1, (3, (1,)): 1})
    assert s.coefficient(1, (2,)) == 1
    assert not s.coefficient(1, (4,))  # weight 4 > cap 3
    assert not s.coefficient(3, (1,))  # lambda beyond bound
    with pytest.raises(PreconditionError):
        SymSeries(T8, {(0, (1, 2)): 1})


def test_canonical_term_order():
    s = SymSeries(
        Truncation.flat(1, 4),
        {(0, (2, 2)): 1, (0, (3,)): 1, (1, (1,)): 1, (0, (2, 1, 1)): 1},
    )
    keys = [key for key, _ in s.items()]
    assert keys == [(0, (3,)), (0, (2, 2)), (0, (2, 1, 1)), (1, (1,))]


# -- ring laws -----------------------------------------------------------------------


@given(series(FLAT_33), series(FLAT_33), series(FLAT_33))
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == SymSeries.zero(FLAT_33)


def test_truncation_mismatch_rejected():
    with pytest.raises(PreconditionError):
        SymSeries.constant(T8, 1) + SymSeries.constant(FLAT_33, 1)


def test_pow():
    p1 = P((1,))
    assert p1**0 == SymSeries.constant(T8, 1)
    assert p1**3 == p1 * p1 * p1
    with pytest.raises(PreconditionError):
        p1 ** (-1)


def test_scale_and_scalar_mul():
    s = P((2,))
    assert s.scale(HodgePoly.q()) == s * HodgePoly.q()
    assert 2 * s == s + s


def test_scalar_zero_gives_canonical_zero():
    s = SymSeries(FLAT_33, {(1, (2,)): HodgePoly.q(), (0, ()): 1})
    for zero in (s * 0, 0 * s, s.scale(Fraction(0)), s.scale(HodgePoly.zero())):
        assert zero == SymSeries.zero(FLAT_33)
        assert len(zero) == 0


def test_int_scalar_keeps_fraction_coefficients():
    s = SymSeries(FLAT_33, {(1, (2, 1)): HodgePoly.u() + 2, (0, (1,)): HALF})
    tripled = s * 3
    assert all(
        type(c) is Fraction for _, coeff in tripled.items() for _, c in coeff.items()
    )
    assert tripled.coefficient(1, (2, 1)).is_integral()
    assert not tripled.coefficient(0, (1,)).is_integral()
    assert tripled.to_json_obj() == [
        {"lambda": 0, "p": [1], "coeff": {"u^0 v^0": "3/2"}},
        {"lambda": 1, "p": [2, 1], "coeff": {"u^0 v^0": "6", "u^1 v^0": "3"}},
    ]


@pytest.mark.parametrize("c", SCALARS, ids=repr)
def test_int_bool_and_fraction_scalars_of_a_series(c):
    terms = {(1, (2, 1)): {(1, 0): Fraction(1), (0, 0): Fraction(2)}, (0, (1,)): {(0, 0): HALF}}
    s = SymSeries(FLAT_33, {key: HodgePoly(coeff) for key, coeff in terms.items()})
    scaled = SymSeries(
        FLAT_33,
        {key: HodgePoly({ij: x * Fraction(c) for ij, x in coeff.items()}) for key, coeff in terms.items()},
    )
    assert s * c == c * s == s.scale(c) == scaled
    assert SymSeries(FLAT_33, {(0, (1,)): c}) == SymSeries(
        FLAT_33, {(0, (1,)): HodgePoly({(0, 0): Fraction(c)})}
    )
    assert SymSeries.constant(FLAT_33, c).constant_term() == c
    assert len(s * c) == (2 if c else 0)


@pytest.mark.parametrize("c", REFUSED_SCALARS, ids=repr)
def test_float_decimal_and_complex_scalars_of_a_series_are_refused(c):
    s = P((2,))
    with pytest.raises(TypeError):
        s * c
    with pytest.raises(TypeError):
        c * s


@pytest.mark.parametrize("c", [*REFUSED_SCALARS, "1/3"], ids=repr)
def test_series_constructors_refuse_what_arithmetic_refuses(c):
    with pytest.raises(TypeError):
        SymSeries(FLAT_33, {(0, (1,)): c})
    with pytest.raises(TypeError):
        SymSeries.constant(FLAT_33, c)


@given(series(FLAT_33, coeffs=hodge_polys(2)), st.one_of(small_fractions, st.integers(-3, 3)))
@settings(max_examples=40)
def test_scalar_product_matches_constant_product(s, c):
    assert s * c == s * SymSeries.constant(FLAT_33, c) == c * s


# -- graded structure ------------------------------------------------------------------


def test_weights_and_lambda_component():
    s = SymSeries(FLAT_33, {(1, (2,)): 1, (1, (1,)): 2, (2, (2, 1)): 1})
    assert weights_at(s, 1) == {1, 2}
    assert lambda_component(s, 2) == SymSeries(FLAT_33, {(2, (2, 1)): 1})


def test_with_truncation_shift():
    entry = SymSeries(Truncation.flat(0, 3), {(0, (3,)): 1, (0, (2, 1)): 2})
    shifted = entry.with_truncation(Truncation.standard(2), lambda_shift=1)
    assert shifted.coefficient(1, (3,)) == 1
    assert shifted.coefficient(1, (2, 1)) == 2
    dropped = entry.with_truncation(Truncation.standard(1), lambda_shift=2)
    assert not dropped


# -- operations ----------------------------------------------------------------------


def test_adams_examples():
    s = SymSeries(Truncation.standard(4), {(1, (2, 1)): HodgePoly.u()})
    psi = s.adams(2)
    assert psi.coefficient(2, (4, 2)) == HodgePoly.u() ** 2
    with pytest.raises(PreconditionError):
        s.adams(0)


@given(series(FLAT_33), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40)
def test_adams_composition(s, k, l):
    assert s.adams(k).adams(l) == s.adams(k * l)


def test_diff_p():
    s = P((2, 2, 1))
    assert s.diff_p(2) == 2 * P((2, 1))
    assert s.diff_p(1) == P((2, 2))
    assert not s.diff_p(3)
    with pytest.raises(PreconditionError):
        s.diff_p(0)


@given(series(FLAT_08, coeffs=st.integers(-3, 3)), series(FLAT_08, coeffs=st.integers(-3, 3)), st.integers(1, 4))
@settings(max_examples=40)
def test_diff_p_leibniz(f, g, k):
    # restrict to weights <= 4 so products stay within the flat cap of 8
    f = SymSeries(FLAT_08, {key: c for key, c in f._terms.items() if sum(key[1]) <= 4})
    g = SymSeries(FLAT_08, {key: c for key, c in g._terms.items() if sum(key[1]) <= 4})
    assert (f * g).diff_p(k) == f.diff_p(k) * g + f * g.diff_p(k)


# -- exp and log -----------------------------------------------------------------------


def test_exp_log_preconditions():
    with pytest.raises(PreconditionError):
        exp_series(SymSeries.constant(T8, 1))
    with pytest.raises(PreconditionError):
        log_series(SymSeries.constant(T8, 2))
    with pytest.raises(PreconditionError):
        log_series(SymSeries.zero(T8))


def test_exp_example():
    e = exp_series(P((1,)))
    assert e.coefficient(0, ()) == 1
    assert e.coefficient(0, (1,)) == 1
    assert e.coefficient(0, (1, 1)) == HALF
    assert e.coefficient(0, (1,) * 3) == Fraction(1, 6)


@given(series(FLAT_33, min_lambda=1))
@settings(max_examples=60)
def test_log_inverts_exp(f):
    assert log_series(exp_series(f)) == f


@given(series(FLAT_33, min_lambda=1), series(FLAT_33, min_lambda=1))
@settings(max_examples=40)
def test_exp_turns_sums_into_products(f, g):
    assert exp_series(f + g) == exp_series(f) * exp_series(g)


@pytest.mark.parametrize("trunc", [FLAT_33, FLAT_08, STD_3], ids=["flat33", "flat08", "std3"])
@given(data=st.data())
@settings(max_examples=40)
def test_exp_log_match_power_series_oracle(trunc, data):
    # lambda^0 terms of positive weight are drawn too (flat truncations)
    f = data.draw(series(trunc, coeffs=st.one_of(small_fractions, hodge_polys(2))))
    f = f - SymSeries.constant(trunc, f.constant_term())
    assert exp_series(f) == exp_by_powers(f)
    g = SymSeries.constant(trunc, 1) + f
    assert log_series(g) == log_by_powers(g)


# -- basis elements ---------------------------------------------------------------------


def test_power_sum_and_errors():
    assert power_sum(3, T8) == P((3,))
    with pytest.raises(PreconditionError):
        power_sum(0, T8)
    with pytest.raises(PreconditionError):
        complete_homogeneous(0, T8)


def test_h_examples():
    assert complete_homogeneous(1, T8) == P((1,))
    h2 = complete_homogeneous(2, T8)
    assert h2 == HALF * (P((1, 1)) + P((2,)))
    h3 = complete_homogeneous(3, T8)
    expected = (
        Fraction(1, 6) * P((1, 1, 1)) + HALF * P((2, 1)) + Fraction(1, 3) * P((3,))
    )
    assert h3 == expected


def test_h_matches_cycle_type_oracle():
    for n in range(1, 8):
        h = complete_homogeneous(n, T8)
        expected = homogeneous_p_expansion(n)
        assert {rho: c.coefficient(0, 0) for (_, rho), c in h._terms.items()} == expected


def test_newton_identity():
    # n h_n equals the sum of p_k h_{n-k} for k = 1..n
    for n in range(1, 8):
        lhs = n * complete_homogeneous(n, T8)
        rhs = SymSeries.zero(T8)
        for k in range(1, n + 1):
            hk = (
                SymSeries.constant(T8, 1)
                if k == n
                else complete_homogeneous(n - k, T8)
            )
            rhs = rhs + power_sum(k, T8) * hk
        assert lhs == rhs


def test_schur_examples():
    assert schur((1, 1), T8) == HALF * (P((1, 1)) - P((2,)))
    assert schur((2,), T8) == HALF * (P((1, 1)) + P((2,)))
    assert schur((3,), T8) == complete_homogeneous(3, T8)
    s21 = schur((2, 1), T8)
    assert s21 == Fraction(1, 3) * (P((1, 1, 1)) - P((3,)))


T10 = Truncation.flat(0, 10)


def test_schur_routes_agree():
    # equality of series compares numerators and denominators as stored, so
    # this also pins the canonical form of every coefficient schur builds
    for n in range(0, 11):
        for mu in partitions_of(n):
            assert schur(mu, T10) == schur_jacobi_trudi(mu, T10), mu


# An item of linear_combination: a sign, a scale and a value, which is a
# series, None (the constant 1) or a partition (its Schur function).
_items = st.tuples(
    st.sampled_from([1, -1]),
    hodge_polys(2),
    st.one_of(st.none(), st.sampled_from([*partitions_of(2), *partitions_of(3), (4,), ()]),
              series(FLAT_33, coeffs=hodge_polys(2))),
)


def _item_as_series(sign, scale, value):
    if value is None:
        value = SymSeries.constant(FLAT_33, 1)
    elif not isinstance(value, SymSeries):
        value = schur_jacobi_trudi(value, FLAT_33)
    return value.scale(scale * sign)


@given(st.lists(_items, max_size=5))
@settings(max_examples=60)
def test_linear_combination_is_the_sum_of_its_items(items):
    total = SymSeries.zero(FLAT_33)
    for item in items:
        total = total + _item_as_series(*item)
    assert linear_combination(FLAT_33, items) == total
    for c in linear_combination(FLAT_33, items)._terms.values():
        assert c and c._den > 0 and gcd(c._den, *c._terms.values()) == 1


def test_linear_combination_cases():
    q = HodgePoly.q()
    s2, s11 = schur((2,), T8), schur((1, 1), T8)
    assert linear_combination(T8, [(1, q, (2,)), (-1, q, (1, 1))]) == (s2 - s11).scale(q)
    # a sum that cancels, and a partition past the truncation, leave nothing
    assert not linear_combination(T8, [(1, q, (2,)), (-1, q, s2), (1, q, (9,))])
    assert not linear_combination(T8, [(1, HodgePoly.zero(), (2,))])
    assert linear_combination(T8, []) == SymSeries.zero(T8)
    # the constant 1, over a denominator of its own
    half = HodgePoly.const(HALF)
    assert linear_combination(T8, [(1, half, None), (-1, q, None), (1, 1 + q, (1,))]) == (
        SymSeries.constant(T8, half - q) + schur((1,), T8).scale(1 + q)
    )
    with pytest.raises(PreconditionError, match="truncations do not match"):
        linear_combination(T8, [(1, q, P((1,), FLAT_33))])


def test_schur_coefficients_are_reduced_over_a_positive_denominator():
    for n in range(0, 11):
        for mu in partitions_of(n):
            for (e, rho), c in schur(mu, T10)._terms.items():
                assert e == 0 and sum(rho) == n and c
                assert list(c._terms) == [(0, 0)]
                assert c._den > 0 and gcd(c._den, c._terms[(0, 0)]) == 1, (mu, rho)


@pytest.mark.parametrize("mu", [(1,), (2, 1), (3, 3), (4, 1, 1, 1)])
def test_schur_past_a_flat_cap_is_zero(mu):
    for cap in range(sum(mu)):
        trunc = Truncation.flat(2, cap)
        assert schur(mu, trunc) == SymSeries.zero(trunc)
    assert schur(mu, Truncation.flat(2, sum(mu)))


def test_h_equals_the_one_row_schur_function():
    for n in range(1, 11):
        assert complete_homogeneous(n, T10) == schur((n,), T10)


@pytest.mark.parametrize(
    "mu, conj",
    [
        ((1,) * 20, (20,)),
        ((2,) * 15, (15, 15)),
        ((7, 6, 5, 4, 3, 2, 1, 1, 1), (9, 6, 5, 4, 3, 2, 1)),
        ((10, 10, 10), (3,) * 10),
        ((8, 7, 6, 5, 3, 1), (6, 5, 5, 4, 4, 3, 2, 1)),
    ],
)
def test_tall_shapes_against_their_conjugates(mu, conj):
    # omega(s_mu) = s_mu' and omega(p_rho) = (-1)^(|rho| - l(rho)) p_rho
    n = sum(mu)
    trunc = Truncation.flat(0, n)
    s_mu, s_conj = schur(mu, trunc), schur(conj, trunc)
    assert s_mu.rank(0, n) == hook_length_count(mu)
    assert s_conj.rank(0, n) == hook_length_count(conj)
    signed = {(0, rho): (-1) ** (n - len(rho)) * c for (_, rho), c in s_mu.items()}
    assert s_conj == SymSeries(trunc, signed)


_extras = st.one_of(st.just(HodgePoly.zero()), hodge_polys())


def _weight_and_extras(n):
    count = len(partitions_of(n))
    return st.tuples(st.just(n), st.lists(_extras, min_size=count, max_size=count))


@settings(max_examples=40)
@given(st.integers(0, 6).flatmap(_weight_and_extras), hodge_polys(), st.integers(0, 1))
def test_schur_coefficients_read_back_a_jacobi_trudi_sum(drawn, base, e):
    # c_mu = base * f^mu + extra_mu.  With every extra zero the sum is
    # base * p_1^n, so every other p_rho is absent; the extras bring
    # fractions, off-diagonal monomials and zeros.  A term at the other
    # lambda exponent must not leak into the read-off.
    n, extras = drawn
    trunc = Truncation.flat(1, n)
    total = SymSeries(trunc, {(1 - e, (1,) * n): HodgePoly.q()})
    expected = []
    for mu, extra in zip(partitions_of(n), extras):
        c = base * hook_length_count(mu) + extra
        total = total + schur_jacobi_trudi(mu, trunc).scale(c).with_truncation(trunc, e)
        if c:
            expected.append((mu, c))
    assert total.schur_coefficients(e, n) == expected


def test_table_rows_and_expressions_read_off_without_a_packing(monkeypatch):
    # hodge.Packing serves the gluing recursion and the closed series alone:
    # table rows, their Schur read-off and expression products run without it
    def refuse(*args, **kwargs):
        raise AssertionError("a coefficient was packed")

    for name, value in list(vars(Packing).items()):
        if callable(value) or isinstance(value, staticmethod):
            monkeypatch.setattr(Packing, name, refuse)
    table = parse_table(dataset_text())
    assert render_table(table) == dataset_text()
    for (_, n), entry in table.entries.items():
        assert entry.schur_coefficients(0, n)
    value = evaluate("(1+q)^5*s[2]*p[1] + (u+v)^3*s[1,1]")
    assert value.rank(0, 3) == 3 * (1 + HodgePoly.q()) ** 5
    assert value.schur_coefficients(0, 2) == [((1, 1), (HodgePoly.u() + HodgePoly.v()) ** 3)]


def test_schur_coefficients_of_a_high_degree_coefficient():
    # u^5000 + v^5000 would spread over 5001 * 10001 cells of a packing
    c = HodgePoly({(5000, 0): 1, (0, 5000): 1})
    s = SymSeries(Truncation.flat(0, 1), {(0, (1,)): c})
    assert s.schur_coefficients(0, 1) == [((1,), c)]


def test_schur_round_trip():
    t = Truncation.flat(2, 7)
    for n in range(1, 8):
        for mu in partitions_of(n):
            lifted = schur(mu, t).with_truncation(t, lambda_shift=2)
            assert lifted.schur_coefficients(2, n) == [(mu, HodgePoly.one())]


def test_rank_counts_standard_tableaux():
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert schur(mu, T8).rank(0, n) == hook_length_count(mu)


def test_rank_with_coefficient():
    t = Truncation.flat(1, 1)
    s = schur((1,), t).with_truncation(t, lambda_shift=1)
    assert s.scale(HodgePoly.q()).rank(1, 1) == HodgePoly.q()


# -- rendering ------------------------------------------------------------------------


def test_render():
    assert SymSeries.zero(T8).render() == "0"
    s = SymSeries(FLAT_33, {(1, (2,)): HodgePoly.q(), (0, ()): 1})
    assert s.render() == "λ^0 * (1) * p[]\nλ^1 * (q) * p[2]"


def test_json_form():
    s = SymSeries(FLAT_33, {(1, (2, 1)): HodgePoly.u() + 2})
    assert s.to_json_obj() == [
        {"lambda": 1, "p": [2, 1], "coeff": {"u^0 v^0": "2", "u^1 v^0": "1"}}
    ]
