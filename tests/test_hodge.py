from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablemoduli.errors import ExprParseError, OffDiagonalError, PreconditionError
from stablemoduli.hodge import Accumulator, HodgePoly, join_signed

import oracles
from strategies import hodge_polys, small_fractions

Q = HodgePoly.q()
U = HodgePoly.u()
V = HodgePoly.v()


def test_constructors_and_equality():
    assert HodgePoly.zero() == 0
    assert HodgePoly.one() == 1
    assert HodgePoly.const(Fraction(3, 2)) == Fraction(3, 2)
    assert U * V == Q
    assert HodgePoly.q(3) == Q**3
    assert HodgePoly.from_q_coefficients([1, 5, 1]) == 1 + 5 * Q + Q**2
    assert not HodgePoly({(1, 1): 0})


def test_ring_identities():
    assert (1 + Q) * (1 - Q) == 1 - Q**2
    assert (U + V) ** 2 == U**2 + 2 * Q + V**2
    assert 2 - Q == -(Q - 2)
    assert (1 + Q) ** 0 == 1


def test_scalar_products_are_canonical():
    p = 1 + Fraction(1, 2) * U + 3 * Q
    for zero in (p * 0, 0 * p, p * Fraction(0)):
        assert zero == HodgePoly.zero()
        assert len(zero) == 0
    doubled = p * 2
    assert all(type(c) is Fraction for _, c in doubled.items())
    assert doubled.render() == "2 + u + 6*q"
    assert (2 * (1 + Q)).is_integral()


@given(hodge_polys(), st.one_of(st.integers(-3, 3), small_fractions))
def test_scalar_product_matches_constant_product(p, c):
    assert p * c == p * HodgePoly.const(c) == c * p


def assert_canonical(p):
    assert all(type(c) is int and c for c in p._terms.values())
    assert type(p._den) is int and p._den > 0
    assert gcd(p._den, *p._terms.values()) == 1
    if not p:
        assert p._den == 1


def as_dict(p):
    return dict(p.items())


@pytest.mark.parametrize("diagonal", [False, True])
def test_ring_matches_fraction_dict_oracle(diagonal):
    polys = hodge_polys(diagonal=diagonal)
    scalars = st.one_of(st.integers(-6, 6), small_fractions)

    @given(polys, polys, scalars, st.integers(1, 4))
    def check(a, b, c, k):
        da, db = as_dict(a), as_dict(b)
        results = [
            (a + b, oracles.uv_add(da, db)),
            (a - b, oracles.uv_sub(da, db)),
            (-a, oracles.uv_neg(da)),
            (a * b, oracles.uv_mul(da, db)),
            (a * c, oracles.uv_scale(da, c)),
            (c * a, oracles.uv_scale(da, c)),
            (a + c, oracles.uv_add(da, {(0, 0): Fraction(c)} if c else {})),
            (a.adams(k), oracles.uv_adams(da, k)),
            (a.dual(3), oracles.uv_dual(da, 3)),
        ]
        for value, expected in results:
            assert_canonical(value)
            assert as_dict(value) == expected
            assert all(type(x) is Fraction for x in expected.values())

    check()


def test_equal_values_by_different_routes_share_form_and_hash():
    half_q = HodgePoly({(1, 1): Fraction(2, 4)})
    assert half_q * 2 == Q and hash(half_q * 2) == hash(Q)
    assert HodgePoly.const(Fraction(1, 2)) * 2 == 1
    assert HodgePoly.const(Fraction(1, 2)) * 2 == HodgePoly.one()
    assert hash(HodgePoly.const(Fraction(1, 2)) * 2) == hash(HodgePoly.one())
    third = HodgePoly.const(Fraction(1, 3))
    sixth_u = Fraction(1, 6) * U
    total = (third + sixth_u) + (third + sixth_u)
    assert total == HodgePoly({(0, 0): Fraction(2, 3), (1, 0): Fraction(1, 3)})
    assert hash(total) == hash(HodgePoly({(0, 0): Fraction(2, 3), (1, 0): Fraction(1, 3)}))
    cancelled = (half_q + U) - (half_q + U)
    assert cancelled == HodgePoly.zero() and hash(cancelled) == hash(HodgePoly.zero())
    assert (Fraction(1, 6) * U) * Fraction(6, 1) == U
    assert len({half_q * 2, Q, U * V}) == 1
    for p in (half_q * 2, total, cancelled, third * 0, HodgePoly({(0, 0): 0})):
        assert_canonical(p)
    assert cancelled._den == 1 and (third * 0)._den == 1


@given(
    st.dictionaries(st.integers(0, 2), hodge_polys(), max_size=3),
    st.integers(-4, 4),
    st.lists(
        st.tuples(
            st.integers(0, 2),
            hodge_polys(),
            st.one_of(hodge_polys(), st.integers(-6, 6)),
            st.integers(-5, 5),
        ),
        max_size=8,
    ),
    hodge_polys(),
    hodge_polys(),
    st.integers(1, 6),
)
def test_accumulator_matches_oracle_and_ring(start, k, products, a, b, divisor):
    """A start value scaled by k, products of polynomials and int scalars
    with any denominators, products times an int scale (zero and negative
    included), a sum that cancels, then division by divisor."""
    acc = Accumulator()
    expected: dict = {}
    by_ring: dict = {}

    def add(key, a, b, oracle_value, scale=1):
        before = (as_dict(a), b if isinstance(b, int) else as_dict(b))
        if isinstance(b, int):
            acc.add_scaled(key, a, b)
        else:
            acc.add_product(key, a, b, scale)
        assert (as_dict(a), b if isinstance(b, int) else as_dict(b)) == before
        expected[key] = oracles.uv_add(expected.get(key, {}), oracle_value)
        by_ring[key] = by_ring.get(key, HodgePoly.zero()) + a * b * scale

    for key, c in start.items():
        add(key, c, k, oracles.uv_scale(as_dict(c), k))
    for key, x, y, scale in products:
        if isinstance(y, int):
            add(key, x, y, oracles.uv_scale(as_dict(x), y))
        else:
            add(key, x, y, oracles.uv_scale(oracles.uv_mul(as_dict(x), as_dict(y)), scale), scale)
    add("cancels", a, b, oracles.uv_mul(as_dict(a), as_dict(b)))
    add("cancels", -a, b, oracles.uv_neg(oracles.uv_mul(as_dict(a), as_dict(b))))

    out = acc.result(divisor)
    assert "cancels" not in out
    assert {key: as_dict(value) for key, value in out.items()} == {
        key: oracles.uv_scale(value, Fraction(1, divisor)) for key, value in expected.items() if value
    }
    for key, value in out.items():
        assert_canonical(value)
        ring = by_ring[key] * Fraction(1, divisor)
        assert value == ring and hash(value) == hash(ring)


def test_accumulator_reduces_each_sum_once():
    half = HodgePoly.const(Fraction(1, 2))
    acc = Accumulator()
    acc.add_product("q", half, Q)
    acc.add_scaled("q", Fraction(1, 6) * Q, 3)  # mixed denominators: 2 and 6
    acc.add_product("u", HodgePoly.const(Fraction(1, 3)) + Fraction(1, 2) * U, HodgePoly.one())
    acc.add_product("u", HodgePoly.const(Fraction(-1, 3)) + Fraction(1, 2) * U, HodgePoly.one())
    acc.add_scaled("zero", half, 2)
    acc.add_scaled("zero", HodgePoly.one(), -1)
    out = acc.result()
    assert out == {"q": Q, "u": U}
    assert out["q"]._den == out["u"]._den == 1
    assert hash(out["q"]) == hash(Q) and hash(out["u"]) == hash(U)
    assert acc.result(4) == {"q": Fraction(1, 4) * Q, "u": Fraction(1, 4) * U}
    for bad in (0, -2):
        with pytest.raises(ValueError):
            acc.result(bad)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        HodgePoly({(-1, 0): 1})
    with pytest.raises(ValueError):
        Q ** (-1)
    with pytest.raises(ValueError):
        HodgePoly.q(-2)


def test_adams():
    assert (U + V).adams(2) == U**2 + V**2
    assert (1 + Q).adams(3) == 1 + Q**3
    with pytest.raises(PreconditionError):
        Q.adams(0)


@given(hodge_polys(), hodge_polys(), st.integers(1, 4))
def test_adams_is_a_ring_map(a, b, k):
    assert (a * b).adams(k) == a.adams(k) * b.adams(k)
    assert (a + b).adams(k) == a.adams(k) + b.adams(k)


def test_dual():
    p = 1 + 5 * Q + Q**2
    assert p.dual(2) == p
    assert (1 + Q).dual(3) == Q**3 + Q**2
    assert U.dual(1) == V
    with pytest.raises(PreconditionError):
        (Q**3).dual(2)
    with pytest.raises(PreconditionError):
        Q.dual(-1)


@given(hodge_polys(max_exp=3))
def test_dual_is_an_involution(p):
    assert p.dual(3).dual(3) == p


def test_diagonal_inspection():
    assert (1 + Q).off_diagonal_witness() is None
    assert (Q + U).off_diagonal_witness() == (1, 0)
    assert (Q + U * V**2 + U**2 * V).off_diagonal_witness() == (1, 2)
    assert (1 + 2 * Q).q_coefficients() == [(0, 1), (1, 2)]
    with pytest.raises(OffDiagonalError):
        (Q + U).q_coefficients()
    assert (Q**2 + 1).q_coefficient_list() == [1, 0, 1]
    assert HodgePoly.zero().q_coefficient_list() == []
    assert (Q + HodgePoly.const(Fraction(1, 2))).is_integral() is False
    assert (1 + Q).is_integral() is True
    assert oracles.max_exponent(U**2 * V) == 2
    assert oracles.max_exponent(HodgePoly.zero()) == 0


def test_render_canonical_forms():
    assert HodgePoly.zero().render() == "0"
    assert (1 + Q).render() == "1 + q"
    assert (3 * Q**2).render() == "3*q^2"
    assert (HodgePoly.const(Fraction(1, 2)) * U**2 * V).render() == "1/2*u^2*v"
    assert (U - V).render() == "-v + u"
    assert (Q - 2).render() == "-2 + q"


def test_join_signed():
    assert join_signed([]) == "0"
    assert join_signed([("-", "q")]) == "-q"
    assert join_signed([("+", "q"), ("-", "1"), ("+", "u")]) == "q - 1 + u"
    assert join_signed([("-", "2q"), ("+", "1")], sep="") == "-2q+1"


def test_render_q_forms():
    p = 1 + 5 * Q + Q**2
    assert p.render_q() == "q^2 + 5q + 1"
    assert p.render_q(explicit_mul=True) == "q^2 + 5*q + 1"
    assert (2 * Q**6).render_q() == "2q^6"
    assert (2 * Q**6).render_q(explicit_mul=True) == "2*q^6"
    assert HodgePoly.zero().render_q() == "0"
    assert (Q - 2).render_q() == "q - 2"
    with pytest.raises(OffDiagonalError):
        U.render_q()


def test_from_text():
    assert HodgePoly(oracles.parse_uv("1 + q")) == 1 + Q
    assert HodgePoly(oracles.parse_uv("3/2*u^2*v - q")) == Fraction(3, 2) * U**2 * V - Q
    assert HodgePoly(oracles.parse_uv("-2 + q")) == Q - 2
    with pytest.raises(ExprParseError):
        oracles.parse_uv("q +")
    with pytest.raises(ExprParseError):
        oracles.parse_uv("x")
    with pytest.raises(ExprParseError):
        oracles.parse_uv("q^1/2")


@given(hodge_polys(max_exp=4))
def test_text_round_trip(p):
    assert HodgePoly(oracles.parse_uv(p.render())) == p
