import sys
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul, sub

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stablemoduli.errors import ExprParseError, OffDiagonalError, PreconditionError
from stablemoduli.hodge import (
    HodgePoly,
    Packing,
    box_of,
    _render_monomial,
    extent,
    join_signed,
    product_packings,
    ratio_text,
)
from stablemoduli.plethysm import _part

import oracles
from strategies import REFUSED_SCALARS, SCALARS, Quarter, hodge_polys, small_fractions, wide_polys

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


@pytest.mark.parametrize("c", SCALARS, ids=repr)
def test_int_bool_and_fraction_scalars(c):
    p = Fraction(1, 3) * U + 2 * Q - 1
    dp, const = as_dict(p), ({(0, 0): Fraction(c)} if c else {})
    for value, expected in [
        (HodgePoly({(0, 0): c, (2, 1): c}), {key: Fraction(c) for key in [(0, 0), (2, 1)] if c}),
        (HodgePoly.const(c), const),
        (p + c, oracles.uv_add(dp, const)),
        (c + p, oracles.uv_add(dp, const)),
        (p - c, oracles.uv_sub(dp, const)),
        (c - p, oracles.uv_sub(const, dp)),
        (p * c, oracles.uv_scale(dp, Fraction(c))),
        (c * p, oracles.uv_scale(dp, Fraction(c))),
    ]:
        assert_canonical(value)
        assert as_dict(value) == expected
    assert HodgePoly.const(c) == c and c == HodgePoly.const(c)
    assert p != c


@pytest.mark.parametrize("c", REFUSED_SCALARS, ids=repr)
def test_float_decimal_and_complex_scalars_are_refused(c):
    for op in (add, sub, mul):
        with pytest.raises(TypeError):
            op(1 + Q, c)
        with pytest.raises(TypeError):
            op(c, 1 + Q)
    assert 1 + Q != c


@pytest.mark.parametrize("c", [*REFUSED_SCALARS, "1/3"], ids=repr)
def test_constructors_refuse_what_arithmetic_refuses(c):
    for build in (
        lambda: HodgePoly({(0, 0): c}),
        lambda: HodgePoly({(1, 1): 1, (2, 0): c}),
        lambda: HodgePoly.const(c),
        lambda: HodgePoly.from_q_coefficients([1, c]),
    ):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            build()


# Numbers and polynomials drawn from a small range, so that equal pairs of
# different types come up often: ints, Fractions (integral ones included),
# constant polynomials of either, and polynomials of degree at most one.
_numbers = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)
_values = _numbers | _numbers.map(HodgePoly.const) | hodge_polys(max_exp=1)


@given(_values, _values)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


@given(st.fractions(max_denominator=2**70) | st.integers(-(2**80), 2**80))
def test_a_constant_hashes_as_its_number(c):
    assert hash(HodgePoly.const(c)) == hash(c) == hash(Fraction(c))
    assert hash(HodgePoly.const(Quarter(c))) == hash(c)


def test_constants_and_numbers_share_sets_and_dict_keys():
    assert len({HodgePoly.one(), 1}) == 1 and 1 in {HodgePoly.one()}
    assert HodgePoly.zero() in {0} and {Fraction(1, 3): "x"}[HodgePoly.const(Fraction(1, 3))] == "x"
    # denominators the hash modulus divides hash as Fraction does
    modulus = sys.hash_info.modulus
    for c in (Fraction(1, modulus), Fraction(-5, 2 * modulus), Fraction(modulus + 1, modulus)):
        assert hash(HodgePoly.const(c)) == hash(c)
    assert len({Q, HodgePoly.q(), 1 + Q - 1}) == 1


def test_accessors_return_fractions():
    p = Fraction(1, 2) + 3 * Q
    assert [(key, type(c)) for key, c in p.items()] == [((0, 0), Fraction), ((1, 1), Fraction)]
    assert [type(p.coefficient(*key)) for key in [(1, 1), (2, 0)]] == [Fraction, Fraction]
    assert p.q_coefficients() == [(0, Fraction(1, 2)), (1, 3)]
    assert [type(c) for _, c in p.q_coefficients()] == [Fraction, Fraction]
    assert [type(c) for c in (Q**2).q_coefficient_list()] == [Fraction] * 3


def render_by_fractions(p):
    """``HodgePoly.render``, written on the Fraction coefficients of items()."""
    pieces = []
    for (i, j), c in p.items():
        mono, mag = _render_monomial(i, j), abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    return join_signed(pieces)


def render_q_by_fractions(p, explicit_mul):
    """``HodgePoly.render_q``, written on the Fractions of q_coefficients()."""
    pieces = []
    for k, c in reversed(p.q_coefficients()):
        mag, qpow = abs(c), ("q" if k == 1 else f"q^{k}")
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = qpow
        elif explicit_mul:
            body = f"{mag}*{qpow}"
        else:
            body = f"{mag}{qpow}" if mag.denominator == 1 else f"({mag}){qpow}"
        pieces.append(("-" if c < 0 else "+", body))
    return join_signed(pieces)


@given(wide_polys(max_exp=4), wide_polys(max_exp=4, diagonal=True), hodge_polys(diagonal=True))
def test_text_forms_match_a_fraction_reference(p, wide, small):
    assert p.render() == render_by_fractions(p)
    for d in (wide, small):
        assert d.render() == render_by_fractions(d)
        for explicit_mul in (False, True):
            assert d.render_q(explicit_mul) == render_q_by_fractions(d, explicit_mul)


@given(st.integers(-(2**70), 2**70), st.integers(1, 2**40))
def test_ratio_text_is_the_text_of_the_fraction(n, d):
    assert ratio_text(n, d) == str(Fraction(n, d))


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


def packed_sums(entries):
    """The sums by key of scale*a*b over the (key, a, b, scale) in entries,
    b None for scale*a alone, through the packed kernel as its callers use
    it: one denominator, a packing whose span and band add the operands'
    and whose width holds the l1 bound, each product one multiply-add at
    level 2.  Returns (packing, {key: packed sum}, denominator)."""
    one = HodgePoly.one()
    entries = [(key, a, one if b is None else b, scale) for key, a, b, scale in entries]
    den = lcm(*(a._den * b._den for _, a, b, _ in entries))
    bound = 0
    for _, a, b, scale in entries:
        (_, na), (_, nb) = extent(a), extent(b)
        m = abs(scale) * (den // (a._den * b._den))
        bound = max(bound + m * na * nb, m * na, nb)
    box_a = box_of(ij for _, a, _, _ in entries for ij in a._terms)
    box_b = box_of(ij for _, _, b, _ in entries for ij in b._terms)
    if box_a is None or box_b is None:
        return Packing.holding(None, 0), {}, den
    pa, pb, product = product_packings(box_a, box_b, bound)
    sums: dict = {}
    for key, a, b, scale in entries:
        x = pa.pack(a, scale * (den // (a._den * b._den))) * pb.pack(b)
        sums[key] = sums.get(key, 0) + x
    return product, sums, den


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            wide_polys(),
            st.one_of(st.none(), wide_polys()),
            st.integers(-5, 5),
        ),
        max_size=8,
    ),
    wide_polys(),
    wide_polys(),
    st.integers(1, 6),
)
def test_packed_sums_match_oracle_and_ring(products, a, b, divisor):
    """Products and multiples of polynomials with any denominators, times
    int scales (zero and negative included), a sum that cancels, then
    division by divisor through the denominator; the sums also as one part
    over one denominator."""
    entries = products + [("cancels", a, b, 1), ("cancels", -a, b, 1)]
    packing, sums, den = packed_sums(entries)
    expected: dict = {}
    by_ring: dict = {}
    for key, x, y, scale in entries:
        value = oracles.uv_scale(as_dict(x) if y is None else oracles.uv_mul(as_dict(x), as_dict(y)), scale)
        expected[key] = oracles.uv_add(expected.get(key, {}), value)
        by_ring[key] = by_ring.get(key, HodgePoly.zero()) + (x if y is None else x * y) * scale

    out = packing.polys(sums, den * divisor)
    assert "cancels" not in out
    assert {key: as_dict(value) for key, value in out.items()} == {
        key: oracles.uv_scale(value, Fraction(1, divisor)) for key, value in expected.items() if value
    }
    for key, value in out.items():
        assert_canonical(value)
        ring = by_ring[key] * Fraction(1, divisor)
        assert value == ring and hash(value) == hash(ring)

    values, norms, part_den = _part(sums, packing, den * divisor, packing)
    assert {key: packing.poly(x, part_den) for key, x in values.items()} == out
    assert norms == {key: extent(value)[1] * (part_den // value._den) for key, value in out.items()}
    assert gcd(part_den, *(c for x in values.values() for c in packing.digits(x))) == 1


def test_packed_sums_are_reduced_once():
    half = HodgePoly.const(Fraction(1, 2))
    packing, sums, den = packed_sums(
        [
            ("q", half, Q, 1),
            ("q", Fraction(1, 6) * Q, None, 3),  # mixed denominators: 2 and 6
            ("u", HodgePoly.const(Fraction(1, 3)) + Fraction(1, 2) * U, None, 1),
            ("u", HodgePoly.const(Fraction(-1, 3)) + Fraction(1, 2) * U, None, 1),
            ("zero", half, None, 2),
            ("zero", HodgePoly.one(), None, -1),
        ]
    )
    out = packing.polys(sums, den)
    assert out == {"q": Q, "u": U}
    assert out["q"]._den == out["u"]._den == 1
    assert hash(out["q"]) == hash(Q) and hash(out["u"]) == hash(U)
    assert packing.polys(sums, 4 * den) == {"q": Fraction(1, 4) * Q, "u": Fraction(1, 4) * U}
    values, norms, part_den = _part(sums, packing, 4 * den, packing)
    assert part_den == 4 and norms == {"q": 1, "u": 1}


# -- widths of the packed kernel -------------------------------------------------


@given(wide_polys(max_exp=4))
def test_pack_round_trips(p):
    # either orientation, by which of the u- and v-degrees spreads less
    box, norm = extent(p)
    largest = max((abs(c) for c in p._terms.values()), default=0)
    packing = Packing.holding(box, largest)
    assert packing.poly(packing.pack(p), p._den) == p
    wider = packing.widened(3 * norm)
    assert wider.bits >= 2 * packing.bits and wider.holds(3 * norm)
    x = wider.repack(packing.pack(p), packing)
    assert x == wider.pack(p)
    assert wider.digits(3 * x) == [3 * c for c in wider.digits(x)]
    # a monomial of any degree is one digit
    far = HodgePoly({(10**6, 3 * 10**6): 5})
    assert Packing.holding(extent(far)[0], 5).pack(far) == 5


@given(wide_polys(max_exp=4), wide_polys(max_exp=4))
def test_rebase_moves_between_offsets(p, q):
    # the product packing holds p * q and, lifted, p * 1
    (box_p, np), (box_q, nq) = extent(p), extent(q)
    assume(box_p is not None and box_q is not None)
    one = HodgePoly.one()
    hull = box_of(list(p._terms) + list((p * q)._terms) + [(0, 0)])
    outer = Packing.holding(hull, np * nq + np)
    inner = outer.within(box_p)
    lifted = outer.rebase(inner.pack(p), inner)
    assert lifted == outer.pack(p)
    assert inner.rebase(lifted, outer) == inner.pack(p)
    assert outer.poly(lifted, p._den) == p * one


uv_keys = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(st.integers(2, 80), st.data())
def test_digits_at_the_edge_of_the_width_round_trip(bits, data):
    edge = (1 << (bits - 1)) - 1
    digits = st.one_of(st.sampled_from([edge, -edge]), st.integers(-edge, edge))
    terms = data.draw(st.dictionaries(uv_keys, digits, min_size=1, max_size=6))
    terms[data.draw(uv_keys)] = data.draw(st.sampled_from([edge, -edge]))
    p = HodgePoly(terms)
    packing = Packing.holding(extent(p)[0], edge)
    assert packing.bits == bits and packing.holds(edge) and not packing.holds(edge + 1)
    assert packing.digits(packing.pack(p))[-1] != 0
    assert packing.poly(packing.pack(p), 1) == p
    with pytest.raises(OverflowError):
        packing.pack(HodgePoly({(0, 0): edge + 1}))


@given(wide_polys(max_exp=4), wide_polys(max_exp=4))
def test_packed_products_match_the_ring_and_oracle(a, b):
    expected = oracles.uv_mul(as_dict(a), as_dict(b))
    assert as_dict(a * b) == expected
    packing, sums, den = packed_sums([("ab", a, b, 1)])
    assert as_dict(packing.polys(sums, den).get("ab", HodgePoly.zero())) == expected


@given(st.integers(2, 80), uv_keys, uv_keys, st.sampled_from([1, -1]))
def test_a_product_digit_at_the_edge_of_the_width(bits, ij, kl, sign):
    # a monomial times a monomial is one digit, as large as the l1 bound
    edge = (1 << (bits - 1)) - 1
    a, b = HodgePoly({ij: edge}), HodgePoly({kl: sign})
    packing, sums, den = packed_sums([("ab", a, b, 1)])
    assert packing.bits == bits
    assert packing.polys(sums, den) == {"ab": HodgePoly({(ij[0] + kl[0], ij[1] + kl[1]): sign * edge})}
    assert a * b == packing.polys(sums, den)["ab"]


# a nonzero coefficient off the diagonal or on it, negative or fractional
one_monomials = st.builds(
    lambda key, c: HodgePoly({key: c}),
    uv_keys,
    st.builds(Fraction, st.integers(-(2**64), 2**64).filter(bool), st.integers(1, 2**20)),
)


@given(wide_polys(), one_monomials)
def test_product_by_one_monomial_matches_oracle(a, m):
    expected = oracles.uv_mul(as_dict(a), as_dict(m))
    for value in (a * m, m * a):
        assert_canonical(value)
        assert as_dict(value) == expected


def test_product_by_one_monomial_reduces_its_denominator():
    third_u = HodgePoly({(1, 0): Fraction(3, 4)})
    value = HodgePoly({(0, 0): Fraction(2, 3), (0, 2): Fraction(4, 3)}) * third_u
    assert value == HodgePoly({(1, 0): Fraction(1, 2), (1, 2): 1})
    assert_canonical(value)
    assert value._den == 2


def test_power_stops_squaring_at_its_last_bit(monkeypatch):
    # (u+v)^64 would spread over 65*129 = 8385 cells, past hodge.MAX_CELLS
    assert (U + V) ** 32 == HodgePoly({(k, 32 - k): comb(32, k) for k in range(33)})
    degrees = []
    product = HodgePoly.__mul__

    def spy(a, b):
        value = product(a, b)
        degrees.append(max(i for i, _ in value._terms))
        return value

    monkeypatch.setattr(HodgePoly, "__mul__", spy)
    value = (1 + Q) ** 512
    assert degrees == [2, 4, 8, 16, 32, 64, 128, 256, 512]
    assert value.q_coefficient_list() == [comb(512, k) for k in range(513)]
    degrees.clear()
    value = (1 + Q) ** 5
    assert degrees == [2, 4, 5]
    assert value == HodgePoly.from_q_coefficients([1, 5, 10, 10, 5, 1])
    assert Q**0 == HodgePoly.zero() ** 0 == 1


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
