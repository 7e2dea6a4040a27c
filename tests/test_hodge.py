from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stablemoduli.errors import ExprParseError, OffDiagonalError, PreconditionError
from stablemoduli.hodge import (
    Accumulator,
    HodgePoly,
    Packing,
    box_of,
    extent,
    join_signed,
    product_packings,
)

import oracles
from strategies import hodge_polys, small_fractions, wide_polys

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


def packed_sums(entries, divisor=1):
    """The sums by key of scale*a*b over the (key, a, b, scale) in entries,
    b None for scale*a alone, through the packed kernel as its callers use
    it: one denominator, a packing whose span and band add the operands'
    and whose width holds the l1 bound, each product one multiply-add at
    level 2.  Returns the accumulator."""
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
        return Accumulator(Packing.holding(None, 0), den)
    pa, pb, product = product_packings(box_a, box_b, bound)
    acc = Accumulator(product, den)
    for key, a, b, scale in entries:
        x = pa.pack(a, scale * (den // (a._den * b._den))) * pb.pack(b)
        acc.sums[key] = acc.sums.get(key, 0) + x
    return acc


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
def test_accumulator_matches_oracle_and_ring(products, a, b, divisor):
    """Products and multiples of polynomials with any denominators, times
    int scales (zero and negative included), a sum that cancels, then
    division by divisor; the sums also as one part over one denominator."""
    entries = products + [("cancels", a, b, 1), ("cancels", -a, b, 1)]
    acc = packed_sums(entries, divisor)
    expected: dict = {}
    by_ring: dict = {}
    for key, x, y, scale in entries:
        value = oracles.uv_scale(as_dict(x) if y is None else oracles.uv_mul(as_dict(x), as_dict(y)), scale)
        expected[key] = oracles.uv_add(expected.get(key, {}), value)
        by_ring[key] = by_ring.get(key, HodgePoly.zero()) + (x if y is None else x * y) * scale

    out = acc.result(divisor)
    assert "cancels" not in out
    assert {key: as_dict(value) for key, value in out.items()} == {
        key: oracles.uv_scale(value, Fraction(1, divisor)) for key, value in expected.items() if value
    }
    for key, value in out.items():
        assert_canonical(value)
        ring = by_ring[key] * Fraction(1, divisor)
        assert value == ring and hash(value) == hash(ring)

    values, norms, den = acc.part(divisor, acc.packing)
    assert {key: acc.packing.poly(x, den) for key, x in values.items()} == out
    assert norms == {key: extent(value)[1] * (den // value._den) for key, value in out.items()}
    assert gcd(den, *(c for x in values.values() for c in acc.packing.digits(x))) == 1


def test_accumulator_reduces_each_sum_once():
    half = HodgePoly.const(Fraction(1, 2))
    acc = packed_sums(
        [
            ("q", half, Q, 1),
            ("q", Fraction(1, 6) * Q, None, 3),  # mixed denominators: 2 and 6
            ("u", HodgePoly.const(Fraction(1, 3)) + Fraction(1, 2) * U, None, 1),
            ("u", HodgePoly.const(Fraction(-1, 3)) + Fraction(1, 2) * U, None, 1),
            ("zero", half, None, 2),
            ("zero", HodgePoly.one(), None, -1),
        ]
    )
    out = acc.result()
    assert out == {"q": Q, "u": U}
    assert out["q"]._den == out["u"]._den == 1
    assert hash(out["q"]) == hash(Q) and hash(out["u"]) == hash(U)
    assert acc.result(4) == {"q": Fraction(1, 4) * Q, "u": Fraction(1, 4) * U}
    values, norms, den = acc.part(4, acc.packing)
    assert den == 4 and norms == {"q": 1, "u": 1}
    for bad in (0, -2):
        with pytest.raises(ValueError):
            acc.result(bad)
        with pytest.raises(ValueError):
            acc.part(bad, acc.packing)


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
    assert as_dict(packed_sums([("ab", a, b, 1)]).result().get("ab", HodgePoly.zero())) == expected


@given(st.integers(2, 80), uv_keys, uv_keys, st.sampled_from([1, -1]))
def test_a_product_digit_at_the_edge_of_the_width(bits, ij, kl, sign):
    # a monomial times a monomial is one digit, as large as the l1 bound
    edge = (1 << (bits - 1)) - 1
    a, b = HodgePoly({ij: edge}), HodgePoly({kl: sign})
    acc = packed_sums([("ab", a, b, 1)])
    assert acc.packing.bits == bits
    assert acc.result() == {"ab": HodgePoly({(ij[0] + kl[0], ij[1] + kl[1]): sign * edge})}
    assert a * b == acc.result()["ab"]


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
