import sys
from fractions import Fraction
from math import log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemoduli.errors import (
    ExprParseError,
    OffDiagonalError,
    PreconditionError,
    TableFormatError,
)
from stablemoduli.exprlang import (
    Add,
    HomAtom,
    IntLit,
    MAX_CELLS,
    MAX_MONOMIALS,
    MAX_NESTING,
    Mul,
    Neg,
    Pow,
    PowerAtom,
    SchurAtom,
    Sub,
    VarAtom,
    _tokenize,
    bounds,
    eval_expression,
    evaluate,
    parse_expression,
    parse_table,
    render_entry,
    render_table,
)
from stablemoduli.hodge import HodgePoly
from stablemoduli.series import SymSeries, Truncation, complete_homogeneous, schur

import oracles

T6 = Truncation.flat(0, 6)


# -- parsing ---------------------------------------------------------------------


def test_parse_examples():
    e = parse_expression("q*s[4] - s[2,2]")
    assert e == Sub(Mul(VarAtom("q"), SchurAtom((4,))), SchurAtom((2, 2)))
    e = parse_expression("q^4*s[1] + q^3*s[1]")
    assert e == Add(
        Mul(Pow(VarAtom("q"), 4), SchurAtom((1,))),
        Mul(Pow(VarAtom("q"), 3), SchurAtom((1,))),
    )


def test_partitions_must_be_weakly_decreasing():
    with pytest.raises(ExprParseError) as err:
        parse_expression("s[1,2]")
    assert "weakly decreasing" in str(err.value)


def test_precedence():
    # ^ binds over *, * over -, subtraction is left associative
    assert evaluate("2*3^2") == SymSeries.constant(Truncation.flat(0, 0), 18)
    assert evaluate("7 - 2 - 2") == SymSeries.constant(Truncation.flat(0, 0), 3)
    assert evaluate("(q+1)^2") == SymSeries.constant(
        Truncation.flat(0, 0), (HodgePoly.q() + 1) ** 2
    )


def test_unary_minus():
    assert evaluate("-2") == SymSeries.constant(Truncation.flat(0, 0), -2)
    t = Truncation.flat(0, 2)
    assert eval_expression(parse_expression("-s[2]"), t) == -schur((2,), t)


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprParseError):
        parse_expression("q*s[4] - 2s[2,2]")
    with pytest.raises(ExprParseError):
        parse_expression("q s[4]")


def test_error_positions():
    with pytest.raises(ExprParseError) as err:
        parse_expression("q + ")
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(ExprParseError) as err:
        parse_expression("q*s[4] - s[2,2", line=7, col=3)
    assert err.value.line == 7
    with pytest.raises(ExprParseError) as err:
        parse_expression("q + w")
    assert "unknown symbol 'w'" in str(err.value)


@pytest.mark.parametrize("text, ch", [("q+q+λ", "λ"), ("s[²]", "²"), ("q^٣", "٣"), ("µ*q", "µ")])
def test_letters_and_digits_outside_ascii_are_parse_errors(text, ch):
    with pytest.raises(ExprParseError) as err:
        parse_expression(text)
    assert f"unexpected character {ch!r}" in str(err.value)


def _scan(scanner, text, line, col):
    """The tokens of a scanner as plain tuples, or its error."""
    try:
        return [tuple(token) for token in scanner(text, line, col)]
    except ExprParseError as exc:
        return str(exc), exc.line, exc.col


# Texts over the grammar's alphabet and blanks and newlines, most of them
# valid token by token; and over those with other ASCII letters and
# characters and characters outside ASCII (letters, digits and spaces).
_grammar = list("quvshp0123456789[](),^*+-") + list(" \t\r\n")
_scanner_texts = st.text(st.sampled_from(_grammar), max_size=60) | st.text(
    st.sampled_from(_grammar + list("xQz=#.$") + list("λ²٣µé\u00a0\u2028")), max_size=40
)


@given(_scanner_texts, st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=300)
def test_scanner_matches_a_character_at_a_time_reference(text, line, col):
    assert _scan(_tokenize, text, line, col) == _scan(oracles.tokenize_by_characters, text, line, col)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("q +\n  w", "unknown symbol 'w'", 2, 3),
        ("q*s[2] -\r\n\t qq", "unknown symbol 'qq'", 2, 3),
        ("s[2]\n+ λ*q", "unexpected character 'λ'", 2, 3),
        ("s[2] +\n\n", "expected a value, got end of input", 3, 1),
        ("(q +\n   s[2,3])", "partition parts must be weakly decreasing", 2, 5),
    ],
)
def test_errors_on_a_later_line_carry_its_position(text, message, line, col):
    # a later line starts at column 1, whatever column the text starts at
    for first_line, first_col in [(1, 1), (5, 9)]:
        with pytest.raises(ExprParseError) as err:
            parse_expression(text, first_line, first_col)
        assert message in str(err.value)
        assert (err.value.line, err.value.col) == (first_line + line - 1, col)


def test_an_integer_past_the_digit_limit_is_a_parse_error():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse_expression("1" * 640) == IntLit(int("1" * 640))
        for text, digits, line, col in [
            ("q + " + "7" * 641, 641, 1, 5),
            ("s[1] -\n  2*" + "9" * 700 + "*q", 700, 2, 5),
        ]:
            with pytest.raises(ExprParseError) as err:
                parse_expression(text)
            assert f"integer literal of {digits} digits exceeds the 640-digit limit" in str(err.value)
            assert (err.value.line, err.value.col) == (line, col)
    finally:
        sys.set_int_max_str_digits(old)


def test_exponent_rules():
    with pytest.raises(ExprParseError):
        parse_expression("q^-1")
    with pytest.raises(ExprParseError):
        parse_expression("q^s[2]")
    with pytest.raises(ExprParseError):
        parse_expression("2^3^2")
    assert parse_expression("q^0") == Pow(VarAtom("q"), 0)


def test_nodes_equal_only_nodes_of_their_class_with_equal_fields():
    leaves = [IntLit(2), HomAtom(2), PowerAtom(2)]
    for i, a in enumerate(leaves):
        for j, b in enumerate(leaves):
            assert (a == b) == (i == j)
    assert len(set(leaves + [IntLit(2)])) == 3
    a, b = VarAtom("q"), SchurAtom((2, 1))
    assert Add(a, b) != Mul(a, b) and Add(a, b) != Sub(a, b) and Add(a, b) != Add(b, a)
    assert IntLit(2) != 2 and IntLit(2) != (2,) and Add(a, b) != (a, b)
    built = [IntLit(2), Add(a, b), Pow(Neg(Mul(a, b)), 3)]
    rebuilt = [IntLit(2), Add(VarAtom("q"), SchurAtom((2, 1))),
               Pow(Neg(Mul(VarAtom("q"), SchurAtom((2, 1)))), 3)]
    for x, y in zip(built, rebuilt):
        assert x == y and x is not y and hash(x) == hash(y)
    assert (Pow(a, 2).base, Pow(a, 2).exponent, Neg(a).operand, HomAtom(3).n) == (a, 2, a, 3)
    assert repr(Add(IntLit(1), b)) == "Add(left=IntLit(value=1), right=SchurAtom(mu=(2, 1)))"


def test_nesting_is_capped_with_the_position_that_passes_the_cap():
    assert parse_expression("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == VarAtom("q")
    assert evaluate("-" * MAX_NESTING + "q") == evaluate("q")
    for text, col in [
        ("(" * 300 + "q" + ")" * 300, MAX_NESTING + 1),
        ("-" * (MAX_NESTING + 1) + "q", MAX_NESTING + 1),
        # parentheses and unary minus count together; level 101 is a '-'
        ("q + " + "-(" * 60 + "q" + ")" * 60, 4 + MAX_NESTING + 1),
    ]:
        with pytest.raises(ExprParseError) as err:
            parse_expression(text, line=3)
        assert (err.value.line, err.value.col) == (3, col)
        assert f"nest deeper than {MAX_NESTING} levels" in str(err.value)
    # side by side, parentheses do not nest
    assert evaluate("+".join(["(q)"] * 300)) == evaluate("300*q")


def test_long_sums_and_products_evaluate_without_a_frame_per_term():
    assert evaluate("+".join(["q"] * 1000)) == evaluate("1000*q")
    assert evaluate("q" + "-q+q" * 1000) == evaluate("q")
    assert evaluate("*".join(["q"] * 1000)) == evaluate("q^1000")
    assert bounds(parse_expression("+".join(["q"] * 1000))).norm == pytest.approx(3)


def test_atom_index_rules():
    with pytest.raises(ExprParseError):
        parse_expression("h[0]")
    with pytest.raises(ExprParseError):
        parse_expression("p[0]")
    with pytest.raises(ExprParseError):
        parse_expression("s[]")
    with pytest.raises(ExprParseError):
        parse_expression("s[0]")


def test_trailing_input():
    with pytest.raises(ExprParseError):
        parse_expression("q + 1 )")


# -- evaluation -------------------------------------------------------------------


def test_eval_examples():
    t = Truncation.flat(0, 3)
    s3 = eval_expression(parse_expression("s[3]"), t)
    expected = SymSeries(
        t,
        {
            (0, (1, 1, 1)): Fraction(1, 6),
            (0, (2, 1)): Fraction(1, 2),
            (0, (3,)): Fraction(1, 3),
        },
    )
    assert s3 == expected
    t2 = Truncation.flat(0, 2)
    assert eval_expression(parse_expression("q^2*s[2]"), t2) == schur((2,), t2).scale(
        HodgePoly.q(2)
    )
    assert not eval_expression(parse_expression("h[2] - s[2]"), t2)
    assert eval_expression(parse_expression("p[3]"), t) == SymSeries(t, {(0, (3,)): 1})
    assert eval_expression(parse_expression("u*v"), t) == SymSeries.constant(
        t, HodgePoly.q()
    )


def test_weight_bound():
    for text, top in [
        ("q*s[4] - s[2,2]", 4), ("s[2]*h[3]", 5), ("p[2]^3", 6), ("q^5", 0),
        # x^0 is 1, but x is still evaluated on the way
        ("s[3]^0", 3), ("q*s[2]^0 + h[1]", 2),
    ]:
        assert bounds(parse_expression(text)).weight == top


def test_monomial_bound():
    def grades(text):
        b = bounds(parse_expression(text))
        return b.du, b.dv, b.lo, b.hi, b.monomials

    assert grades("q*s[4] - s[2,2]") == (1, 1, 0, 0, 2)
    assert grades("(q^2 + u)*v^3 - 7") == (2, 5, -3, 0, 12)
    # homogeneous: the one monomial q^k
    assert grades("(u*v)^4*s[3]^2") == (4, 4, 0, 0, 1)
    assert grades("(u*v)^300") == grades("q^300") == (300, 300, 0, 0, 1)
    assert grades("p[9]^4 + 0^0") == (0, 0, 0, 0, 1)
    assert grades("(1+q)^1000") == (1000, 1000, 0, 0, 1001)
    assert grades("q^999999999") == (999999999, 999999999, 0, 0, 1)
    assert grades("1 + q^999999999") == (999999999, 999999999, 0, 0, 10**9)
    assert grades("(q+u+v+1)^100") == (100, 100, -100, 100, 101**2)
    assert grades("(u+v)^32") == (32, 32, -32, 32, 33)
    assert grades("(1+v)^1023") == (0, 1023, -1023, 0, 1024)
    # x^0 is 1, but x is still evaluated on the way
    assert grades("((q+u+v+1)^100)^0") == (100, 100, -100, 100, 101**2)
    assert grades("(u^3)^0") == (3, 0, 0, 3, 4)
    # counted along i + j (7 values) rather than i - j (21)
    assert bounds(parse_expression("(u^2+v^2)^5*(1+q)^3")).monomials == 74
    assert bounds(parse_expression("(1+q)^1000")).monomials <= MAX_MONOMIALS
    assert bounds(parse_expression("(u+v)^32")).monomials <= MAX_MONOMIALS
    assert bounds(parse_expression("(q+u+v+1)^100")).monomials > MAX_MONOMIALS
    # the cells of the packed form: (min(du, dv) + 1) * (hi - lo + 1)
    assert bounds(parse_expression("(u+v)^32")).grid == 33 * 65 <= MAX_CELLS
    assert bounds(parse_expression("q^999999999")).grid == 10**9 > MAX_CELLS
    assert bounds(parse_expression("u^999999999")).grid == 1
    # past 2^16 values along both, the grid stands in for the count
    huge = bounds(parse_expression("(q+u+v+1)^99999"))
    assert huge.monomials == huge.grid == 10**5 * (2 * 99999 + 1)


_exprs = st.recursive(
    st.one_of(
        st.integers(-4, 4).map(IntLit),
        st.sampled_from("quv").map(VarAtom),
        st.sampled_from([(1,), (2,), (1, 1), (2, 1)]).map(SchurAtom),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        children.map(Neg),
        st.tuples(children, st.integers(0, 2)).map(lambda bk: Pow(*bk)),
    ),
    max_leaves=6,
)


@given(_exprs, _exprs)
@settings(max_examples=60)
def test_eval_is_a_ring_homomorphism(a, b):
    t = Truncation.flat(0, 8)
    va, vb = eval_expression(a, t), eval_expression(b, t)
    assert eval_expression(Add(a, b), t) == va + vb
    assert eval_expression(Sub(a, b), t) == va - vb
    assert eval_expression(Mul(a, b), t) == va * vb
    assert eval_expression(Neg(a), t) == -va
    assert eval_expression(Pow(a, 2), t) == va * va


def _trees(leaves: st.SearchStrategy) -> st.SearchStrategy:
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            children.map(Neg),
            st.tuples(children, st.integers(0, 3)).map(lambda bk: Pow(*bk)),
        ),
        max_leaves=5,
    )


_numbers = st.one_of(st.integers(-4, 4).map(IntLit), st.sampled_from("quv").map(VarAtom))
_atoms = st.one_of(
    st.sampled_from([(1,), (2,), (1, 1), (2, 1)]).map(SchurAtom),
    st.integers(1, 3).map(HomAtom),
    st.integers(1, 3).map(PowerAtom),
)
# without an atom, a polynomial; with one at the top, a series on every route
_polynomial_exprs = _trees(_numbers)
_series_exprs = st.tuples(_trees(st.one_of(_numbers, _atoms)), _atoms).map(lambda ea: Mul(*ea))


@given(_trees(st.one_of(_numbers, _atoms)), _polynomial_exprs, _series_exprs)
@settings(max_examples=80)
def test_eval_matches_a_series_only_evaluator(expr, poly, series):
    lifted = [
        Add(poly, series), Add(series, poly), Sub(poly, series), Sub(series, poly),
        Mul(poly, series), Mul(series, poly), Pow(poly, 0), Pow(series, 0),
    ]
    for case in [expr, poly, series, *lifted]:
        value = eval_expression(case, T6)
        assert isinstance(value, SymSeries)
        assert value == oracles.eval_as_series(case, T6)


@pytest.mark.parametrize(
    "text",
    [
        "s[2] + h[2] - p[2] + 3*s[1,1] - h[1]*p[1]",
        "q*s[2,1] - s[2]*s[1] + h[2]*p[1]",
        "q*s[2] + s[2]*q - 2*q*s[2]",
        "(s[2] + s[1,1])*(q - 1)",
        "(q - 1)*(s[2] + s[1,1])*u - s[2]",
        "s[3] - h[3] + s[2,1] - s[2]*s[1] + s[1,1]*s[1]",
        "s[7] + s[2] - h[4]*h[3] + p[7]",
        "-s[2] - -(h[2] - q) + 1",
        "q*-s[2] + (s[1]^2)*v - (s[1] + p[1])^2",
        "(1 + q)^3*s[2,1] - u*v*p[2] - 7",
    ],
)
def test_sums_of_atoms_match_a_series_only_evaluator(text):
    expr = parse_expression(text)
    assert eval_expression(expr, T6) == oracles.eval_as_series(expr, T6)


def test_a_sum_that_cancels_is_zero_and_an_atom_past_the_truncation_drops():
    assert not evaluate("(q + 1)*s[2,1] - s[2,1] - q*s[2,1]")
    assert not eval_expression(parse_expression("s[4,3] + h[7] - p[7]"), T6)
    assert eval_expression(parse_expression("s[7] + s[2]"), T6) == schur((2,), T6)


@given(_exprs)
@settings(max_examples=80)
def test_digits_bound_covers_numerators_and_denominators(expr):
    bound = bounds(expr)
    # two weights past the bound, so a term past it would show
    value = eval_expression(expr, Truncation.flat(0, bound.weight + 2))
    cells = [
        (i, j)
        for i in range(bound.du + 1)
        for j in range(bound.dv + 1)
        if bound.lo <= i - j <= bound.hi and bound.tlo <= i + j <= bound.thi
    ]
    assert bound.monomials == len(cells) <= bound.grid
    for (_, rho), coeff in value.items():
        assert sum(rho) <= bound.weight
        assert len(coeff) <= bound.monomials
        for (i, j), c in coeff.items():
            assert i <= bound.du and j <= bound.dv and bound.lo <= i - j <= bound.hi
            assert bound.tlo <= i + j <= bound.thi
            assert log10(abs(c.numerator)) <= bound.digits + 1e-9
            assert log10(c.denominator) <= bound.digits + 1e-9


def test_digits_bound_examples():
    def digits(text):
        return bounds(parse_expression(text)).digits

    assert digits("2^1000") == pytest.approx(1000 * log10(2))
    assert digits("(1+q)^1000") == pytest.approx(1000 * log10(2))
    assert digits("-7*q") == pytest.approx(log10(7))
    assert digits("h[3]") == pytest.approx(log10(6))
    assert digits("p[9]^4 + 0^0") == pytest.approx(log10(2))
    assert digits("s[2]^2") == pytest.approx(2 * log10(2))
    # x^0 is 1, but x is still evaluated on the way
    assert digits("(2^10)^0") == pytest.approx(10 * log10(2))
    huge = "9" * 400
    assert digits(f"(99^{huge})^0 + (99^{huge})^0") == float("inf")


# -- tables -----------------------------------------------------------------------


GOOD_DOC = """
# comment line
M[0,3] = s[3]

M[1,3] = q^3*s[3] - s[1,1,1]  # trailing comment
"""


def test_parse_table():
    table = parse_table(GOOD_DOC)
    assert table.keys() == [(0, 3), (1, 3)]
    t = Truncation.flat(0, 3)
    assert table.entries[(1, 3)] == schur((3,), t).scale(HodgePoly.q(3)) - schur(
        (1, 1, 1), t
    )


def test_bad_row_shape():
    with pytest.raises(TableFormatError) as err:
        parse_table("M[0,3] s[3]")
    assert "line 1" in str(err.value)
    with pytest.raises(TableFormatError):
        parse_table("M[a,b] = s[3]")
    with pytest.raises(TableFormatError):
        parse_table("N[0,3] = s[3]")


def test_duplicate_key():
    with pytest.raises(TableFormatError) as err:
        parse_table("M[0,3] = s[3]\nM[0,3] = s[3]")
    assert "duplicate" in str(err.value) and "line 2" in str(err.value)


def test_stability_violation():
    with pytest.raises(TableFormatError) as err:
        parse_table("M[0,2] = s[2]")
    assert "unstable" in str(err.value)
    with pytest.raises(TableFormatError):
        parse_table("M[1,0] = 1")


def test_weight_mismatch():
    with pytest.raises(TableFormatError) as err:
        parse_table("M[0,4] = s[3]")
    assert "weight 4" in str(err.value)
    with pytest.raises(TableFormatError):
        parse_table("M[0,3] = s[3] + s[2]")
    with pytest.raises(TableFormatError):
        parse_table("M[0,3] = s[3] + 1")


def test_first_bad_line_is_reported():
    # rows are read in file order, so an expression error on line 2 comes
    # before the malformed row on line 3 and the unstable key on line 4
    with pytest.raises(ExprParseError) as err:
        parse_table("M[0,3] = s[3]\nM[0,4] = s[4] +\nM[0,5] s[5]\nM[0,2] = s[2]")
    assert err.value.line == 2
    with pytest.raises(TableFormatError) as err:
        parse_table("M[0,3] = s[3]\nM[0,2] = s[2]\nM[0,4] = s[3]\nM[0,3] = s[3]")
    assert str(err.value).startswith("line 2: M[0,2] is unstable")
    with pytest.raises(PreconditionError) as err:
        parse_table("M[0,3] = s[3]\nM[0,4] = s[4]^0*p[31]\nM[0,3] = s[3]")
    assert str(err.value).startswith("line 2: weight may reach 35")


def test_expression_error_carries_file_position():
    with pytest.raises(ExprParseError) as err:
        parse_table("M[0,3] = s[3]\nM[0,4] = s[4] + ")
    assert err.value.line == 2


def test_render_entry_forms():
    t = Truncation.flat(0, 4)
    q = HodgePoly.q()
    entry = schur((4,), t).scale(q) - schur((2, 2), t)
    assert render_entry(entry, 4) == "q*s[4] - s[2,2]"
    entry = schur((4,), t).scale(q**4 - q**2) + schur((3, 1), t) - schur((2, 1, 1), t).scale(q)
    assert render_entry(entry, 4) == "(q^4 - q^2)*s[4] + s[3,1] - q*s[2,1,1]"
    entry = schur((1,), Truncation.flat(0, 1)).scale(2 * q**6)
    assert render_entry(entry, 1) == "2*q^6*s[1]"
    assert render_entry(SymSeries.zero(t), 4) == "0"
    # all-negative coefficients keep a factored sign
    entry = schur((2,), Truncation.flat(0, 2)).scale(-(q + 1) * q)
    assert render_entry(entry, 2) == "-(q^2 + q)*s[2]"


def test_render_entry_rejects_non_integral():
    t = Truncation.flat(0, 2)
    entry = schur((2,), t).scale(HodgePoly.const(Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        render_entry(entry, 2)


def test_render_table_names_the_off_diagonal_row():
    table = parse_table("M[0,3] = s[3]\nM[1,1] = q*s[1]\nM[2,1] = (q^4 + v^2*q)*s[1]\n")
    with pytest.raises(OffDiagonalError) as raised:
        render_table(table)
    assert str(raised.value) == "M[2,1]: off-diagonal term u^1*v^3"
    assert raised.value.exponents == (1, 3) and raised.value.row == "M[2,1]"


def test_table_round_trip():
    table = parse_table(GOOD_DOC)
    text = render_table(table)
    assert parse_table(text) == table
    assert render_table(parse_table(text)) == text
