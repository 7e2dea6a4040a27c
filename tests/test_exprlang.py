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
    Bounds,
    IntLit,
    MAX_CELLS,
    MAX_MONOMIALS,
    MAX_NESTING,
    Neg,
    Pow,
    PowerAtom,
    Product,
    SchurAtom,
    Sum,
    VarAtom,
    _check_size,
    _tokenize,
    bounds,
    eval_expression,
    evaluate,
    parse_expression,
    parse_table,
    render_entry,
    render_table,
)
from stablemoduli.cli import main
from stablemoduli.hodge import HodgePoly
from stablemoduli.partitions import partitions_of
from stablemoduli.pipeline import is_stable
from stablemoduli.series import SymSeries, Truncation, schur

import oracles
from strategies import expressions

T6 = Truncation.flat(0, 6)


# -- parsing ---------------------------------------------------------------------


def test_parse_examples():
    e = parse_expression("q*s[4] - s[2,2]")
    assert e == Sum((Product((VarAtom("q"), SchurAtom((4,)))), Neg(SchurAtom((2, 2)))))
    e = parse_expression("q^4*s[1] + q^3*s[1]")
    assert e == Sum((
        Product((Pow(VarAtom("q"), 4), SchurAtom((1,)))),
        Product((Pow(VarAtom("q"), 3), SchurAtom((1,)))),
    ))
    e = parse_expression("q - p[2]*s[2,1]")
    assert e == Sum((VarAtom("q"), Neg(Product((PowerAtom(2), SchurAtom((2, 1)))))))
    # h_n = s_(n); a lone operand stays itself, and parentheses nest a sum
    assert parse_expression("h[3]") == SchurAtom((3,))
    assert parse_expression("((q))") == VarAtom("q")
    assert parse_expression("1 - 2 + -3 - -4") == Sum(
        (IntLit(1), Neg(IntLit(2)), Neg(IntLit(3)), Neg(Neg(IntLit(4))))
    )
    assert parse_expression("(q + 1)*u + v") == Sum(
        (Product((Sum((VarAtom("q"), IntLit(1))), VarAtom("u"))), VarAtom("v"))
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
    """The tokens of a scanner as (text, line, col), or its error."""
    try:
        return [tuple(token)[-3:] for token in scanner(text, line, col)]
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


def _parsed(parser, text, line, col):
    """The syntax tree of a parser, or its error."""
    try:
        return parser(text, line, col)
    except ExprParseError as exc:
        return str(exc), exc.line, exc.col


# Expression texts with one character put in or taken out, most of them
# refused by the parser rather than the scanner.
_edits = st.sampled_from(list("()[],^*+-qsh7 \n") + [""])
_damaged = st.tuples(expressions(), st.integers(0, 80), _edits).map(
    lambda tpc: tpc[0][: tpc[1]] + tpc[2] + tpc[0][tpc[1] + (tpc[2] == "") :]
)
_origins = st.sampled_from([(1, 1), (1, 9), (4, 1), (12, 40)]) | st.tuples(
    st.integers(1, 10**6), st.integers(1, 10**6)
)


@given(expressions() | _damaged | _scanner_texts, _origins)
@settings(max_examples=400)
def test_parser_matches_a_parser_by_tokens(text, origin):
    # the same tree, or the same message, line and column
    want = _parsed(oracles.parse_by_tokens, text, *origin)
    assert _parsed(parse_expression, text, *origin) == want


@pytest.mark.parametrize(
    "text",
    [
        "(" * MAX_NESTING + "q" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1),
        "-" * MAX_NESTING + "q",
        "-" * (MAX_NESTING + 1) + "q",
        "-(" * (MAX_NESTING // 2) + "q" + ")" * (MAX_NESTING // 2),
        "(-" * (MAX_NESTING // 2) + "-q" + ")" * (MAX_NESTING // 2),
        "q + " + "7" * 4301,
        "s[" + "1" * 4301 + "]",
        "q^" + "2" * 4301,
        "q + ) + " + "9" * 4301,
        "(q + ) + w",
        "2^3^2",
        "(q)^2^2",
        "q + 1 )",
        "q q",
        "s[2,1] s[1]",
        "s[2,]", "s[0,0]", "s[1,2]", "s[2", "s 2", "h[2,1]", "p[0]", "h[]", "q^-1", "q^s[2]",
        "", "  \n\t", "q +\n\n", "-", "()", "(q", "q*", "*q",
    ],
)
@pytest.mark.parametrize("origin", [(1, 1), (3, 17)])
def test_parser_matches_a_parser_by_tokens_on_edge_cases(text, origin):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the literals of 4301 digits pass it
    try:
        want = _parsed(oracles.parse_by_tokens, text, *origin)
        assert _parsed(parse_expression, text, *origin) == want
    finally:
        sys.set_int_max_str_digits(old)


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
    leaves = [IntLit(2), PowerAtom(2), Neg(IntLit(2))]
    for i, a in enumerate(leaves):
        for j, b in enumerate(leaves):
            assert (a == b) == (i == j)
    assert len(set(leaves + [IntLit(2)])) == 3
    a, b = VarAtom("q"), SchurAtom((2, 1))
    assert Sum((a, b)) != Product((a, b)) and Sum((a, b)) != Sum((b, a))
    assert Sum((a, b)) != Sum((a, Neg(b))) and Sum((a, b)) != Sum((a, b, b))
    assert IntLit(2) != 2 and IntLit(2) != (2,) and Sum((a, b)) != (a, b)
    built = [IntLit(2), Sum((a, b)), Pow(Neg(Product((a, b))), 3)]
    rebuilt = [IntLit(2), Sum((VarAtom("q"), SchurAtom((2, 1)))),
               Pow(Neg(Product((VarAtom("q"), SchurAtom((2, 1))))), 3)]
    for x, y in zip(built, rebuilt):
        assert x == y and x is not y and hash(x) == hash(y)
    assert (Pow(a, 2).base, Pow(a, 2).exponent, Neg(a).operand, PowerAtom(3).n) == (a, 2, a, 3)
    assert (Sum((a, b)).terms, Product((b, a)).factors) == ((a, b), (b, a))
    assert repr(Sum((IntLit(1), Neg(b)))) == (
        "Sum(terms=(IntLit(value=1), Neg(operand=SchurAtom(mu=(2, 1)))))"
    )
    assert repr(Product((a, b))) == "Product(factors=(VarAtom(name='q'), SchurAtom(mu=(2, 1))))"


@pytest.mark.parametrize("op, count", [("+", 600), ("-", 600), ("*", 400)])
def test_long_sums_and_products_are_flat_trees(op, count):
    # equality, hashing and repr walk a flat tuple of operands, not a chain
    # of a frame per operand
    operands = ["q", "s[2,1]", "(u - 1)", "p[2]", "3"]
    text = op.join(operands[k % len(operands)] for k in range(count))
    tree = parse_expression(text)
    assert type(tree) is (Product if op == "*" else Sum)
    assert len(tree.factors if op == "*" else tree.terms) == count
    want = oracles.parse_by_tokens(text)
    assert tree == want and tree is not want and hash(tree) == hash(want)
    assert repr(tree) == repr(want)
    if op != "*":
        terms = [evaluate(operand) for operand in operands]
        total = SymSeries.zero(terms[1].trunc)
        for k in range(count):
            term = terms[k % len(operands)].with_truncation(total.trunc)
            total = total - term if k and op == "-" else total + term
        assert evaluate(text) == total


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


def _trees(leaves: st.SearchStrategy, top: int, max_leaves: int) -> st.SearchStrategy:
    """Syntax trees: sums of 2 to 4 terms, some of them negated, products
    of 2 to 4 factors, negations and powers up to top."""

    def extend(children):
        terms = children | children.map(Neg)
        return st.one_of(
            st.lists(terms, min_size=2, max_size=4).map(lambda ts: Sum(tuple(ts))),
            st.lists(children, min_size=2, max_size=4).map(lambda fs: Product(tuple(fs))),
            children.map(Neg),
            st.tuples(children, st.integers(0, top)).map(lambda bk: Pow(*bk)),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


_exprs = _trees(
    st.one_of(
        st.integers(-4, 4).map(IntLit),
        st.sampled_from("quv").map(VarAtom),
        st.sampled_from([(1,), (2,), (1, 1), (2, 1)]).map(SchurAtom),
    ),
    2,
    6,
)


@given(_exprs, _exprs)
@settings(max_examples=60)
def test_eval_is_a_ring_homomorphism(a, b):
    t = Truncation.flat(0, 8)
    va, vb = eval_expression(a, t), eval_expression(b, t)
    assert eval_expression(Sum((a, b)), t) == va + vb
    assert eval_expression(Sum((a, Neg(b))), t) == va - vb
    assert eval_expression(Sum((a, b, Neg(a))), t) == vb
    assert eval_expression(Product((a, b)), t) == va * vb
    assert eval_expression(Product((a, b, a)), t) == va * vb * va
    assert eval_expression(Neg(a), t) == -va
    assert eval_expression(Pow(a, 2), t) == va * va


_numbers = st.one_of(st.integers(-4, 4).map(IntLit), st.sampled_from("quv").map(VarAtom))
_atoms = st.one_of(
    st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1)]).map(SchurAtom),
    st.integers(1, 3).map(PowerAtom),
)
# without an atom, a polynomial; with one at the top, a series on every route
_polynomial_exprs = _trees(_numbers, 3, 5)
_series_exprs = st.tuples(_trees(_numbers | _atoms, 3, 5), _atoms).map(Product)


@given(_trees(_numbers | _atoms, 3, 5), _polynomial_exprs, _series_exprs)
@settings(max_examples=80)
def test_eval_matches_a_series_only_evaluator(expr, poly, series):
    lifted = [
        Sum((poly, series)), Sum((series, poly)), Sum((poly, Neg(series))),
        Sum((series, Neg(poly))), Sum((poly, series, Neg(poly))),
        Product((poly, series)), Product((series, poly)), Product((poly, series, poly)),
        Pow(poly, 0), Pow(series, 0),
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


@pytest.mark.parametrize("where", ["", "line 2: "])
@pytest.mark.parametrize(
    "text, message",
    [
        ("s[5]^100", "weight may reach 500, past the limit of 30 for an expression"),
        ("s[4]^0*p[31]", "weight may reach 35, past the limit of 30 for an expression"),
        (
            "2^100000",
            "coefficients may run to 30104 digits, past the 4300-digit limit for printing "
            "an integer",
        ),
        (
            "(q+u+v+1)^100*s[1]",
            "a coefficient may hold 10201 monomials in u and v, past the limit of 1024",
        ),
        (
            "q^999999999",
            "a coefficient may spread over 1000000000 cells of i - j by the power of u or v, "
            "past the limit of 4096",
        ),
        (
            "(u+v)^64",
            "a coefficient may spread over 8385 cells of i - j by the power of u or v, "
            "past the limit of 4096",
        ),
        (
            "(1+q)^900*s[5]^3",
            "the value may reach 1.71e+08 terms times monomials times digits, past the limit "
            "of 10000000",
        ),
        (
            "(1+q)^1000*h[20]",
            "the value may reach 8.7e+08 terms times monomials times digits, past the limit "
            "of 10000000",
        ),
    ],
)
def test_size_refusals_read_in_full(text, message, where):
    # the whole message, numbers included, standalone and as a table row
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(PreconditionError) as err:
            if where:
                parse_table(f"M[0,3] = s[3]\nM[0,4] = {text}")
            else:
                evaluate(text)
    finally:
        sys.set_int_max_str_digits(old)
    assert str(err.value) == where + message


@given(expressions())
@settings(max_examples=300)
def test_bounds_match_a_walk_by_records(text):
    expr = parse_expression(text)
    got, want = bounds(expr), oracles.bounds_by_records(expr)
    assert type(got) is Bounds
    # floats included: the refusal messages print them
    for name in Bounds._fields:
        assert getattr(got, name) == getattr(want, name), name
    assert (got.digits, got.monomials, got.grid) == (want.digits, want.monomials, want.grid)


@given(expressions())
@settings(max_examples=150)
def test_evaluate_matches_an_evaluator_by_polynomials(text):
    expr = parse_expression(text)
    try:
        top = _check_size(expr)
    except PreconditionError:
        return  # refused before any evaluation; the claim is for the rest
    assert evaluate(text) == oracles.eval_by_polys(expr, Truncation.flat(0, top))


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


@pytest.mark.parametrize("key", ["M[٣,1]", "M[1,٣]", "M[０,3]"])
def test_row_keys_take_ascii_digits_only(key):
    with pytest.raises(TableFormatError) as err:
        parse_table(f"{key} = (q^7 + 2*q^6 + q^5 + q + 1)*s[1]")
    assert str(err.value).startswith("line 1: expected 'M[g,n] = expression'")


@pytest.mark.parametrize(
    "mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_lines_end_at_newlines_only(mark):
    # a break that is not a newline is a character of the row, and the
    # expression scanner refuses it where it stands
    for doc, col in [
        (f"M[0,3] = s[3] + s[2,1]{mark} - s[1,1,1]", 23),
        (f"M[0,3] = s[3]{mark}M[0,4] = s[4]", 14),
    ]:
        with pytest.raises(ExprParseError) as err:
            parse_table(doc)
        assert f"unexpected character {mark!r}" in str(err.value)
        assert (err.value.line, err.value.col) == (1, col)
    # in a comment it is ignored, and counts no line
    with pytest.raises(ExprParseError) as err:
        parse_table(f"M[0,3] = s[3]\n# a{mark}b\nM[0,4] = s[4] +\n")
    assert (err.value.line, err.value.col) == (3, 16)


@pytest.mark.parametrize(
    "doc, col",
    [
        # only space, tab and carriage return are blanks: any other character
        # leaves the row's shape unmatched or, after '=', is the scanner's to name
        ("\xa0M[0,3] = s[3]", None),
        ("M[0,3]\x0b= s[3]", None),
        ("M[0,3] =\x0cs[3]", 9),
        ("M[0,3] =\xa0s[3]", 9),
        ("M[0,3] = s[3]\u2028", 14),
    ],
)
def test_row_blanks_are_the_scanners_blanks(doc, col, tmp_path, capsys):
    with pytest.raises((TableFormatError, ExprParseError)) as err:
        parse_table(doc)
    if col is None:
        assert str(err.value) == f"line 1: expected 'M[g,n] = expression', got {doc!r}"
    else:
        assert str(err.value) == f"1:{col}: unexpected character {doc[col - 1]!r}"
    path = tmp_path / "rows.dat"
    path.write_text(doc, encoding="utf-8")
    assert main(["table", "--truncation", "3", "--input", str(path)]) == 3
    assert str(err.value) in capsys.readouterr().err


def test_crlf_documents_read_as_newline_documents():
    for doc in [GOOD_DOC, "M[0,3] = s[3]\nM[0,4] = s[4] + \n", "M[0,3] = s[3]\n\nM[0,4] = (q\n"]:
        crlf = doc.replace("\n", "\r\n")
        try:
            want = parse_table(doc)
        except ExprParseError as exc:
            with pytest.raises(ExprParseError) as err:
                parse_table(crlf)
            assert (str(err.value), err.value.line, err.value.col) == (str(exc), exc.line, exc.col)
        else:
            assert parse_table(crlf) == want
    assert parse_table(GOOD_DOC.replace("\n", "\r\n")).keys() == [(0, 3), (1, 3)]


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


def _ascending(poly: dict[int, int]) -> str:
    """A q-polynomial in ascending powers, q^1 written out."""
    text = ""
    for k in sorted(poly):
        c = poly[k]
        mono = str(abs(c)) if k == 0 else f"{abs(c)}*q^{k}"
        if not text:
            text = mono if c > 0 else f"-{mono}"
        else:
            text += f" + {mono}" if c > 0 else f" - {mono}"
    return text


_slots = [(g, n) for g in range(3) for n in range(1, 9) if is_stable(g, n)]


@st.composite
def _generated_documents(draw):
    """A document of rows M[g,n], n <= 8, each an integer q-polynomial on a
    random set of the Schur functions of weight n; rows and terms shuffled,
    powers ascending: (q^0, q^1, ...) unlike the canonical rendering."""
    keys = draw(st.lists(st.sampled_from(_slots), min_size=1, max_size=5, unique=True))
    rows = {}
    lines = ["# generated table document", ""]
    for g, n in keys:
        shapes = partitions_of(n)
        chosen = st.lists(st.sampled_from(shapes), min_size=1, max_size=len(shapes), unique=True)
        nonzero = st.integers(-3, 3).filter(bool)
        coeffs = st.dictionaries(st.integers(0, 4), nonzero, min_size=1, max_size=4)
        row = {mu: draw(coeffs) for mu in draw(chosen)}
        rows[(g, n)] = row
        terms = draw(st.permutations(list(row.items())))
        body = " + ".join(f"({_ascending(c)})*s[{','.join(map(str, mu))}]" for mu, c in terms)
        lines.append(f"M[{g},{n}] = {body}")
    return "\n".join(lines) + "\n", rows


@given(_generated_documents())
@settings(max_examples=40, deadline=None)
def test_rows_of_many_terms_round_trip(document):
    doc, rows = document
    table = parse_table(doc)
    text = render_table(table)
    assert parse_table(text) == table
    assert render_table(parse_table(text)) == text
    for (g, n), row in rows.items():
        read = {
            mu: {k: int(c) for k, c in coeff.q_coefficients()}
            for mu, coeff in table.entries[(g, n)].schur_coefficients(0, n)
        }
        assert read == row
