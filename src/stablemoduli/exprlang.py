"""Expression language and file format for moduli tables.

The grammar is deliberately small: integer literals, the coefficient symbols
q, u, v, the atoms s[mu], h[n], p[n], the operators + - * ^ and parentheses.
Multiplication is always explicit ("q*s[4]", never "qs[4]") and partitions
must be written weakly decreasing; both rules exist to surface transcription
errors instead of silently repairing them.

A table document has one row "M[g,n] = expression" per line, with '#'
comments and blank lines ignored.  Rendering a table produces a canonical
form (rows sorted by (g, n), Schur terms in reverse-lexicographic partition
order, coefficients in descending powers of q) that parses back to the same
table; the shipped dataset file is a fixed point of render-then-parse.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import lgamma, log, log10
from typing import Union

from .errors import ExprParseError, PreconditionError, TableFormatError
from .hodge import HodgePoly
from .partitions import Partition, format_partition, weight
from .pipeline import ModuliTable, is_stable
from .series import (
    SymSeries,
    Truncation,
    complete_homogeneous,
    power_sum,
    schur,
)

# The largest weight ``evaluate`` and a table row take on.  Work grows with
# the number of partitions of the weight: on a 2-core host with Python 3.11,
# evaluating s[30] takes about 0.3 s, s[35] about 0.6 s, s[40] about 1.5 s
# and s[5]^16 (weight 80) about 21 s.
MAX_EXPR_WEIGHT = 30

# The largest power of u or v a table row may hold.  The Serre polynomial of
# M_{g,n} has degree at most 3g-3+n in each, under 20 for every slot within
# the largest truncation; a slot report lists every power of q up to its top
# one, so a row holding q^999999999 would ask for 10^9 of them.
MAX_ROW_DEGREE = 100

# -- abstract syntax -------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarAtom:
    name: str  # "q", "u" or "v"


@dataclass(frozen=True)
class SchurAtom:
    mu: Partition


@dataclass(frozen=True)
class HomAtom:
    n: int


@dataclass(frozen=True)
class PowerAtom:
    n: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[IntLit, VarAtom, SchurAtom, HomAtom, PowerAtom, Neg, Add, Sub, Mul, Pow]


# -- tokenizer --------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", a punctuation character, or "eof"
    text: str
    line: int
    col: int


_PUNCT = set("[](),^*+-")
_ATOM_NAMES = set("quvshp")


def _tokenize(text: str, line: int, col: int) -> list[_Token]:
    tokens = []
    idx = 0
    while idx < len(text):
        ch = text[idx]
        if ch == "\n":
            idx += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            idx += 1
            col += 1
        elif ch.isascii() and ch.isdigit():
            m = re.match(r"[0-9]+", text[idx:])
            limit = sys.get_int_max_str_digits()
            if limit and m.end() > limit:
                raise ExprParseError(
                    f"integer literal of {m.end()} digits exceeds the {limit}-digit limit",
                    line,
                    col,
                )
            tokens.append(_Token("int", m.group(), line, col))
            idx += m.end()
            col += m.end()
        elif ch.isascii() and ch.isalpha():
            m = re.match(r"[A-Za-z]+", text[idx:])
            name = m.group()
            if len(name) != 1 or name not in _ATOM_NAMES:
                raise ExprParseError(f"unknown symbol {name!r}", line, col)
            tokens.append(_Token("name", name, line, col))
            idx += 1
            col += 1
        elif ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            idx += 1
            col += 1
        else:
            raise ExprParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# -- parser -----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        token = self.tokens[self.idx]
        self.idx += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            found = repr(token.text) if token.kind != "eof" else "end of input"
            raise ExprParseError(f"expected {what}, got {found}", token.line, token.col)
        return self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            right = self.term()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            token = self.expect("int", "a nonnegative integer exponent")
            return Pow(base, int(token.text))
        return base

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return IntLit(int(token.text))
        if token.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if token.kind == "name":
            self.advance()
            if token.text in "quv":
                return VarAtom(token.text)
            if token.text == "s":
                return SchurAtom(self._bracket_partition())
            index = self._bracket_index()
            return HomAtom(index) if token.text == "h" else PowerAtom(index)
        found = repr(token.text) if token.kind != "eof" else "end of input"
        raise ExprParseError(f"expected a value, got {found}", token.line, token.col)

    def _bracket_partition(self) -> Partition:
        opening = self.expect("[", "'['")
        parts = [int(self.expect("int", "a partition part").text)]
        while self.peek().kind == ",":
            self.advance()
            parts.append(int(self.expect("int", "a partition part").text))
        self.expect("]", "']'")
        if any(part < 1 for part in parts):
            raise ExprParseError("partition parts must be positive", opening.line, opening.col)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ExprParseError(
                "partition parts must be weakly decreasing", opening.line, opening.col
            )
        return tuple(parts)

    def _bracket_index(self) -> int:
        opening = self.expect("[", "'['")
        token = self.expect("int", "an index")
        self.expect("]", "']'")
        if int(token.text) < 1:
            raise ExprParseError("index must be positive", opening.line, opening.col)
        return int(token.text)


def parse_expression(text: str, line: int = 1, col: int = 1) -> Expr:
    """Parse a full expression; trailing input is an error."""
    parser = _Parser(_tokenize(text, line, col))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ExprParseError(
            f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.col
        )
    return node


def weight_bound(expr: Expr) -> int:
    """Syntactic upper bound on the p-weight of any term of the value."""
    return _grade_bound(expr, _atom_weight)


def degree_bound(expr: Expr) -> int:
    """Syntactic upper bound on the power of u, and of v, in any term of
    the value."""
    return _grade_bound(expr, lambda atom: int(isinstance(atom, VarAtom)))


def _atom_weight(atom: Expr) -> int:
    if isinstance(atom, SchurAtom):
        return weight(atom.mu)
    if isinstance(atom, (HomAtom, PowerAtom)):
        return atom.n
    return 0


def _grade_bound(expr: Expr, atom_grade) -> int:
    # A grade that adds under products, given on the atoms.
    if isinstance(expr, (IntLit, VarAtom, SchurAtom, HomAtom, PowerAtom)):
        return atom_grade(expr)
    if isinstance(expr, Neg):
        return _grade_bound(expr.operand, atom_grade)
    if isinstance(expr, (Add, Sub)):
        return max(_grade_bound(expr.left, atom_grade), _grade_bound(expr.right, atom_grade))
    if isinstance(expr, Mul):
        return _grade_bound(expr.left, atom_grade) + _grade_bound(expr.right, atom_grade)
    if isinstance(expr, Pow):
        return expr.exponent * _grade_bound(expr.base, atom_grade)
    raise TypeError(f"not an expression node: {expr!r}")


def digits_bound(expr: Expr) -> float:
    """Syntactic upper bound on log10 of every numerator and denominator of
    the value's coefficients, so a value is printable if this is below the
    interpreter's digit limit for int-to-str conversion."""
    norm, den = _size_bound(expr)
    return norm + den


def _size_bound(expr: Expr) -> tuple[float, float]:
    # (log10 of a bound on the l1 norm, the sum of |coefficient| over all
    # terms; log10 of a common multiple of the denominators).  The l1 norm
    # is subadditive under +, submultiplicative under * and ^, and at most
    # 1 for s, h and p atoms; s and h coefficients have denominators
    # dividing n!.  A numerator is then at most l1 norm times denominator.
    # Both parts are nonnegative and grow from every operand to its parent,
    # so the bound of the whole also covers each intermediate value.
    if isinstance(expr, IntLit):
        return (log10(abs(expr.value)) if expr.value else 0.0), 0.0
    if isinstance(expr, (VarAtom, PowerAtom)):
        return 0.0, 0.0
    if isinstance(expr, (SchurAtom, HomAtom)):
        n = weight(expr.mu) if isinstance(expr, SchurAtom) else expr.n
        return 0.0, lgamma(n + 1) / log(10)
    if isinstance(expr, Neg):
        return _size_bound(expr.operand)
    if isinstance(expr, (Add, Sub, Mul)):
        norm_a, den_a = _size_bound(expr.left)
        norm_b, den_b = _size_bound(expr.right)
        if isinstance(expr, Mul):
            return norm_a + norm_b, den_a + den_b
        hi, lo = max(norm_a, norm_b), min(norm_a, norm_b)
        norm = hi + log10(1 + 10 ** (lo - hi)) if lo < hi else hi + log10(2)
        return norm, den_a + den_b
    if isinstance(expr, Pow):
        norm, den = _size_bound(expr.base)
        if expr.exponent == 0:
            # The base is still evaluated, so its bound stays.
            return norm, den
        # A float cap keeps a huge exponent from overflowing the
        # conversion; the products then read inf.
        n = min(expr.exponent, sys.float_info.max)
        return n * norm, n * den
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expression(expr: Expr, trunc: Truncation) -> SymSeries:
    """Evaluate to a series at lambda^0; q expands to u*v."""
    if isinstance(expr, IntLit):
        return SymSeries.constant(trunc, expr.value)
    if isinstance(expr, VarAtom):
        poly = {"q": HodgePoly.q(), "u": HodgePoly.u(), "v": HodgePoly.v()}[expr.name]
        return SymSeries.constant(trunc, poly)
    if isinstance(expr, SchurAtom):
        return schur(expr.mu, trunc)
    if isinstance(expr, HomAtom):
        return complete_homogeneous(expr.n, trunc)
    if isinstance(expr, PowerAtom):
        return power_sum(expr.n, trunc)
    if isinstance(expr, Neg):
        return -eval_expression(expr.operand, trunc)
    if isinstance(expr, Add):
        return eval_expression(expr.left, trunc) + eval_expression(expr.right, trunc)
    if isinstance(expr, Sub):
        return eval_expression(expr.left, trunc) - eval_expression(expr.right, trunc)
    if isinstance(expr, Mul):
        return eval_expression(expr.left, trunc) * eval_expression(expr.right, trunc)
    if isinstance(expr, Pow):
        return eval_expression(expr.base, trunc) ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def _check_size(expr: Expr, where: str = "") -> int:
    """Refuse an expression whose weight may pass ``MAX_EXPR_WEIGHT``, or
    whose coefficients might be too long to print, before any evaluation;
    return its weight bound.  ``where`` prefixes the refusal message."""
    top = weight_bound(expr)
    if top > MAX_EXPR_WEIGHT:
        raise PreconditionError(
            f"{where}weight may reach {top}, past the limit of "
            f"{MAX_EXPR_WEIGHT} for an expression"
        )
    limit = sys.get_int_max_str_digits()
    bound = digits_bound(expr)
    if limit and bound >= limit:
        raise PreconditionError(
            f"{where}coefficients may run to {bound + 1:.6g} digits, past the "
            f"{limit}-digit limit for printing an integer"
        )
    return top


def evaluate(text: str) -> SymSeries:
    """Parse and evaluate standalone expression text, sizing the truncation
    from the expression itself.  Expressions whose weight may pass
    ``MAX_EXPR_WEIGHT``, or whose coefficients might be too long to print,
    are refused before any evaluation."""
    expr = parse_expression(text)
    return eval_expression(expr, Truncation.flat(0, _check_size(expr)))


# -- table documents ----------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    g: int
    n: int
    expr_text: str
    line: int
    col: int  # column where the expression starts


@dataclass(frozen=True)
class SourceTable:
    rows: tuple[TableRow, ...]


_ROW = re.compile(r"^M\[(\d+),(\d+)\]\s*=\s*(\S.*?)\s*$")


def parse_source(text: str) -> SourceTable:
    """Split a table document into rows; duplicate keys are rejected here."""
    rows = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        m = _ROW.match(body.strip())
        if m is None:
            raise TableFormatError(
                f"line {line_no}: expected 'M[g,n] = expression', got {body.strip()!r}"
            )
        g, n = int(m.group(1)), int(m.group(2))
        if (g, n) in seen:
            raise TableFormatError(f"line {line_no}: duplicate entry M[{g},{n}]")
        seen.add((g, n))
        col = raw.index(m.group(3), raw.index("=")) + 1
        rows.append(TableRow(g, n, m.group(3), line_no, col))
    return SourceTable(tuple(rows))


def build_table(source: SourceTable) -> ModuliTable:
    """Evaluate every row, refusing one that ``evaluate`` would refuse or
    whose power of u or v may pass ``MAX_ROW_DEGREE``, and check stability
    and homogeneous weight."""
    entries: dict[tuple[int, int], SymSeries] = {}
    for row in source.rows:
        if not is_stable(row.g, row.n):
            raise TableFormatError(
                f"line {row.line}: M[{row.g},{row.n}] is unstable "
                f"(need n >= 1 and 2g-2+n > 0)"
            )
        expr = parse_expression(row.expr_text, line=row.line, col=row.col)
        bound = max(_check_size(expr, f"line {row.line}: "), row.n)
        degree = degree_bound(expr)
        if degree > MAX_ROW_DEGREE:
            raise PreconditionError(
                f"line {row.line}: a power of u or v may reach {degree}, past "
                f"the limit of {MAX_ROW_DEGREE} for a table row"
            )
        value = eval_expression(expr, Truncation.flat(0, bound))
        for (_, rho) in value._terms:
            if weight(rho) != row.n:
                raise TableFormatError(
                    f"line {row.line}: M[{row.g},{row.n}] must be homogeneous of "
                    f"weight {row.n}; found a term of weight {weight(rho)}"
                )
        entries[(row.g, row.n)] = value.with_truncation(Truncation.flat(0, row.n))
    return ModuliTable(entries)


def parse_table(text: str) -> ModuliTable:
    return build_table(parse_source(text))


TABLE_HEADER = (
    "# Equivariant Serre polynomials of open moduli spaces of smooth n-pointed\n"
    "# genus-g curves, written in the Schur basis with coefficients in q = u*v.\n"
    "# One row per space: M[g,n] = expression.\n"
)


def render_entry(entry: SymSeries, n: int) -> str:
    """Canonical right-hand side of a table row.

    Schur terms in reverse-lexicographic partition order; each coefficient
    in descending powers of q with explicit '*', parenthesized when it has
    several terms, with an all-negative coefficient's sign factored out.
    Defined only for diagonal, integer-coefficient entries.
    """
    pairs = entry.schur_coefficients(0, n)
    if not pairs:
        return "0"
    pieces = []
    for mu, coeff in pairs:
        if not coeff.is_integral():
            raise PreconditionError(
                f"table rendering needs integer coefficients, got {coeff.render()}"
            )
        q_terms = coeff.q_coefficients()
        negative = q_terms[-1][1] < 0
        magnitude = -coeff if negative else coeff
        schur_text = f"s{format_partition(mu)}"
        if len(q_terms) == 1:
            k, c = magnitude.q_coefficients()[0]
            factors = []
            if abs(c) != 1:
                factors.append(str(abs(c)))
            if k == 1:
                factors.append("q")
            elif k > 1:
                factors.append(f"q^{k}")
            factors.append(schur_text)
            body = "*".join(factors)
        else:
            body = f"({magnitude.render_q(explicit_mul=True)})*{schur_text}"
        pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def render_table(table: ModuliTable) -> str:
    """Canonical document form; parsing it back yields an equal table."""
    lines = [TABLE_HEADER]
    for (g, n) in table.keys():
        lines.append(f"M[{g},{n}] = {render_entry(table.entries[(g, n)], n)}")
    return "\n".join(lines) + "\n"
