"""Expression language and file format for moduli tables.

The grammar is deliberately small: integer literals, the coefficient symbols
q, u, v, the atoms s[mu], h[n], p[n], the operators + - * ^ and parentheses.
Multiplication is always explicit ("q*s[4]", never "qs[4]") and partitions
must be written weakly decreasing; both rules exist to surface transcription
errors instead of silently repairing them.

Text is scanned by one compiled pattern, a token per match.  A part of an
expression with no s, h or p atom evaluates to a polynomial in u and v; a
sum or difference of any length is one call to ``series.linear_combination``
with a (sign, polynomial factors, series factor) per term, a lone s or h atom
passed as its partition and read off its character row there, so that every
coefficient of the sum is added as ints and reduced once.

A table document has one row "M[g,n] = expression" per line, with '#'
comments and blank lines ignored.  Rendering a table produces a canonical
form (rows sorted by (g, n), Schur terms in reverse-lexicographic partition
order, coefficients in descending powers of q) that parses back to the same
table; the shipped dataset file is a fixed point of render-then-parse.
"""

from __future__ import annotations

import re
import sys
from math import lgamma, log, log10
from typing import Union

from .errors import ExprParseError, OffDiagonalError, PreconditionError, TableFormatError
from .hodge import MAX_CELLS, HodgePoly, _wrap, join_signed, magnitude
from .partitions import Partition, count_partitions_up_to, format_partition, weight
from .pipeline import ModuliTable, _Record, is_stable
from .series import _ONE, SymSeries, Truncation, linear_combination, power_sum, schur

# The largest weight ``evaluate`` and a table row take on.  Work grows with
# the number of partitions of the weight: on a 2-core host shared with
# other work, Python 3.11, evaluating s[30] takes about 0.1 s, as do
# s[10,10,10] and the staircase s[7,6,5,4,3,2,1] with two more rows,
# s[7,6,5,4,3,2,1,1,1] (0.07-0.12 s); s[35] about 0.25-0.35 s, s[40]
# about 0.85 s and s[5]^16 (weight 80, its products, not its characters)
# 6-9 s.  ``expr 's[30]'`` takes about 0.27 s end to end, the rest of it
# start-up and printing.
MAX_EXPR_WEIGHT = 30

# The most monomials u^i*v^j a coefficient may hold, by the bound
# ``Bounds.monomials``, in ``evaluate`` and in a table row.  On the same
# host, ``expr`` took end to end about 0.23 s for (1+q)^1023 (bound 1024),
# 0.17 s for (1+q+q^2)^511 (1023) and 0.11 s for (q+u+v+1)^21 (484), most
# of it start-up and printing, while evaluating (1+q)^2047 (2048) took
# 0.9 s, against 0.1 s for (1+q)^1023.  A Serre polynomial of M_{g,n}
# within the largest truncation has degree under 20 in u and in v, so its
# bound stays under 400.
MAX_MONOMIALS = 1024

# The most terms times monomials times digits, by the bound
# ``Bounds.size``, that an expression in ``evaluate`` or a table row may
# reach: the caps above hold one at a time, but work and output grow with
# their product.  On the same host, ``expr`` took end to end 0.29 s and
# printed 2.5 MB for (1+q)^1000*h[6] (bound 9.2e6), 0.32 s for s[30]
# (9.6e5, the largest bound in the tests) and 0.85 s and 17 MB for
# (1+q)^1000*h[12] (8.5e7), while (1+q)^1000*h[20] (8.7e8) took 5.7 s and
# printed 141 MB.  The rows of the shipped table stay under 10^4.
MAX_SIZE = 10**7

# The deepest nesting of parentheses and unary minus an expression may
# have.  Each level takes four stack frames in the parser and a few in
# ``bounds`` and the evaluation, so this keeps every walk far from the
# interpreter's recursion limit; the shipped table nests two deep.
MAX_NESTING = 100

# A coefficient may spread over at most ``hodge.MAX_CELLS`` cells, by the
# bound ``Bounds.grid``: the products of ``hodge.Packing`` hold it as one int
# with a digit per cell, so this caps their size where the monomial bound
# cannot, as for (u+v)^32, 33 monomials in 2145 cells.

# -- abstract syntax -------------------------------------------------------------


class _Node:
    """A syntax-tree node: equal only to a node of the same class with equal
    fields, and hashable, so not to be changed once built.  Its fields are
    its ``__slots__``.  Plain classes, not dataclasses: building those costs
    milliseconds at every import of the package."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class IntLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class VarAtom(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name  # "q", "u" or "v"


class SchurAtom(_Node):
    __slots__ = ("mu",)

    def __init__(self, mu: Partition):
        self.mu = mu


class HomAtom(_Node):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class PowerAtom(_Node):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand


class Add(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Sub(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Mul(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent


Expr = Union[IntLit, VarAtom, SchurAtom, HomAtom, PowerAtom, Neg, Add, Sub, Mul, Pow]


def _unchain(expr: Expr) -> tuple[Expr, list[Add | Sub | Mul]]:
    """Split the left-deep chain that the parser makes of a + b - c ... (or
    of a * b * c ...) into its first operand and its links in order, so a
    walk over a long sum or product takes no stack per term; any other node
    is a first operand with no links."""
    kinds = Mul if isinstance(expr, Mul) else (Add, Sub)
    links = []
    while isinstance(expr, kinds):
        links.append(expr)
        expr = expr.left
    links.reverse()
    return expr, links


# -- tokenizer --------------------------------------------------------------------


class _Token(_Record):
    __slots__ = ()
    kind: str  # "int", "name", a punctuation character, or "eof"
    text: str
    line: int
    col: int

    def __new__(cls, kind, text, line, col):
        return tuple.__new__(cls, (kind, text, line, col))


# One token per match, after any spaces, tabs and carriage returns: a
# newline, an int, a run of ASCII letters, a punctuation character, or any
# other character, which is an error.  Trailing blanks match nothing.  It
# is compiled on the first scan, through re's cache, so an import does not
# pay for it.
_SCAN = r"[ \t\r]*(?:(\n)|([0-9]+)|([A-Za-z]+)|([][(),^*+-])|([^ \t\r]))"
_ATOM_NAMES = set("quvshp")


def _tokenize(text: str, line: int, col: int) -> list[_Token]:
    tokens = []
    append, new = tokens.append, tuple.__new__
    limit = sys.get_int_max_str_digits()
    origin = -col  # the column of index i of text is i - origin
    for m in re.finditer(_SCAN, text):
        group = m.lastindex
        word = m[group]
        if group == 4:
            append(new(_Token, (word, word, line, m.end() - 1 - origin)))
            continue
        if group == 1:
            line += 1
            origin = m.end() - 1
            continue
        col = m.start(group) - origin
        if group == 2:
            if limit and len(word) > limit:
                raise ExprParseError(
                    f"integer literal of {len(word)} digits exceeds the {limit}-digit limit",
                    line,
                    col,
                )
            append(new(_Token, ("int", word, line, col)))
        elif group == 3:
            if len(word) != 1 or word not in _ATOM_NAMES:
                raise ExprParseError(f"unknown symbol {word!r}", line, col)
            append(new(_Token, ("name", word, line, col)))
        else:
            raise ExprParseError(f"unexpected character {word!r}", line, col)
    append(new(_Token, ("eof", "", line, len(text) - origin)))
    return tokens


# -- parser -----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0  # open parentheses and unary minuses around the token

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

    def nest(self, token: _Token) -> None:
        """Enter a parenthesis or unary minus, refusing one past
        ``MAX_NESTING``: each takes stack frames in the parser and in the
        walks over the tree."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprParseError(
                f"parentheses and unary minus nest deeper than {MAX_NESTING} levels",
                token.line,
                token.col,
            )

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.nest(self.advance())
            node = Neg(self.factor())
            self.depth -= 1
            return node
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
            self.nest(self.advance())
            node = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
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


class Bounds(_Record):
    """Syntactic upper bounds on the value of an expression, read off the
    syntax tree by :func:`bounds` without evaluating anything."""

    __slots__ = ()
    weight: int  # p-weight of any term
    du: int  # power of u in any coefficient
    dv: int  # power of v in any coefficient
    lo: int  # lo <= i - j <= hi for every monomial u^i*v^j of a coefficient
    hi: int
    tlo: int  # tlo <= i + j <= thi for every such monomial
    thi: int
    norm: float  # log10 of the l1 norm, the sum of |coefficient| over all terms
    den: float  # log10 of a common multiple of the denominators

    def __new__(cls, weight, du, dv, lo, hi, tlo, thi, norm, den):
        return tuple.__new__(cls, (weight, du, dv, lo, hi, tlo, thi, norm, den))

    @property
    def digits(self) -> float:
        """A bound on log10 of every numerator and denominator of the
        coefficients, so the value prints if this is below the interpreter's
        digit limit for int-to-str conversion."""
        return self.norm + self.den

    @property
    def size(self) -> float:
        """The terms times the monomials times the digits: a bound on the
        partitions of weight at most ``weight`` (each a possible term),
        times :attr:`monomials`, times 1 + :attr:`digits`, which grows with
        the work and the printed length of the value."""
        return count_partitions_up_to(self.weight) * self.monomials * (1 + self.digits)

    @property
    def monomials(self) -> int:
        """The number of monomials u^i*v^j with i <= du, j <= dv,
        lo <= i - j <= hi and tlo <= i + j <= thi: a bound on the monomials
        of any coefficient.  Counted along d = i - j or t = i + j, whichever
        takes fewer values; for each, the other has the parity of the first
        and t >= |d|, i = (t + d)/2 <= du and j = (t - d)/2 <= dv.  Past
        2^16 values of each, :attr:`grid`, a coarser bound, stands in."""
        du, dv = self.du, self.dv
        dlo, dhi = max(self.lo, -dv), min(self.hi, du)
        tlo, thi = max(self.tlo, 0), min(self.thi, du + dv)
        if min(dhi - dlo, thi - tlo) > 1 << 16:
            return self.grid
        if dhi - dlo <= thi - tlo:
            spans = ((d, max(tlo, abs(d)), min(thi, 2 * du - d, 2 * dv + d)) for d in range(dlo, dhi + 1))
        else:
            spans = ((t, max(dlo, -t, t - 2 * dv), min(dhi, t, 2 * du - t)) for t in range(tlo, thi + 1))
        return sum(_same_parity(*span) for span in spans)

    @property
    def grid(self) -> int:
        """(min(du, dv) + 1) * (hi - lo + 1), the cells of the smaller of
        the two packings of ``hodge.Packing`` (by i - j and the power of u,
        or of v) that hold a coefficient: a bound on the size of its packed
        form, and on its monomials."""
        return (min(self.du, self.dv) + 1) * (self.hi - self.lo + 1)


def _same_parity(n: int, a: int, b: int) -> int:
    """The number of ints in [a, b] with the parity of n."""
    a += (a - n) % 2
    return (b - a) // 2 + 1 if a <= b else 0


def bounds(expr: Expr) -> Bounds:
    # Grades add under products and take the max under sums; the intervals
    # of i - j and i + j add under products and take the hull under sums.  The l1
    # norm is subadditive under +, submultiplicative under * and ^, and at
    # most 1 for s, h and p atoms; s and h coefficients have denominators
    # dividing n!, so a numerator is at most the l1 norm times the
    # denominator.  x^0 is 1, but x is still evaluated: it keeps the bounds
    # of x, with the intervals widened to hold 0.  So every bound, the
    # intervals by their widths, grows from each operand to its parent, and
    # the bounds of the whole also cover each intermediate value.
    if isinstance(expr, IntLit):
        return Bounds(0, 0, 0, 0, 0, 0, 0, log10(abs(expr.value)) if expr.value else 0.0, 0.0)
    if isinstance(expr, VarAtom):
        # u^i*v^j: u = u^1*v^0, v = u^0*v^1 and q = u^1*v^1
        i, j = int(expr.name != "v"), int(expr.name != "u")
        return Bounds(0, i, j, i - j, i - j, i + j, i + j, 0.0, 0.0)
    if isinstance(expr, PowerAtom):
        return Bounds(expr.n, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
    if isinstance(expr, (SchurAtom, HomAtom)):
        n = weight(expr.mu) if isinstance(expr, SchurAtom) else expr.n
        return Bounds(n, 0, 0, 0, 0, 0, 0, 0.0, lgamma(n + 1) / log(10))
    if isinstance(expr, Neg):
        return bounds(expr.operand)
    if isinstance(expr, Pow):
        base = bounds(expr.base)
        k = expr.exponent
        if k == 0:
            return Bounds(
                *base[:3], min(base.lo, 0), max(base.hi, 0), min(base.tlo, 0), max(base.thi, 0),
                base.norm, base.den,
            )
        # A float cap keeps a huge exponent from overflowing the
        # conversion; the sizes then read inf.
        kf = min(k, sys.float_info.max)
        return Bounds(
            *(k * grade for grade in base[:7]), kf * base.norm, kf * base.den
        )
    if isinstance(expr, (Add, Sub, Mul)):
        first, links = _unchain(expr)
        a = bounds(first)
        for link in links:
            b = bounds(link.right)
            if isinstance(link, Mul):
                a = Bounds(*(x + y for x, y in zip(a, b)))
                continue
            hi, lo = max(a.norm, b.norm), min(a.norm, b.norm)
            norm = hi + log10(1 + 10 ** (lo - hi)) if lo < hi else hi + log10(2)
            a = Bounds(
                *map(max, a[:3], b[:3]),
                min(a.lo, b.lo), max(a.hi, b.hi), min(a.tlo, b.tlo), max(a.thi, b.thi),
                norm, a.den + b.den,
            )
        return a
    raise TypeError(f"not an expression node: {expr!r}")


# u^i*v^j of each coefficient symbol, as (i, j)
_VARIABLES = {"q": (1, 1), "u": (1, 0), "v": (0, 1)}


def eval_expression(expr: Expr, trunc: Truncation) -> SymSeries:
    """Evaluate to a series at lambda^0; q expands to u*v."""
    return _series(_eval(expr, trunc), trunc)


def _eval(expr: Expr, trunc: Truncation) -> HodgePoly | SymSeries | Partition:
    """The value of expr: a polynomial where it has no s, h or p atom, else
    a series, or the partition of a lone s or h atom, left for the sum or
    product around it to read off.  A sum or difference is one call to
    ``linear_combination``; a polynomial becomes a constant series only
    there, and times a series it scales it."""
    if isinstance(expr, IntLit):
        return _wrap({(0, 0): expr.value} if expr.value else {}, 1)
    if isinstance(expr, VarAtom):
        return _wrap({_VARIABLES[expr.name]: 1}, 1)
    if isinstance(expr, SchurAtom):
        return expr.mu
    if isinstance(expr, HomAtom):
        return (expr.n,)
    if isinstance(expr, PowerAtom):
        return power_sum(expr.n, trunc)
    if isinstance(expr, Pow):
        base = _eval(expr.base, trunc)
        return (base if isinstance(base, HodgePoly) else _series(base, trunc)) ** expr.exponent
    if isinstance(expr, Mul):
        scale, value = _term(expr, trunc)
        return scale if value is None else linear_combination(trunc, ((1, scale, value),))
    if isinstance(expr, (Add, Sub, Neg)):
        first, links = _unchain(expr)
        terms = [(1, first), *((1 if isinstance(link, Add) else -1, link.right) for link in links)]
        items = []
        for sign, term in terms:
            while isinstance(term, Neg):
                sign, term = -sign, term.operand
            items.append((sign, *_term(term, trunc)))
        if any(value is not None for _, _, value in items):
            return linear_combination(trunc, items)
        signed = [scale if sign == 1 else -scale for sign, scale, _ in items]
        return sum(signed[1:], signed[0])
    raise TypeError(f"not an expression node: {expr!r}")


def _term(expr: Expr, trunc: Truncation) -> tuple[HodgePoly, SymSeries | Partition | None]:
    """A product (or a single factor) as its polynomial factors multiplied
    together and its series factors: the partition of a lone s or h atom,
    the product of two or more as series, or None for none."""
    first, links = _unchain(expr) if isinstance(expr, Mul) else (expr, [])
    scale, series = None, []
    for factor in [first, *(link.right for link in links)]:
        value = _eval(factor, trunc)
        if isinstance(value, HodgePoly):
            scale = value if scale is None else scale * value
        else:
            series.append(value)
    value = series[0] if series else None
    for factor in series[1:]:
        value = _series(value, trunc) * _series(factor, trunc)
    return (_ONE if scale is None else scale), value


def _series(value: HodgePoly | SymSeries | Partition, trunc: Truncation) -> SymSeries:
    if isinstance(value, SymSeries):
        return value
    if isinstance(value, HodgePoly):
        return SymSeries.constant(trunc, value)
    return schur(value, trunc)


def _check_size(expr: Expr, where: str = "") -> int:
    """Refuse an expression whose weight may pass ``MAX_EXPR_WEIGHT``, whose
    coefficients might be too long to print, or one of whose coefficients
    may hold more than ``MAX_MONOMIALS`` monomials or spread over more than
    ``hodge.MAX_CELLS`` cells, or whose terms times monomials times digits
    may pass ``MAX_SIZE``, before any evaluation; return its weight bound.
    ``where`` prefixes the refusal message."""
    bound = bounds(expr)
    if bound.weight > MAX_EXPR_WEIGHT:
        raise PreconditionError(
            f"{where}weight may reach {magnitude(bound.weight)}, past the "
            f"limit of {MAX_EXPR_WEIGHT} for an expression"
        )
    limit = sys.get_int_max_str_digits()
    if limit and bound.digits >= limit:
        raise PreconditionError(
            f"{where}coefficients may run to {bound.digits + 1:.6g} digits, past "
            f"the {limit}-digit limit for printing an integer"
        )
    if bound.monomials > MAX_MONOMIALS:
        raise PreconditionError(
            f"{where}a coefficient may hold {magnitude(bound.monomials)} "
            f"monomials in u and v, past the limit of {MAX_MONOMIALS}"
        )
    if bound.grid > MAX_CELLS:
        raise PreconditionError(
            f"{where}a coefficient may spread over {magnitude(bound.grid)} cells "
            f"of i - j by the power of u or v, past the limit of {MAX_CELLS}"
        )
    if bound.size > MAX_SIZE:
        raise PreconditionError(
            f"{where}the value may reach {bound.size:.3g} terms times monomials "
            f"times digits, past the limit of {MAX_SIZE}"
        )
    return bound.weight


def evaluate(text: str) -> SymSeries:
    """Parse and evaluate standalone expression text, sizing the truncation
    from the expression itself.  Expressions that ``_check_size`` refuses
    are refused before any evaluation."""
    expr = parse_expression(text)
    return eval_expression(expr, Truncation.flat(0, _check_size(expr)))


# -- table documents ----------------------------------------------------------------


_ROW = re.compile(r"^M\[(\d+),(\d+)\]\s*=\s*(\S.*?)\s*$")


def parse_table(text: str) -> ModuliTable:
    """Read a table document row by row in file order: check the row's
    shape, that its key is new and stable, refuse it where ``evaluate``
    would, evaluate it and check it is homogeneous of weight n.  The first
    bad line is the one reported."""
    entries: dict[tuple[int, int], SymSeries] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        m = _ROW.match(body)
        if m is None:
            raise TableFormatError(
                f"line {line_no}: expected 'M[g,n] = expression', got {body!r}"
            )
        g, n = int(m.group(1)), int(m.group(2))
        if (g, n) in entries:
            raise TableFormatError(f"line {line_no}: duplicate entry M[{g},{n}]")
        if not is_stable(g, n):
            raise TableFormatError(
                f"line {line_no}: M[{g},{n}] is unstable (need n >= 1 and 2g-2+n > 0)"
            )
        col = raw.index(m.group(3), raw.index("=")) + 1
        expr = parse_expression(m.group(3), line=line_no, col=col)
        bound = max(_check_size(expr, f"line {line_no}: "), n)
        value = eval_expression(expr, Truncation.flat(0, bound))
        for (_, rho) in value._terms:
            if weight(rho) != n:
                raise TableFormatError(
                    f"line {line_no}: M[{g},{n}] must be homogeneous of "
                    f"weight {n}; found a term of weight {weight(rho)}"
                )
        entries[(g, n)] = value.with_truncation(Truncation.flat(0, n))
    return ModuliTable(entries)


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
    pieces = []
    for mu, coeff in entry.schur_coefficients(0, n):
        if not coeff.is_integral():
            raise PreconditionError(
                f"table rendering needs integer coefficients, got {coeff.render()}"
            )
        negative = coeff._terms[max(coeff._terms)] < 0  # the sign of the top term
        magnitude = -coeff if negative else coeff
        schur_text = f"s{format_partition(mu)}"
        q_text = magnitude.render_q(explicit_mul=True)
        if len(coeff) > 1:
            q_text = f"({q_text})"
        body = schur_text if magnitude == 1 else f"{q_text}*{schur_text}"
        pieces.append(("-" if negative else "+", body))
    return join_signed(pieces)


def render_table(table: ModuliTable) -> str:
    """Canonical document form; parsing it back yields an equal table.
    An off-diagonal entry raises OffDiagonalError naming its row."""
    lines = [TABLE_HEADER]
    for (g, n) in table.keys():
        try:
            body = render_entry(table.entries[(g, n)], n)
        except OffDiagonalError as exc:
            raise OffDiagonalError(*exc.exponents, row=f"M[{g},{n}]") from None
        lines.append(f"M[{g},{n}] = {body}")
    return "\n".join(lines) + "\n"
