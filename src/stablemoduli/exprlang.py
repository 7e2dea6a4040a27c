"""Expression language and file format for moduli tables.

The grammar is deliberately small: integer literals, the coefficient symbols
q, u, v, the atoms s[mu], h[n], p[n], the operators + - * ^ and parentheses.
Multiplication is always explicit ("q*s[4]", never "qs[4]") and partitions
must be written weakly decreasing; both rules exist to surface transcription
errors instead of silently repairing them.

Text is split into tokens, plain strings, by one ``re.findall`` and parsed
by a recursive descent over a local index; line and column are worked out
only for a refusal, by scanning the text again.  The syntax tree holds a
run of + and - as one ``Sum`` of its terms in text order, a term after a
'-' wrapped in ``Neg``, and a run of * as one ``Product`` of its factors, so
no walk takes a stack frame per operand; h[n] is read as s[n], the same
function.  A part of an expression with no s, h or p atom evaluates to a
polynomial in u and v, held as a dict of int numerators keyed by (i, j); a
sum with a series term, of any length, is one call to
``series.linear_combination`` with a (sign, polynomial factors, series
factor) per term, a lone s atom passed as its partition and read off its
character row there, so that every coefficient of the sum is added as ints
and reduced once.

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
from .hodge import MAX_CELLS, _wrap, join_signed, magnitude
from .partitions import Partition, count_partitions_up_to, format_partition, weight
from .pipeline import ModuliTable, _Record, is_stable
from .series import SymSeries, Truncation, linear_combination, power_sum, schur

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
# have.  Each level takes at most two stack frames in the parser and a few
# in ``bounds`` and the evaluation, so this keeps every walk far from the
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


class PowerAtom(_Node):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand


class Sum(_Node):
    """Two or more terms in text order; a term after a binary '-' is a Neg."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms


class Product(_Node):
    """Two or more factors in text order."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent


Expr = Union[IntLit, VarAtom, SchurAtom, PowerAtom, Neg, Sum, Product, Pow]


# -- tokenizer --------------------------------------------------------------------


# A token is a run of ASCII digits, a run of ASCII letters or any other
# character but a blank; spaces, tabs, carriage returns and newlines only
# separate tokens.  The pattern is compiled on the first scan, through re's
# cache, so an import does not pay for it.
_TOKEN = r"[0-9]+|[A-Za-z]+|[^ \t\r\n]"
_ATOM_NAMES = set("quvshp")
_PUNCTUATION = set("[](),^*+-")


def _tokenize(text: str, line: int, col: int) -> list[tuple[str, int, int]]:
    """The tokens of text as (text, line, col), then ("", line, col) at the
    end of input; or the first scan error in text order: an int past the
    interpreter's digit limit, a run of letters that is not one of q, u, v,
    s, h, p, or a character outside the grammar."""
    tokens = []
    limit = sys.get_int_max_str_digits()
    start, origin = 0, -col  # the column of index i of text is i - origin
    for word, at in [*((m[0], m.start()) for m in re.finditer(_TOKEN, text)), ("", len(text))]:
        breaks = text.count("\n", start, at)
        if breaks:
            line += breaks
            origin = text.rindex("\n", start, at)
        start, col = at, at - origin
        first = word[:1]
        if first.isascii() and first.isdigit():
            if limit and len(word) > limit:
                raise ExprParseError(
                    f"integer literal of {len(word)} digits exceeds the {limit}-digit limit",
                    line,
                    col,
                )
        elif first.isascii() and first.isalpha():
            if len(word) != 1 or word not in _ATOM_NAMES:
                raise ExprParseError(f"unknown symbol {word!r}", line, col)
        elif word and word not in _PUNCTUATION:
            raise ExprParseError(f"unexpected character {word!r}", line, col)
        tokens.append((word, line, col))
    return tokens


# -- parser -----------------------------------------------------------------------


class _Refusal(Exception):
    """A parse refusal: its message and the index of the token it names."""


def _found(token: str) -> str:
    return repr(token) if token else "end of input"


def parse_expression(text: str, line: int = 1, col: int = 1) -> Expr:
    """Parse a full expression; trailing input is an error.

    The tokens are plain strings, "" past the last, read by a recursive
    descent over a local index.  Only a refusal reads positions: it scans
    the text again with ``_tokenize``, which raises any scan error first,
    and otherwise names the line and column of the token refused."""
    tokens = re.findall(_TOKEN, text)
    tokens.append("")
    i = depth = 0

    def expr() -> Expr:
        # a sum of products; a lone term or factor stays itself
        nonlocal i
        terms = []
        op = "+"
        while True:
            factors = [factor()]
            while tokens[i] == "*":
                i += 1
                factors.append(factor())
            term = factors[0] if len(factors) == 1 else Product(tuple(factors))
            terms.append(term if op == "+" else Neg(term))
            op = tokens[i]
            if op != "+" and op != "-":
                return terms[0] if len(terms) == 1 else Sum(tuple(terms))
            i += 1

    def factor() -> Expr:
        nonlocal i, depth
        token = tokens[i]
        if token == "(" or token == "-":
            depth += 1
            if depth > MAX_NESTING:
                raise _Refusal(
                    f"parentheses and unary minus nest deeper than {MAX_NESTING} levels", i
                )
            i += 1
            if token == "-":
                node = Neg(factor())
                depth -= 1
                return node
            node = expr()
            if tokens[i] != ")":
                raise _Refusal(f"expected ')', got {_found(tokens[i])}", i)
            i += 1
            depth -= 1
        elif token == "q" or token == "u" or token == "v":
            i += 1
            node = VarAtom(token)
        elif "0" <= token < ":":  # a run of ASCII digits
            i += 1
            node = IntLit(int(token))
        elif token == "s" or token == "h" or token == "p":
            opening = i + 1
            if tokens[opening] != "[":
                raise _Refusal(f"expected '[', got {_found(tokens[opening])}", opening)
            what = "a partition part" if token == "s" else "an index"
            parts = []
            while True:
                i += 2
                part = tokens[i]
                if not "0" <= part < ":":
                    raise _Refusal(f"expected {what}, got {_found(part)}", i)
                parts.append(int(part))
                if tokens[i + 1] != "," or token != "s":
                    break
            i += 1
            if tokens[i] != "]":
                raise _Refusal(f"expected ']', got {_found(tokens[i])}", i)
            i += 1
            if token == "s":
                if min(parts) < 1:
                    raise _Refusal("partition parts must be positive", opening)
                if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
                    raise _Refusal("partition parts must be weakly decreasing", opening)
                node = SchurAtom(tuple(parts))
            elif parts[0] < 1:
                raise _Refusal("index must be positive", opening)
            else:  # h_n = s_(n)
                node = SchurAtom((parts[0],)) if token == "h" else PowerAtom(parts[0])
        else:
            raise _Refusal(f"expected a value, got {_found(token)}", i)
        if tokens[i] == "^":
            i += 1
            exponent = tokens[i]
            if not "0" <= exponent < ":":
                raise _Refusal(
                    f"expected a nonnegative integer exponent, got {_found(exponent)}", i
                )
            i += 1
            node = Pow(node, int(exponent))
        return node

    try:
        node = expr()
        if tokens[i]:
            raise _Refusal(f"unexpected trailing input {tokens[i]!r}", i)
        return node
    except _Refusal as refusal:
        message, at = refusal.args
    except ValueError:
        # int() refuses a literal past the digit limit, which _tokenize
        # raises below as a scan error
        message, at = "", 0
    _, line, col = _tokenize(text, line, col)[at]
    raise ExprParseError(message, line, col)


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

    def size(self, monomials: int) -> float:
        """The terms times the monomials times the digits: a bound on the
        partitions of weight at most ``weight`` (each a possible term),
        times ``monomials`` (:attr:`monomials`, passed in so that a caller
        that has it does not count it again), times 1 + :attr:`digits`,
        which grows with the work and the printed length of the value."""
        return count_partitions_up_to(self.weight) * monomials * (1 + self.digits)

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


# u^i*v^j of each coefficient symbol, as (i, j)
_VARIABLES = {"q": (1, 1), "u": (1, 0), "v": (0, 1)}
_new = tuple.__new__
_FLOAT_MAX = sys.float_info.max


def bounds(expr: Expr) -> Bounds:
    # Grades add under products and take the max under sums; the intervals
    # of i - j and i + j add under products and take the hull under sums.  The l1
    # norm is subadditive under +, submultiplicative under * and ^, and at
    # most 1 for s, h and p atoms; s and h coefficients have denominators
    # dividing n!, so a numerator is at most the l1 norm times the
    # denominator.  x^0 is 1, but x is still evaluated: it keeps the bounds
    # of x, with the intervals widened to hold 0.  So every bound, the
    # intervals by their widths, grows from each operand to its parent, and
    # the bounds of the whole also cover each intermediate value.  A sum or
    # product folds its operands in text order, its nine bounds held as
    # locals, and builds one tuple at its end.
    kind = type(expr)
    if kind is IntLit:
        value = expr.value
        return _new(Bounds, (0, 0, 0, 0, 0, 0, 0, log10(abs(value)) if value else 0.0, 0.0))
    if kind is VarAtom:
        # u^i*v^j: u = u^1*v^0, v = u^0*v^1 and q = u^1*v^1
        i, j = _VARIABLES[expr.name]
        return _new(Bounds, (0, i, j, i - j, i - j, i + j, i + j, 0.0, 0.0))
    if kind is SchurAtom:
        n = weight(expr.mu)
        return _new(Bounds, (n, 0, 0, 0, 0, 0, 0, 0.0, lgamma(n + 1) / log(10)))
    if kind is Sum or kind is Product:
        first, *rest = expr.terms if kind is Sum else expr.factors
        w, du, dv, lo, hi, tlo, thi, norm, den = bounds(first)
        for operand in rest:
            bw, bdu, bdv, blo, bhi, btlo, bthi, bnorm, bden = bounds(operand)
            if kind is Product:
                w, du, dv, lo, hi = w + bw, du + bdu, dv + bdv, lo + blo, hi + bhi
                tlo, thi, norm = tlo + btlo, thi + bthi, norm + bnorm
            else:
                w, du, dv = w if w >= bw else bw, du if du >= bdu else bdu, dv if dv >= bdv else bdv
                lo, hi = lo if lo <= blo else blo, hi if hi >= bhi else bhi
                tlo, thi = tlo if tlo <= btlo else btlo, thi if thi >= bthi else bthi
                top, low = (norm, bnorm) if norm >= bnorm else (bnorm, norm)
                norm = top + log10(1 + 10 ** (low - top)) if low < top else top + log10(2)
            den = den + bden
        return _new(Bounds, (w, du, dv, lo, hi, tlo, thi, norm, den))
    if kind is Pow:
        w, du, dv, lo, hi, tlo, thi, norm, den = bounds(expr.base)
        k = expr.exponent
        if k == 0:
            return _new(
                Bounds,
                (w, du, dv, min(lo, 0), max(hi, 0), min(tlo, 0), max(thi, 0), norm, den),
            )
        # A float cap keeps a huge exponent from overflowing the
        # conversion; the sizes then read inf.
        kf = min(k, _FLOAT_MAX)
        return _new(
            Bounds, (k * w, k * du, k * dv, k * lo, k * hi, k * tlo, k * thi, kf * norm, kf * den)
        )
    if kind is Neg:
        return bounds(expr.operand)
    if kind is PowerAtom:
        return _new(Bounds, (expr.n, 0, 0, 0, 0, 0, 0, 0.0, 0.0))
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expression(expr: Expr, trunc: Truncation) -> SymSeries:
    """Evaluate to a series at lambda^0; q expands to u*v."""
    return _series(_eval(expr, trunc), trunc)


# A polynomial in u and v while it is evaluated: its numerators keyed by
# (i, j), nonzero ints, since the grammar has no division.
Numerators = dict[tuple[int, int], int]


def _eval(expr: Expr, trunc: Truncation) -> Numerators | SymSeries | Partition:
    """The value of expr: the numerators of a polynomial where it has no s,
    h or p atom, else a series, or the partition of a lone s or h atom,
    left for the sum or product around it to read off.  A sum with a series
    term is one call to ``linear_combination``; a polynomial becomes a
    ``HodgePoly`` only there or as a constant series, and times a series it
    scales it."""
    kind = type(expr)
    if kind is IntLit:
        return {(0, 0): expr.value} if expr.value else {}
    if kind is VarAtom:
        return {_VARIABLES[expr.name]: 1}
    if kind is SchurAtom:
        return expr.mu
    if kind is PowerAtom:
        return power_sum(expr.n, trunc)
    if kind is Pow:
        base = _eval(expr.base, trunc)
        if type(base) is dict:
            return _power(base, expr.exponent)
        return _series(base, trunc) ** expr.exponent
    if kind is Product:
        scale, value = _term(expr, trunc)
        return scale if value is None else linear_combination(trunc, ((1, _wrap(scale, 1), value),))
    if kind is Sum or kind is Neg:
        items = []
        for term in expr.terms if kind is Sum else (expr,):
            sign = 1
            while type(term) is Neg:
                sign, term = -sign, term.operand
            items.append((sign, *_term(term, trunc)))
        if any(value is not None for _, _, value in items):
            return linear_combination(
                trunc, [(sign, _wrap(scale, 1), value) for sign, scale, value in items]
            )
        out: Numerators = {}
        get = out.get
        for sign, scale, _ in items:
            for key, c in scale.items():
                out[key] = get(key, 0) + c if sign == 1 else get(key, 0) - c
        return {key: c for key, c in out.items() if c}
    raise TypeError(f"not an expression node: {expr!r}")


def _term(expr: Expr, trunc: Truncation) -> tuple[Numerators, SymSeries | Partition | None]:
    """A product (or a single factor) as its polynomial factors multiplied
    together and its series factors: the partition of a lone s or h atom,
    the product of two or more as series, or None for none."""
    scale, series = None, []
    for factor in expr.factors if type(expr) is Product else (expr,):
        value = _eval(factor, trunc)
        if type(value) is dict:
            scale = value if scale is None else _product(scale, value)
        else:
            series.append(value)
    value = series[0] if series else None
    for factor in series[1:]:
        value = _series(value, trunc) * _series(factor, trunc)
    return ({(0, 0): 1} if scale is None else scale), value


def _product(a: Numerators, b: Numerators) -> Numerators:
    """a times b: where one of them is a monomial c*u^k*v^l, the other's
    keys shifted by (k, l) and its numerators scaled by c, as
    ``HodgePoly.__mul__`` does; else its packed product."""
    if len(a) == 1:
        a, b = b, a
    if len(b) != 1:
        return (_wrap(a, 1) * _wrap(b, 1))._terms
    ((k, l), c), = b.items()
    return {(i + k, j + l): n * c for (i, j), n in a.items()}


def _power(base: Numerators, k: int) -> Numerators:
    """base^k: of a monomial c*u^i*v^j, c^k*u^(ki)*v^(kj); else the power of
    ``HodgePoly``."""
    if len(base) == 1:
        ((i, j), c), = base.items()
        return {(i * k, j * k): c**k}
    return (_wrap(base, 1) ** k)._terms


def _series(value: Numerators | SymSeries | Partition, trunc: Truncation) -> SymSeries:
    if type(value) is dict:
        return SymSeries.constant(trunc, _wrap(value, 1))
    if isinstance(value, SymSeries):
        return value
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
    monomials = bound.monomials
    if monomials > MAX_MONOMIALS:
        raise PreconditionError(
            f"{where}a coefficient may hold {magnitude(monomials)} "
            f"monomials in u and v, past the limit of {MAX_MONOMIALS}"
        )
    if bound.grid > MAX_CELLS:
        raise PreconditionError(
            f"{where}a coefficient may spread over {magnitude(bound.grid)} cells "
            f"of i - j by the power of u or v, past the limit of {MAX_CELLS}"
        )
    size = bound.size(monomials)
    if size > MAX_SIZE:
        raise PreconditionError(
            f"{where}the value may reach {size:.3g} terms times monomials "
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


# ASCII digits only, as in the expression: M[٣,1] is not a key.  The blanks
# are the scanner's, so any other character after '=' is the scanner's to
# name at its column.
_ROW = re.compile(r"^M\[(\d+),(\d+)\][ \t\r]*=[ \t\r]*([^ \t\r].*?)[ \t\r]*$", re.ASCII)


def parse_table(text: str) -> ModuliTable:
    """Read a table document row by row in file order: check the row's
    shape, that its key is new and stable, refuse it where ``evaluate``
    would, evaluate it and check it is homogeneous of weight n.  The first
    bad line is the one reported.  Lines end at a newline only, the one
    line break the expression scanner counts, and its blanks (space, tab
    and carriage return) are a row's only blanks."""
    entries: dict[tuple[int, int], SymSeries] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip(" \t\r")
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
