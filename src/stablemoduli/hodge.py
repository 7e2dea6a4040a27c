"""Exact sparse polynomials in the Hodge variables u and v.

A ``HodgePoly`` maps exponent pairs ``(i, j)`` (the powers of u and v) to
nonzero rational coefficients.  It is the coefficient ring for everything
else in this package: Serre and Hodge polynomials of varieties live here,
with ``q = u*v`` as the preferred shorthand for diagonal monomials.

Values are immutable; all arithmetic returns fresh polynomials in canonical
form (no stored zeros, iteration in ascending ``(i, j)`` order).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import ExprParseError, OffDiagonalError, PreconditionError

Scalar = Union[int, Fraction]


class HodgePoly:
    """Sparse bivariate polynomial over the rationals, keyed by (i, j)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                c = Fraction(c)
                if c:
                    clean[(i, j)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "HodgePoly":
        return cls()

    @classmethod
    def one(cls) -> "HodgePoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: Scalar) -> "HodgePoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> "HodgePoly":
        return cls({(i, j): c})

    @classmethod
    def u(cls) -> "HodgePoly":
        return cls({(1, 0): 1})

    @classmethod
    def v(cls) -> "HodgePoly":
        return cls({(0, 1): 1})

    @classmethod
    def q(cls, k: int = 1) -> "HodgePoly":
        """The diagonal monomial q^k, where q = u*v."""
        if k < 0:
            raise ValueError("q exponent must be nonnegative")
        return cls({(k, k): 1})

    @classmethod
    def from_q_coefficients(cls, coeffs: Iterable[Scalar]) -> "HodgePoly":
        """Build a pure-q polynomial from coefficients c0, c1, ... of q^k."""
        return cls({(k, k): c for k, c in enumerate(coeffs)})

    # -- basic protocol ----------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms in canonical ascending (i, j) order."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HodgePoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == HodgePoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"HodgePoly({self.render()!r})"

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                del out[key]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "HodgePoly":
        return _wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "HodgePoly":
        return _coerce(other) - self

    def __mul__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        if isinstance(other, (int, Fraction)):
            # A nonzero scalar times a nonzero coefficient is nonzero, so
            # only a zero scalar can leave zeros behind.
            if not other:
                return _wrap({})
            return _wrap({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, HodgePoly):
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HodgePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = HodgePoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- lambda-ring and duality actions ------------------------------------

    def adams(self, k: int) -> "HodgePoly":
        """k-th Adams operation: u^i v^j becomes u^{ki} v^{kj}."""
        if k < 1:
            raise PreconditionError(f"Adams operation needs k >= 1, got {k}")
        if k == 1:
            return self
        return _wrap({(k * i, k * j): c for (i, j), c in self._terms.items()})

    def dual(self, d: int) -> "HodgePoly":
        """Poincare-duality flip at dimension d: u^i v^j -> u^{d-i} v^{d-j}.

        Defined only when every exponent is at most d.
        """
        if d < 0:
            raise PreconditionError("duality dimension must be nonnegative")
        for (i, j) in self._terms:
            if i > d or j > d:
                raise PreconditionError(
                    f"duality domain violation: term u^{i}*v^{j} exceeds dimension {d}"
                )
        return _wrap({(d - i, d - j): c for (i, j), c in self._terms.items()})

    # -- diagonal (pure q) inspection ---------------------------------------

    def off_diagonal_witness(self) -> tuple[int, int] | None:
        """The smallest (i, j) with i != j carrying a term, or None."""
        bad = [key for key in self._terms if key[0] != key[1]]
        return min(bad) if bad else None

    def is_diagonal(self) -> bool:
        return self.off_diagonal_witness() is None

    def q_coefficients(self) -> list[tuple[int, Fraction]]:
        """Nonzero coefficients of q^k, ascending in k.

        Raises OffDiagonalError if any term has i != j.
        """
        witness = self.off_diagonal_witness()
        if witness is not None:
            raise OffDiagonalError(*witness)
        return sorted((i, c) for (i, _), c in self._terms.items())

    def q_coefficient_list(self) -> list[Fraction]:
        """Dense [c0, c1, ..., c_deg] of q-coefficients (empty for zero)."""
        pairs = self.q_coefficients()
        if not pairs:
            return []
        out = [Fraction(0)] * (pairs[-1][0] + 1)
        for k, c in pairs:
            out[k] = c
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def max_exponent(self) -> int:
        """Largest single-variable exponent appearing (0 for the zero poly)."""
        return max((max(i, j) for (i, j) in self._terms), default=0)

    # -- text forms ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: ascending (i, j), q-shorthand on the diagonal.

        Examples: "0", "1 + q", "3*q^2", "1/2*u^2*v".
        """
        if not self._terms:
            return "0"
        pieces = []
        for (i, j), c in self.items():
            mono = _render_monomial(i, j)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    @classmethod
    def from_text(cls, text: str) -> "HodgePoly":
        """Parse the canonical rendering back into a polynomial."""
        return _parse_hodge(text)

    def render_q(self, explicit_mul: bool = False) -> str:
        """Pure-q rendering in descending degree, e.g. "q^2 + 5q + 1".

        With explicit_mul, coefficients are joined with "*" so the output is
        valid in the table expression language.  Raises OffDiagonalError on
        polynomials with off-diagonal terms.
        """
        pairs = self.q_coefficients()
        if not pairs:
            return "0"
        pieces = []
        for k, c in reversed(pairs):
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                qpow = "q" if k == 1 else f"q^{k}"
                if mag == 1:
                    body = qpow
                elif mag.denominator == 1:
                    body = f"{mag}*{qpow}" if explicit_mul else f"{mag}{qpow}"
                else:
                    body = f"{mag}*{qpow}" if explicit_mul else f"({mag}){qpow}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text


def _coerce(value: object) -> HodgePoly:
    if isinstance(value, HodgePoly):
        return value
    if isinstance(value, (int, Fraction)):
        return HodgePoly.const(value)
    return NotImplemented


def _wrap(terms: dict[tuple[int, int], Fraction]) -> HodgePoly:
    poly = HodgePoly.__new__(HodgePoly)
    poly._terms = terms
    return poly


def _render_monomial(i: int, j: int) -> str:
    if i == j:
        if i == 0:
            return ""
        return "q" if i == 1 else f"q^{i}"
    parts = []
    if i:
        parts.append("u" if i == 1 else f"u^{i}")
    if j:
        parts.append("v" if j == 1 else f"v^{j}")
    return "*".join(parts)


_HODGE_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<var>[uvq])|(?P<op>[\^*+-])|(?P<bad>\S))"
)


def _parse_hodge(text: str) -> HodgePoly:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _HODGE_TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ExprParseError(f"unexpected character {m.group('bad')!r}", col=m.start("bad") + 1)
        for kind in ("rat", "var", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()

    result = HodgePoly.zero()
    idx = 0

    def parse_factor() -> HodgePoly:
        nonlocal idx
        if idx >= len(tokens):
            raise ExprParseError("expected a factor at end of input", col=len(text) + 1)
        kind, value, col = tokens[idx]
        if kind == "rat":
            idx += 1
            base = HodgePoly.const(Fraction(value))
        elif kind == "var":
            idx += 1
            base = {"u": HodgePoly.u(), "v": HodgePoly.v(), "q": HodgePoly.q()}[value]
        else:
            raise ExprParseError(f"expected a factor, got {value!r}", col=col)
        if idx < len(tokens) and tokens[idx][:2] == ("op", "^"):
            idx += 1
            if idx >= len(tokens) or tokens[idx][0] != "rat" or "/" in tokens[idx][1]:
                raise ExprParseError("exponent must be a nonnegative integer", col=col)
            base = base ** int(tokens[idx][1])
            idx += 1
        return base

    def parse_term() -> HodgePoly:
        nonlocal idx
        value = parse_factor()
        while idx < len(tokens) and tokens[idx][:2] == ("op", "*"):
            idx += 1
            value = value * parse_factor()
        return value

    sign = 1
    if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] in "+-":
        sign = -1 if tokens[idx][1] == "-" else 1
        idx += 1
    if idx >= len(tokens):
        raise ExprParseError("empty polynomial text", col=1)
    result = result + sign * parse_term()
    while idx < len(tokens):
        kind, value, col = tokens[idx]
        if kind != "op" or value not in "+-":
            raise ExprParseError(f"expected '+' or '-', got {value!r}", col=col)
        idx += 1
        result = result + (-1 if value == "-" else 1) * parse_term()
    return result
