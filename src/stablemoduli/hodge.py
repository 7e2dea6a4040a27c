"""Exact sparse polynomials in the Hodge variables u and v.

A ``HodgePoly`` is a polynomial in u and v with rational coefficients.  It
is the coefficient ring for everything else in this package: Serre and
Hodge polynomials of varieties live here, with ``q = u*v`` as the preferred
shorthand for diagonal monomials.

The polynomial is stored as integer numerators over one shared positive
denominator: ``_terms`` maps exponent pairs ``(i, j)`` (the powers of u and
v) to nonzero ints and ``_den`` divides them all.  The form is canonical:
the gcd of ``_den`` and all numerators is 1, and the zero polynomial has
``_den == 1``.  Equal values therefore have equal representations.  The
arithmetic works on ints and reduces each result once by that gcd; the
public accessors (``items``, ``coefficient``, ``q_coefficients``) hand out
``Fraction`` coefficients.

``Accumulator`` serves the sums of products that make up series
coefficients: it adds products into per-key integer numerators without
reducing them, and reduces each finished sum once.

Values are immutable; all arithmetic returns fresh polynomials in canonical
form, and ``items`` iterates in ascending ``(i, j)`` order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

from .errors import OffDiagonalError, PreconditionError

Scalar = Union[int, Fraction]


class HodgePoly:
    """Sparse bivariate polynomial over the rationals, keyed by (i, j) and
    stored as integer numerators over one shared denominator."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        given: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                c = Fraction(c)
                if c:
                    given[(i, j)] = c
        # Over the lcm of reduced denominators the numerators are coprime
        # to it, so this is already canonical.
        den = lcm(*(c.denominator for c in given.values()))
        self._terms = {
            key: c.numerator * (den // c.denominator) for key, c in given.items()
        }
        self._den = den

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
        den = self._den
        return iter([(key, Fraction(c, den)) for key, c in sorted(self._terms.items())])

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self._terms.get((i, j), 0), self._den)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = HodgePoly.const(other)
        if isinstance(other, HodgePoly):
            return self._den == other._den and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"HodgePoly({self.render()!r})"

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Bring both over the lcm of the denominators.
        g = gcd(self._den, other._den)
        ma, mb = other._den // g, self._den // g
        if ma == 1:
            out = dict(self._terms)
        else:
            out = {key: c * ma for key, c in self._terms.items()}
        for key, c in other._terms.items():
            if mb != 1:
                c *= mb
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                del out[key]
        return _reduced(out, self._den * ma)

    __radd__ = __add__

    def __neg__(self) -> "HodgePoly":
        return _wrap({key: -c for key, c in self._terms.items()}, self._den)

    def __sub__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "HodgePoly":
        return _coerce(other) - self

    def __mul__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        if isinstance(other, HodgePoly):
            out: dict[tuple[int, int], int] = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    s = out.get(key)
                    s = c1 * c2 if s is None else s + c1 * c2
                    if s:
                        out[key] = s
                    else:
                        del out[key]
            return _reduced(out, self._den * other._den)
        if isinstance(other, Fraction):
            if other.denominator != 1:
                n = other.numerator
                return _reduced(
                    {key: c * n for key, c in self._terms.items()},
                    self._den * other.denominator,
                )
            other = other.numerator
        if isinstance(other, int):
            # A nonzero scalar times a nonzero coefficient is nonzero, so
            # only a zero scalar can leave zeros behind; and with
            # g = gcd(den, n) the pair (den/g, n/g) is coprime, so no
            # further reduction is needed.
            if not other:
                return _wrap({}, 1)
            g = gcd(self._den, other)
            n = other // g
            return _wrap({key: c * n for key, c in self._terms.items()}, self._den // g)
        return NotImplemented

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
        return _wrap({(k * i, k * j): c for (i, j), c in self._terms.items()}, self._den)

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
        return _wrap({(d - i, d - j): c for (i, j), c in self._terms.items()}, self._den)

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
        den = self._den
        return sorted((i, Fraction(c, den)) for (i, _), c in self._terms.items())

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
        return self._den == 1

    # -- text forms ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: ascending (i, j), q-shorthand on the diagonal.

        Examples: "0", "1 + q", "3*q^2", "1/2*u^2*v".
        """
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
        return join_signed(pieces)

    def render_q(self, explicit_mul: bool = False) -> str:
        """Pure-q rendering in descending degree, e.g. "q^2 + 5q + 1".

        With explicit_mul, coefficients are joined with "*" so the output is
        valid in the table expression language.  Raises OffDiagonalError on
        polynomials with off-diagonal terms.
        """
        pieces = []
        for k, c in reversed(self.q_coefficients()):
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
        return join_signed(pieces)


def join_signed(pieces: list[tuple[str, str]], sep: str = " ") -> str:
    """Join (sign, body) pairs, each sign "+" or "-", into one signed sum:
    the first body with only a minus sign, each later one as sep, sign, sep
    and body.  No pieces make "0"."""
    if not pieces:
        return "0"
    sign, body = pieces[0]
    head = body if sign == "+" else f"-{body}"
    return head + "".join(f"{sep}{sign}{sep}{body}" for sign, body in pieces[1:])


def _coerce(value: object) -> HodgePoly:
    if isinstance(value, HodgePoly):
        return value
    if isinstance(value, (int, Fraction)):
        return HodgePoly.const(value)
    return NotImplemented


def _wrap(terms: dict[tuple[int, int], int], den: int) -> HodgePoly:
    """Wrap numerators and a denominator already in canonical form."""
    poly = HodgePoly.__new__(HodgePoly)
    poly._terms = terms
    poly._den = den
    return poly


def _reduced(terms: dict[tuple[int, int], int], den: int) -> HodgePoly:
    """Wrap nonzero numerators over a positive denominator, dividing out
    their common factor (an empty map gets denominator 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {key: c // g for key, c in terms.items()}
    return _wrap(terms, den)


class Accumulator:
    """Sums of products of polynomials, one running sum per key, reduced once.

    Each key holds integer numerators over one positive denominator, left
    unreduced while products are added: a product ``a*b`` lands over
    ``a._den * b._den``, and the running sum is rescaled only when that
    differs from its own denominator.  ``result`` then turns each sum into
    one canonical ``HodgePoly`` with a single gcd.
    """

    __slots__ = ("_sums",)

    def __init__(self):
        # key -> [denominator, {(i, j): numerator}]; numerators may be zero.
        self._sums: dict = {}

    def _entry(self, key, den: int) -> tuple[dict[tuple[int, int], int], int]:
        """The numerators of key and the factor that brings a value over
        ``den`` to the (possibly raised) denominator of the sum."""
        entry = self._sums.get(key)
        if entry is None:
            terms: dict[tuple[int, int], int] = {}
            self._sums[key] = [den, terms]
            return terms, 1
        old, terms = entry
        if old == den:
            return terms, 1
        g = gcd(old, den)
        raise_old = den // g
        if raise_old != 1:
            for ij in terms:
                terms[ij] *= raise_old
            entry[0] = old * raise_old
        return terms, old // g

    def add_product(self, key, a: HodgePoly, b: HodgePoly, scale: int = 1) -> None:
        """Add scale*a*b, for an int scale, into the sum at key."""
        terms, m = self._entry(key, a._den * b._den)
        m *= scale
        get = terms.get
        for (i1, j1), c1 in a._terms.items():
            if m != 1:
                c1 *= m
            for (i2, j2), c2 in b._terms.items():
                ij = (i1 + i2, j1 + j2)
                terms[ij] = get(ij, 0) + c1 * c2

    def add_scaled(self, key, a: HodgePoly, k: int) -> None:
        """Add a*k, for an int k, into the sum at key."""
        terms, m = self._entry(key, a._den)
        k *= m
        get = terms.get
        for ij, c in a._terms.items():
            terms[ij] = get(ij, 0) + c * k

    def result(self, divisor: int = 1) -> dict:
        """Each nonzero sum divided by the positive int divisor, as a
        canonical HodgePoly; keys whose sum cancels to zero are left out."""
        if divisor < 1:
            raise ValueError(f"divisor must be a positive int, got {divisor}")
        out = {}
        for key, (den, terms) in self._sums.items():
            nums = {ij: c for ij, c in terms.items() if c}
            if nums:
                out[key] = _reduced(nums, den * divisor)
        return out


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
