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
arithmetic works on ints and reduces each result once by that gcd; the text
forms read the ints too.  Fractions appear only at the public boundary, and
``fractions`` is imported only where one is built: the accessors (``items``,
``coefficient``, ``q_coefficients``) hand them out, and a caller may pass one
as a scalar.

Products multiply monomial by monomial: :func:`_convolve` adds the
product of two numerator maps into a third, and ``HodgePoly.__mul__``, the
products of series and the expression evaluator all go through it, each
reducing the finished sum once.  A product with a single monomial
c*u^k*v^l shifts the other factor's keys by (k, l) and scales its
numerators by c.

A :class:`Packing` holds numerators in a packed form (Kronecker
substitution) for the gluing recursion of ``plethysm`` and the Schur
read-off of the closed series it leaves: it lays the monomials u^i v^j of
a box out as the digits of one int in base 2^bits, one band of digits per
value of i - j, so that the product of two polynomials is one int multiply
and a sum of products one multiply-add per pair.  The callers read the
digits of each finished sum once (:meth:`Packing.digits`,
:meth:`Packing.poly_of`, :meth:`Packing.diagonal`).  Every width is
derived, not guessed: a digit of a sum of products is at most the sum of
the products of the factors' l1 norms (||ab||_1 <= ||a||_1 ||b||_1), and
callers size the packing from those bounds before they add anything.

Values are immutable; all arithmetic returns fresh polynomials in canonical
form, and ``items`` iterates in ascending ``(i, j)`` order.
"""

from __future__ import annotations

import sys
from math import gcd, lcm, log10
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Union

from .errors import OffDiagonalError, PreconditionError

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = Union[int, Fraction]


class HodgePoly:
    """Sparse bivariate polynomial over the rationals, keyed by (i, j) and
    stored as integer numerators over one shared denominator."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        given: dict[tuple[int, int], tuple[int, int]] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                ratio = _ratio(c)
                if ratio is None:
                    raise TypeError(
                        f"a coefficient must be an int or a Fraction, not {type(c).__name__}"
                    )
                if ratio[0]:
                    given[(i, j)] = ratio
        # Over the lcm of reduced denominators the numerators are coprime
        # to it, so this is already canonical.
        den = lcm(*(d for _, d in given.values()))
        self._terms = {key: n * (den // d) for key, (n, d) in given.items()}
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
        from fractions import Fraction
        den = self._den
        return iter([(key, Fraction(c, den)) for key, c in sorted(self._terms.items())])

    def coefficient(self, i: int, j: int) -> Fraction:
        from fractions import Fraction
        return Fraction(self._terms.get((i, j), 0), self._den)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if not terms.keys() - {(0, 0)}:  # a constant hashes as its int or Fraction
            return _rational_hash(terms.get((0, 0), 0), self._den)
        return hash((self._den, frozenset(terms.items())))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "HodgePoly | Scalar") -> "HodgePoly":
        if isinstance(other, HodgePoly):
            if not (self._terms and other._terms):
                return _wrap({}, 1)
            a, b = (other, self) if len(self._terms) == 1 else (self, other)
            if len(b._terms) == 1:
                # times one monomial c*u^k*v^l: shift the keys and scale
                ((k, l), c), = b._terms.items()
                return _reduced(
                    {(i + k, j + l): n * c for (i, j), n in a._terms.items()},
                    a._den * b._den,
                )
            out: dict[tuple[int, int], int] = {}
            _convolve(out, self._terms, other._terms)
            return _reduced({key: c for key, c in out.items() if c}, self._den * other._den)
        if not isinstance(other, int):
            ratio = _ratio(other)
            if ratio is None:
                return NotImplemented
            n, d = ratio
            if d != 1:
                return _reduced({key: c * n for key, c in self._terms.items()}, self._den * d)
            other = n
        # A nonzero scalar times a nonzero coefficient is nonzero, so only a
        # zero scalar can leave zeros behind; and with g = gcd(den, n) the
        # pair (den/g, n/g) is coprime, so no further reduction is needed.
        if not other:
            return _wrap({}, 1)
        g = gcd(self._den, other)
        n = other // g
        return _wrap({key: c * n for key, c in self._terms.items()}, self._den // g)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HodgePoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return HodgePoly.one() if result is None else result

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
        from fractions import Fraction
        witness = self.off_diagonal_witness()
        if witness is not None:
            raise OffDiagonalError(*witness)
        den = self._den
        return sorted((i, Fraction(c, den)) for (i, _), c in self._terms.items())

    def q_coefficient_list(self) -> list[Fraction]:
        """Dense [c0, c1, ..., c_deg] of q-coefficients (empty for zero)."""
        from fractions import Fraction
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
        den = self._den
        pieces = []
        for (i, j), c in sorted(self._terms.items()):
            mono = _render_monomial(i, j)
            mag = abs(c)
            if not mono:
                body = ratio_text(mag, den)
            elif mag == den:
                body = mono
            else:
                body = f"{ratio_text(mag, den)}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        return join_signed(pieces)

    def render_q(self, explicit_mul: bool = False) -> str:
        """Pure-q rendering in descending degree, e.g. "q^2 + 5q + 1".

        With explicit_mul, coefficients are joined with "*" so the output is
        valid in the table expression language.  Raises OffDiagonalError on
        polynomials with off-diagonal terms.
        """
        witness = self.off_diagonal_witness()
        if witness is not None:
            raise OffDiagonalError(*witness)
        den = self._den
        pieces = []
        for (k, _), c in sorted(self._terms.items(), reverse=True):
            mag = abs(c)
            text = ratio_text(mag, den)
            if k == 0:
                body = text
            else:
                qpow = "q" if k == 1 else f"q^{k}"
                if mag == den:
                    body = qpow
                elif not mag % den:
                    body = f"{text}*{qpow}" if explicit_mul else f"{text}{qpow}"
                else:
                    body = f"{text}*{qpow}" if explicit_mul else f"({text}){qpow}"
            pieces.append(("-" if c < 0 else "+", body))
        return join_signed(pieces)


def ratio_text(n: int, d: int) -> str:
    """The text ``str(Fraction(n, d))`` gives for ints n and d > 0, without
    building the Fraction: n/d in lowest terms, or the int alone."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for n/d in lowest terms with d > 0, without
    building the Fraction: the hash of a rational number that Python
    defines, n times the inverse of d modulo ``sys.hash_info.modulus``."""
    modulus = sys.hash_info.modulus
    # a d that the modulus divides has no inverse: the hash of infinity
    h = hash(hash(abs(n)) * pow(d, -1, modulus)) if d % modulus else sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def magnitude(n: int) -> str:
    """n in decimal, or its order of magnitude past 64 bits: an int past
    the interpreter's digit limit cannot be printed in full."""
    return str(n) if n.bit_length() <= 64 else f"about 10^{int(n.bit_length() * log10(2))}"


def check_printable(poly: HodgePoly, what: str) -> HodgePoly:
    """poly, or PreconditionError if a numerator or the denominator may have
    more digits than the interpreter's limit for int-to-str conversion: a
    coefficient past it cannot be printed in full."""
    bits = max(c.bit_length() for c in (poly._den, *poly._terms.values()))
    if not printable(bits):
        raise PreconditionError(
            f"{what} may run to {_digits(bits)} digits, past the "
            f"{sys.get_int_max_str_digits()}-digit limit for printing an integer"
        )
    return poly


def printable(bits: int) -> bool:
    """Whether every int of at most the bits is within the interpreter's
    limit of digits for int-to-str conversion."""
    limit = sys.get_int_max_str_digits()
    return not limit or _digits(bits) <= limit


def _digits(bits: int) -> int:
    """A bound on the decimal digits of an int of the bits."""
    return int(bits * log10(2)) + 1


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
    ratio = _ratio(value)
    if ratio is None:
        return NotImplemented
    return _wrap({(0, 0): ratio[0]} if ratio[0] else {}, ratio[1])


def _ratio(value: object) -> tuple[int, int] | None:
    """(numerator, denominator) of an int, a bool or a Fraction, else None.
    A Fraction exists only once ``fractions`` is loaded: looked up, not imported."""
    if not isinstance(value, int):
        fractions = sys.modules.get("fractions")
        if fractions is None or not isinstance(value, fractions.Fraction):
            return None
    return value.numerator, value.denominator


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


def _convolve(
    out: dict[tuple[int, int], int],
    a: Mapping[tuple[int, int], int],
    b: Mapping[tuple[int, int], int],
) -> None:
    """Add the product of the numerator maps a and b into out, monomial by
    monomial; a sum that cancels stays in out as 0."""
    get = out.get
    pairs = list(b.items())
    for (i, j), c in a.items():
        for (k, l), d in pairs:
            key = (i + k, j + l)
            out[key] = get(key, 0) + c * d


# The most digits a packing may have.  A packed int holds a digit for each
# cell of its layout, so the gluing recursion refuses a layout past the
# limit (PreconditionError) before it packs anything in it, and ``exprlang``
# refuses an expression by the same bound on the cells of its coefficients
# before it evaluates anything.  The pipeline on the shipped table packs 17
# cells at the largest truncation.
MAX_CELLS = 4096

# The monomials u^i v^j of a polynomial lie in a box: the least and largest
# i, j and d = i - j, as (ilo, ihi, jlo, jhi, dlo, dhi).
Box = tuple[int, int, int, int, int, int]


class Packing:
    """A Kronecker layout that holds a polynomial's numerators as one int.

    The numerator of u^i v^j is the digit at index (j - clo) + span*(i - j
    - dlo) of a number in base 2^bits, for j - clo in [0, span) and i - j -
    dlo in [0, bands); with ``swapped``, i and j change roles.  Digits are
    signed: each is an int c with -2^(bits-1) <= c < 2^(bits-1), and the
    packed int is the sum of c * 2^(bits*index).  The layout is band-major,
    one band per value of i - j, so a pure-q polynomial is one dense band,
    and its offsets put the box of the values it holds at index 0, so a
    monomial of any degree is one digit.

    A sum of packed ints packs the sum and an int multiple the multiple.  A
    product x*y of ints of two packings of one span, bits and orientation
    packs the product in :meth:`times` of the two, whose offsets are the
    sums, provided the columns of the product stay below the span.  All of
    it is exact integer arithmetic, so only the digits of the final value
    matter: it unpacks correctly whenever each lies within the layout and
    the digit range.  The callers make sure of both before they accumulate,
    from bounds: the box from the operands, and a digit of a sum of
    products is at most the sum of the products of the operands' l1 norms,
    since ||ab||_1 <= ||a||_1 ||b||_1.  ``holding`` turns a box and such a
    bound into the smallest layout that holds them.
    """

    __slots__ = ("span", "clo", "dlo", "bands", "bits", "swapped", "_half", "_mask")

    def __init__(self, span: int, clo: int, dlo: int, bands: int, bits: int, swapped: bool):
        if span < 1 or bands < 1 or bits < 1:
            raise ValueError(f"no packing with span {span}, {bands} bands and {bits} bits")
        if span * bands > MAX_CELLS:
            raise PreconditionError(
                f"a coefficient would spread over {magnitude(span * bands)} cells of "
                f"i - j by the power of u or v, past the limit of {MAX_CELLS}"
            )
        self.span, self.clo, self.dlo, self.bands = span, clo, dlo, bands
        self.bits, self.swapped = bits, swapped
        self._half = 1 << (bits - 1)
        self._mask = (1 << bits) - 1

    @staticmethod
    def holding(box: Box | None, bound: int) -> "Packing":
        """The packing of the box in the orientation with the fewer cells,
        whose digits hold every int of absolute value at most bound:
        bits = bound.bit_length() + 1."""
        bits = bound.bit_length() + 1
        if box is None:
            return Packing(1, 0, 0, 1, bits, False)
        ilo, ihi, jlo, jhi, dlo, dhi = box
        if ihi - ilo < jhi - jlo:
            return Packing(ihi - ilo + 1, ilo, -dhi, dhi - dlo + 1, bits, True)
        return Packing(jhi - jlo + 1, jlo, dlo, dhi - dlo + 1, bits, False)

    def times(self, other: "Packing") -> "Packing":
        """The packing of the products x*y of an int x of this packing and
        y of other, when their columns stay below the span."""
        return Packing(
            self.span, self.clo + other.clo, self.dlo + other.dlo,
            self.bands + other.bands - 1, self.bits, self.swapped,
        )

    def holds(self, bound: int) -> bool:
        return bound.bit_length() < self.bits

    def widened(self, bound: int) -> "Packing":
        """This layout with digits that hold bound, at least twice as wide,
        so that values repacked each time a growing bound outgrows the
        width are repacked O(log) times."""
        bits = max(bound.bit_length() + 1, 2 * self.bits)
        return Packing(self.span, self.clo, self.dlo, self.bands, bits, self.swapped)

    def pack(self, poly: HodgePoly, mult: int = 1) -> int:
        """The numerators of poly, times the int mult, as one int."""
        bits, span, clo, dlo, bands, half = (
            self.bits, self.span, self.clo, self.dlo, self.bands, self._half
        )
        swapped = self.swapped
        x = 0
        for (i, j), c in poly._terms.items():
            if swapped:
                i, j = j, i
            c *= mult
            col, band = j - clo, i - j - dlo
            if not (0 <= col < span and 0 <= band < bands and -half <= c < half):
                raise OverflowError(f"{c}*u^{i}*v^{j} does not fit {self!r}")
            x += c << bits * (col + span * band)
        return x

    def digits(self, x: int) -> list[int]:
        """The signed digits of a packed int, lowest first, up to the
        highest nonzero one."""
        bits, half, mask = self.bits, self._half, self._mask
        if -half <= x < half:
            return [x] if x else []
        out = []
        for _ in range(self.span * self.bands):
            d = x & mask
            x >>= bits
            if d >= half:
                d -= mask + 1
                x += 1
            out.append(d)
            if not x:
                return out
        raise OverflowError(f"a value of more digits than cells does not fit {self!r}")

    def poly_of(self, digits: list[int], den: int) -> HodgePoly:
        """The polynomial of the signed digits of an int of this packing,
        lowest first, over the positive int den; canonical when den and the
        digits have no common factor (see :func:`reduced_digits`)."""
        span, clo, dlo = self.span, self.clo, self.dlo
        if self.bands == 1 and not dlo:  # one band, the diagonal
            return _wrap({(clo + k, clo + k): c for k, c in enumerate(digits) if c}, den)
        terms = {}
        for k, c in enumerate(digits):
            if c:
                band, col = divmod(k, span)
                j = clo + col
                terms[(j, j + dlo + band) if self.swapped else (j + dlo + band, j)] = c
        return _wrap(terms, den)

    def diagonal(self, digits: list[int]) -> tuple[list[int] | None, tuple[int, int] | None]:
        """The dense q-coefficients [c_0, ..., c_m] of signed digits of an
        int of this packing, up to the highest nonzero one, and None; or,
        if a digit off the diagonal u^k v^k is nonzero, None and the least
        (i, j) with i != j of such a digit."""
        span, clo = self.span, self.clo
        lo = -self.dlo * span  # the first index of the band i - j = 0
        if not lo and self.bands == 1:
            return ([0] * clo + digits if clo and digits else digits), None
        if any(c and not lo <= k < lo + span for k, c in enumerate(digits)):
            return None, self.poly_of(digits, 1).off_diagonal_witness()
        band = digits[lo : lo + span] if lo >= 0 else []  # lo < 0: no such band
        while band and not band[-1]:
            band.pop()
        return ([0] * clo + band if band else []), None

    def repack(self, x: int, old: "Packing") -> int:
        """An int of ``old``, which differs from this packing at most in
        width, in this packing."""
        bits = self.bits
        return sum(c << bits * k for k, c in enumerate(old.digits(x)) if c)

    def adams(self, x: int, k: int, old: "Packing") -> int:
        """The k-th Adams operation (u^i v^j to u^{ki} v^{kj}) of an int of
        ``old``, which differs from this packing at most in width, in this
        packing; the image must lie within the layout."""
        span, clo, dlo, bands, bits = old.span, old.clo, old.dlo, old.bands, self.bits
        y = 0
        for index, c in enumerate(old.digits(x)):
            if c:
                # (i, j) -> (ki, kj) scales both j and i - j (in either
                # orientation) by k
                band, col = divmod(index, span)
                col, band = k * (clo + col) - clo, k * (dlo + band) - dlo
                if not (0 <= col < span and 0 <= band < bands):
                    raise OverflowError(f"psi_{k} of a value does not fit {self!r}")
                y += c << bits * (col + span * band)
        return y

    def rebase(self, x: int, old: "Packing") -> int:
        """An int of ``old``, which differs from this packing at most in its
        offsets, in this packing; the value must lie within both."""
        shift = self.bits * (old.clo - self.clo + self.span * (old.dlo - self.dlo))
        if shift >= 0:
            return x << shift
        if x & ((1 << -shift) - 1):
            raise OverflowError(f"a value below the offsets of {self!r}")
        return x >> -shift

    def __repr__(self) -> str:
        return (
            f"Packing(span={self.span}, clo={self.clo}, dlo={self.dlo}, "
            f"bands={self.bands}, bits={self.bits}, swapped={self.swapped})"
        )


def reduced_digits(digits: list[int], den: int) -> tuple[list[int], int]:
    """The digits and the positive int den divided by their common factor."""
    g = gcd(den, *digits)
    if g == 1:
        return digits, den
    return [c // g for c in digits], den // g


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
