"""Truncated series of symmetric functions with an auxiliary grading variable.

A ``SymSeries`` is a finite sum of terms ``lambda^e * c * p_rho`` where the
``p_rho`` are power-sum monomials indexed by partitions and each coefficient
``c`` is a :class:`~stablemoduli.hodge.HodgePoly`.  The power-sum basis is
used internally everywhere (Adams operations, derivatives and the plethystic
maps are all local in it); Schur and complete-homogeneous functions appear
only at ingestion and presentation, through the conversions in this module.
Both directions run on int numerators over one denominator, reduced once:
a Schur function is added as a dense row over the cycle types, and
:meth:`SymSeries.schur_coefficients` sums each character row against a
dense column of p_rho numerators per monomial.  Products multiply monomial
by monomial (``hodge._convolve``); nothing here packs a coefficient.

Every series carries a :class:`Truncation` fixing the maximal retained
lambda exponent and, per exponent, the maximal retained p-weight.  Arithmetic
silently discards what falls outside; two series can be combined only when
their truncations agree.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm
from itertools import repeat
from operator import add, mul
from typing import TYPE_CHECKING, Iterator, Mapping

# perfbench/tracer.py patches ``series.character`` by this name; the
# package itself reads whole rows through ``character_row``.
from .characters import character, character_row  # noqa: F401
from .errors import PreconditionError
from .hodge import HodgePoly, _convolve, _ratio, _reduced
from .partitions import (
    Partition,
    check_partition,
    format_partition,
    partitions_of,
    weight,
    z_factor,
)

if TYPE_CHECKING:
    from .hodge import Scalar

Key = tuple[int, Partition]

CONSTANT_KEY: Key = (0, ())


class Truncation:
    """Retention bounds: lambda exponent at most ``lambda_max``, and p-weight
    at lambda^e at most ``weight_caps[e]`` (a weakly increasing tuple).
    Equal to a truncation with the same bounds, and hashable, so not to be
    changed once built."""

    __slots__ = ("lambda_max", "weight_caps")

    def __init__(self, lambda_max: int, weight_caps: tuple[int, ...]):
        if lambda_max < 0:
            raise ValueError("lambda_max must be nonnegative")
        if len(weight_caps) != lambda_max + 1:
            raise ValueError("need one weight cap per lambda exponent 0..lambda_max")
        previous = 0
        for cap in weight_caps:
            if cap < 0 or cap < previous:
                raise ValueError("weight caps must be nonnegative and monotone")
            previous = cap
        self.lambda_max = lambda_max
        self.weight_caps = weight_caps

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.lambda_max == other.lambda_max and self.weight_caps == other.weight_caps

    def __hash__(self):
        return hash((self.lambda_max, self.weight_caps))

    def __repr__(self):
        return f"Truncation(lambda_max={self.lambda_max!r}, weight_caps={self.weight_caps!r})"

    @classmethod
    def standard(cls, lambda_max: int) -> "Truncation":
        """The pipeline rule: weight cap 3e at lambda^e.

        A stable curve class at lambda^e is a union of pieces with exponents
        e_i >= 1 and marked-point counts n_i <= e_i + 2 <= 3 e_i, so total
        weight never exceeds 3e; nothing the pipeline needs is discarded.
        """
        return cls(lambda_max, tuple(3 * e for e in range(lambda_max + 1)))

    @classmethod
    def flat(cls, lambda_max: int, weight_max: int) -> "Truncation":
        """A uniform weight cap; used for table entries (which live at
        lambda^0) and for tests."""
        return cls(lambda_max, (weight_max,) * (lambda_max + 1))

    def cap(self, e: int) -> int:
        return self.weight_caps[e]

    def admits(self, e: int, w: int) -> bool:
        return 0 <= e <= self.lambda_max and w <= self.weight_caps[e]


class SymSeries:
    """Truncated graded series in the power-sum basis."""

    __slots__ = ("trunc", "_terms")

    def __init__(
        self,
        trunc: Truncation,
        terms: Mapping[Key, HodgePoly | Scalar] | None = None,
    ):
        self.trunc = trunc
        clean: dict[Key, HodgePoly] = {}
        if terms:
            for (e, rho), coeff in terms.items():
                rho = check_partition(rho)
                if not isinstance(coeff, HodgePoly):
                    coeff = HodgePoly.const(coeff)
                if coeff and trunc.admits(e, weight(rho)):
                    clean[(e, rho)] = coeff
        self._terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, trunc: Truncation) -> "SymSeries":
        return cls(trunc)

    @classmethod
    def constant(cls, trunc: Truncation, value: HodgePoly | Scalar) -> "SymSeries":
        return cls(trunc, {CONSTANT_KEY: value})

    # -- protocol -------------------------------------------------------------

    def items(self) -> Iterator[tuple[Key, HodgePoly]]:
        """Terms in canonical order: lambda ascending, partitions reverse-lex."""
        return iter(
            sorted(self._terms.items(), key=lambda kv: (kv[0][0], _revlex(kv[0][1])))
        )

    def coefficient(self, e: int, rho: Partition) -> HodgePoly:
        return self._terms.get((e, tuple(rho)), HodgePoly.zero())

    def constant_term(self) -> HodgePoly:
        return self._terms.get(CONSTANT_KEY, HodgePoly.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymSeries):
            return NotImplemented
        return self.trunc == other.trunc and self._terms == other._terms

    def __repr__(self) -> str:
        return f"SymSeries({self.render()!r})"

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "SymSeries") -> None:
        if self.trunc != other.trunc:
            raise PreconditionError("series truncations do not match")

    def __add__(self, other: "SymSeries") -> "SymSeries":
        if not isinstance(other, SymSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            s = out.get(key)
            s = coeff if s is None else s + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _wrap(self.trunc, out)

    def __neg__(self) -> "SymSeries":
        return _wrap(self.trunc, {key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "SymSeries") -> "SymSeries":
        if not isinstance(other, SymSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SymSeries | HodgePoly | Scalar") -> "SymSeries":
        if isinstance(other, HodgePoly) or _ratio(other) is not None:
            return self.scale(other)
        if not isinstance(other, SymSeries):
            return NotImplemented
        self._check_compatible(other)
        # a constant series multiplies as its coefficient, scaling the other
        for c, series in ((_constant(self._terms), other), (_constant(other._terms), self)):
            if c is not None:
                return series.scale(c)
        return _wrap(self.trunc, _product(self.trunc, self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SymSeries":
        if k < 0:
            raise PreconditionError("negative power of a series")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return SymSeries.constant(self.trunc, 1) if result is None else result

    def scale(self, coeff: HodgePoly | Scalar) -> "SymSeries":
        return _wrap(self.trunc, _scaled(self._terms, coeff))

    # -- graded structure -------------------------------------------------------

    def with_truncation(self, trunc: Truncation, lambda_shift: int = 0) -> "SymSeries":
        """Re-truncate (and optionally shift every lambda exponent)."""
        out: dict[Key, HodgePoly] = {}
        for (e, rho), c in self._terms.items():
            e += lambda_shift
            if trunc.admits(e, weight(rho)):
                out[(e, rho)] = c
        return _wrap(trunc, out)

    # -- operations ---------------------------------------------------------------

    def adams(self, k: int) -> "SymSeries":
        """k-th Adams operation: p_n -> p_{kn}, lambda^e -> lambda^{ke}, and
        the coefficient action on u, v."""
        if k < 1:
            raise PreconditionError(f"Adams operation needs k >= 1, got {k}")
        if k == 1:
            return self
        trunc = self.trunc
        out: dict[Key, HodgePoly] = {}
        for (e, rho), c in self._terms.items():
            ke = k * e
            krho = tuple(k * part for part in rho)
            if trunc.admits(ke, weight(krho)):
                out[(ke, krho)] = c.adams(k)
        return _wrap(trunc, out)

    def diff_p(self, k: int) -> "SymSeries":
        """Formal partial derivative with respect to p_k."""
        if k < 1:
            raise PreconditionError(f"p-index must be positive, got {k}")
        out: dict[Key, HodgePoly] = {}
        for (e, rho), c in self._terms.items():
            m = rho.count(k)
            if not m:
                continue
            idx = rho.index(k)
            smaller = rho[:idx] + rho[idx + 1 :]
            key = (e, smaller)
            s = m * c
            prev = out.get(key)
            s = s if prev is None else prev + s
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _wrap(self.trunc, out)

    def rank(self, e: int, n: int) -> HodgePoly:
        """Forget the symmetric-group action: n! times the p_1^n coefficient."""
        if n < 0:
            raise PreconditionError("weight must be nonnegative")
        return factorial(n) * self.coefficient(e, (1,) * n)

    def schur_coefficients(self, e: int, n: int) -> list[tuple[Partition, HodgePoly]]:
        """The (e, n) component expanded in the Schur basis.

        Returns (partition, coefficient) pairs in reverse-lexicographic
        order, zero coefficients dropped.  The coefficient of s_mu is
        sum over rho of chi^mu(rho) times the p_rho coefficient: the p_rho
        numerators are brought over their lcm as one dense column over
        ``partitions_of(n)`` per monomial, and each monomial of s_mu is the
        sum of the products of the character row of mu with that column,
        reduced once.
        """
        shapes = partitions_of(n)
        terms = [self._terms.get((e, rho)) for rho in shapes]
        den = lcm(*(c._den for c in terms if c is not None))
        columns: dict[tuple[int, int], list[int]] = {}
        for index, c in enumerate(terms):
            if c is not None:
                m = den // c._den
                for ij, x in c._terms.items():
                    column = columns.get(ij)
                    if column is None:
                        column = columns[ij] = [0] * len(shapes)
                    column[index] = x * m
        out = []
        for mu, row, _ in _character_table(n):
            coeff = {ij: c for ij, column in columns.items() if (c := sum(map(mul, row, column)))}
            if coeff:
                out.append((mu, _reduced(coeff, den)))
        return out

    # -- text and JSON forms ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text: one "λ^e * (coeff) * p[rho]" term per line."""
        if not self._terms:
            return "0"
        return "\n".join(
            f"λ^{e} * ({c.render()}) * p{format_partition(rho)}"
            for (e, rho), c in self.items()
        )

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: one object per term, coefficients keyed by
        "u^i v^j" monomial strings."""
        return [
            {
                "lambda": e,
                "p": list(rho),
                "coeff": {f"u^{i} v^{j}": str(c) for (i, j), c in coeff.items()},
            }
            for (e, rho), coeff in self.items()
        ]


def _wrap(trunc: Truncation, terms: dict[Key, HodgePoly]) -> SymSeries:
    series = SymSeries.__new__(SymSeries)
    series.trunc = trunc
    series._terms = terms
    return series


def _constant(terms: dict[Key, HodgePoly]) -> HodgePoly | None:
    """The coefficient of a term map that is one constant term, else None
    (a zero map is not constant: its product is the empty map)."""
    return terms.get(CONSTANT_KEY) if len(terms) == 1 else None


def _revlex(rho: Partition) -> tuple[int, ...]:
    return tuple(-part for part in rho) + (1,)


@lru_cache(maxsize=None)
def _character_table(n: int) -> tuple[tuple[Partition, tuple[int, ...], tuple[int, ...]], ...]:
    """(mu, its character row, the row's absolute values) for each mu in
    ``partitions_of(n)``, read once per n for the run: the slots of a
    table share their weights."""
    return tuple(
        (mu, row, tuple(map(abs, row))) for mu in partitions_of(n) for row in (character_row(mu),)
    )


def _product(trunc: Truncation, a: dict, b: dict) -> dict[Key, HodgePoly]:
    """The truncated product of the term maps a and b.

    Each operand's numerators are brought over the lcm of its own
    denominators, so every product of two terms lands over the product of
    the two lcms: each coefficient of the result is one sum of products of
    int numerators by monomial, reduced once when it is done.
    """
    if not (a and b):
        return {}
    terms_a, da = _numerators(a)
    terms_b, db = _numerators(b)
    sums: dict[Key, dict] = {}
    for e1, rho, w1, x in terms_a:
        for e2, sigma, w2, y in terms_b:
            if not trunc.admits(e1 + e2, w1 + w2):
                continue
            key = (e1 + e2, tuple(sorted(rho + sigma, reverse=True)))
            _convolve(sums.setdefault(key, {}), x, y)
    den = da * db
    product = {}
    for key, out in sums.items():
        nonzero = {ij: c for ij, c in out.items() if c}
        if nonzero:
            product[key] = _reduced(nonzero, den)
    return product


def _numerators(terms: dict[Key, HodgePoly]) -> tuple[list, int]:
    """The terms of a term map as [(e, rho, weight, {(i, j): numerator})],
    the numerators over the lcm of the coefficients' denominators, and
    that lcm."""
    den = lcm(*(c._den for c in terms.values()))
    return [
        (e, rho, sum(rho), {ij: n * (den // c._den) for ij, n in c._terms.items()})
        for (e, rho), c in terms.items()
    ], den


def _scaled(terms: dict[Key, HodgePoly], coeff: HodgePoly | Scalar) -> dict[Key, HodgePoly]:
    # Q[u, v] has no zero divisors, so only a zero factor leaves zeros.
    if not coeff:
        return {}
    return {key: c * coeff for key, c in terms.items()}


def _graded_parts(terms: dict[Key, HodgePoly]) -> dict[int, dict[Key, HodgePoly]]:
    """Split terms by total degree d = e + |rho|."""
    parts: dict[int, dict[Key, HodgePoly]] = {}
    for key, c in terms.items():
        parts.setdefault(key[0] + weight(key[1]), {})[key] = c
    return parts


def _max_degree(trunc: Truncation) -> int:
    return max(e + cap for e, cap in enumerate(trunc.weight_caps))


# -- ordinary exp/log series machinery ------------------------------------------


def exp_series(f: SymSeries) -> SymSeries:
    """Ordinary exponential of a series f with no constant term.

    Solved degree by degree in the total degree d = e + |rho| from the Euler
    identity D(exp f) = D(f) exp f, where D multiplies the degree-d part by
    d: E_0 = 1 and E_d = (1/d) sum over j = 1..d of j f_j E_{d-j}.  This
    equals the truncated power series sum f^m / m! whenever the discarded
    monomials form an ideal of the monoid the retained ones generate, so
    that truncated arithmetic is exact in a quotient ring; that holds for
    ``Truncation.standard`` and ``Truncation.flat``.
    """
    from fractions import Fraction
    if f.constant_term():
        raise PreconditionError("exp needs a series with zero constant term")
    trunc = f.trunc
    fparts = {j: _wrap(trunc, part) for j, part in _graded_parts(f._terms).items()}
    parts = [SymSeries.constant(trunc, 1)]
    for d in range(1, _max_degree(trunc) + 1):
        part = SymSeries.zero(trunc)
        for j, fj in fparts.items():
            if j <= d:
                part = part + fj * parts[d - j] * Fraction(j, d)
        parts.append(part)
    return sum(parts[1:], parts[0])


def log_series(g: SymSeries) -> SymSeries:
    """Ordinary logarithm of a series g whose constant term is exactly 1.

    The inverse of the recurrence in :func:`exp_series`: with g_0 = 1,
    L_d = g_d - (1/d) sum over j = 1..d-1 of j L_j g_{d-j}.  It equals the
    truncated power series sum (-1)^(m-1) (g-1)^m / m under the same
    condition on the truncation.
    """
    from fractions import Fraction
    if g.constant_term() != HodgePoly.one():
        raise PreconditionError("log needs a series with constant term 1")
    trunc = g.trunc
    gparts = {d: _wrap(trunc, part) for d, part in _graded_parts(g._terms).items()}
    parts: dict[int, SymSeries] = {}  # d -> L_d
    for d in range(1, _max_degree(trunc) + 1):
        part = gparts.get(d, SymSeries.zero(trunc))
        for j, lj in parts.items():
            if d - j in gparts:
                part = part - lj * gparts[d - j] * Fraction(j, d)
        if part:
            parts[d] = part
    return sum(parts.values(), SymSeries.zero(trunc))


# -- basis elements and conversions ------------------------------------------------


def power_sum(n: int, trunc: Truncation) -> SymSeries:
    """The power sum p_n as a series (at lambda^0)."""
    if n < 1:
        raise PreconditionError(f"power sum index must be positive, got {n}")
    return SymSeries(trunc, {(0, (n,)): 1})


def complete_homogeneous(n: int, trunc: Truncation) -> SymSeries:
    """The complete homogeneous function h_n = s_(n) in the p-basis (at lambda^0)."""
    if n < 1:
        raise PreconditionError(f"h index must be positive, got {n}")
    return schur((n,), trunc)


_ONE = HodgePoly.one()


def schur(mu, trunc: Truncation) -> SymSeries:
    """The Schur function s_mu in the p-basis (at lambda^0), read off its
    character row by :func:`linear_combination`."""
    return linear_combination(trunc, ((1, _ONE, check_partition(mu)),))


def linear_combination(trunc: Truncation, items) -> SymSeries:
    """The sum of sign * scale * value over items (sign, scale, value): sign
    1 or -1, scale a HodgePoly, and value a series of the truncation, None
    for the constant 1, or a partition mu for the Schur function
    s_mu = sum over cycle types rho of chi^mu(rho) (n!/z_rho) p_rho / n!,
    n = |mu|, read off the character row of mu.

    Every numerator is brought over the lcm of the items' denominators and
    added as an int, so each coefficient of the sum is reduced once, when
    it is done; zeros and terms outside the truncation are left out.  The
    Schur functions are added as dense rows, one list of numerators over
    ``partitions_of(n)`` per weight n and monomial of the scales, written
    out once; a series times a polynomial other than 1 is scaled first."""
    parts = []  # (denominator, sign, scale numerators or None, terms)
    schurs = []  # (denominator, sign, scale numerators, mu, n)
    for sign, scale, value in items:
        if not scale:
            continue
        if isinstance(value, SymSeries):
            if value.trunc != trunc:
                raise PreconditionError("series truncations do not match")
            terms = value._terms if scale == 1 else _scaled(value._terms, scale)
            if terms:
                parts.append((lcm(*(c._den for c in terms.values())), sign, None, terms))
        elif value is None:
            parts.append((scale._den, sign, scale._terms, ((CONSTANT_KEY, 1),)))
        elif trunc.admits(0, n := weight(value)):
            schurs.append((scale._den * factorial(n), sign, scale._terms, value, n))
    den = lcm(*(part[0] for part in parts), *(part[0] for part in schurs))
    rows: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for d, sign, scale, mu, n in schurs:
        m = sign * (den // d)
        row = _schur_row(mu)
        for ij, x in scale.items():
            scaled = map(mul, row, repeat(m * x))
            acc = rows.get((n, ij))
            rows[n, ij] = list(scaled if acc is None else map(add, acc, scaled))
    sums: dict[Key, dict] = {}
    for (n, ij), acc in rows.items():
        for rho, c in zip(partitions_of(n), acc):
            if c:
                sums.setdefault((0, rho), {})[ij] = c
    for d, sign, scale, terms in parts:
        if scale is None:  # the terms of a series, each over its own denominator
            pairs = [(key, c._terms.items(), sign * (den // c._den)) for key, c in terms.items()]
        else:
            m = sign * (den // d)
            pairs = [(key, scale.items(), m * w) for key, w in terms]
        for key, numerators, k in pairs:
            out = sums.setdefault(key, {})
            for ij, x in numerators:
                out[ij] = out.get(ij, 0) + x * k
    terms = {}
    for key, out in sums.items():
        nonzero = {ij: c for ij, c in out.items() if c}
        if nonzero:
            terms[key] = _reduced(nonzero, den)
    return _wrap(trunc, terms)


@lru_cache(maxsize=None)
def _schur_row(mu: Partition) -> tuple[int, ...]:
    """chi^mu(rho) n!/z_rho for each cycle type rho in ``partitions_of(n)``,
    n = |mu|, n!/z_rho the size of its class: n! s_mu in the p-basis, as a
    dense row."""
    n = weight(mu)
    sizes = (factorial(n) // z_factor(rho) for rho in partitions_of(n))
    return tuple(map(mul, character_row(mu), sizes))
