"""Independent test-only oracles.

Apart from the series references, the decoding of the packed closed series,
the expression syntax tree and the package's parse-error type, nothing here
imports the package under test.  Polynomials in q are plain
dicts mapping exponent -> integer coefficient, and polynomials in u, v
plain dicts mapping (i, j) -> Fraction, so a disagreement with the package
cannot share a root cause with it.  The Jacobi-Trudi Schur reference
expands its determinant here and only wraps the result in a series.  The
exp/log, gluing and Adams-sum references reuse the package's series
arithmetic but not its exp/log recurrences, its one-pass gluing operator
or its one-pass Adams sum.  The graded-piece helpers read series and
polynomials only through their public ``items``.  ``decoded`` and
``flow_parts`` turn the packed ints of the gluing recursion back into
p-basis series, which the package itself never does, so that the tests
can compare them with the reference route.  ``tokenize_by_characters``
reads expression text one character at a time and ``parse_by_tokens``
parses its tokens by a method per grammar rule, references for the
package's scanner and parser; ``bounds_by_records`` walks the syntactic
bounds with a record per node and ``eval_by_polys`` evaluates polynomials
one ``HodgePoly`` operation at a time, references for the package's bounds
walk and evaluation.  The geometric counts (Keel's recursion, the divisor
classes) use nothing of the package.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import count, permutations
from math import comb, lgamma, log, log10

from stablemoduli import exprlang, plethysm
from stablemoduli.errors import ExprParseError
from stablemoduli.hodge import HodgePoly, Packing, reduced_digits
from stablemoduli.plethysm import ClosedSeries, GluingMode
from stablemoduli.series import SymSeries, _wrap

QPoly = dict[int, int]
UVPoly = dict[tuple[int, int], Fraction]


def qp_add(a: QPoly, b: QPoly) -> QPoly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def qp_mul(a: QPoly, b: QPoly) -> QPoly:
    out: QPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def qp_const(c: int) -> QPoly:
    return {0: c} if c else {}


# -- polynomials in u and v with Fraction coefficients ------------------------------


def uv_add(a: UVPoly, b: UVPoly) -> UVPoly:
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def uv_neg(a: UVPoly) -> UVPoly:
    return {key: -c for key, c in a.items()}


def uv_sub(a: UVPoly, b: UVPoly) -> UVPoly:
    return uv_add(a, uv_neg(b))


def uv_mul(a: UVPoly, b: UVPoly) -> UVPoly:
    out: UVPoly = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            out = uv_add(out, {(i1 + i2, j1 + j2): c1 * c2})
    return out


def uv_scale(a: UVPoly, c: int | Fraction) -> UVPoly:
    return {key: c * x for key, x in a.items() if c * x}


def uv_adams(a: UVPoly, k: int) -> UVPoly:
    return {(k * i, k * j): c for (i, j), c in a.items()}


def uv_dual(a: UVPoly, d: int) -> UVPoly:
    return {(d - i, d - j): c for (i, j), c in a.items()}


_UV_TOKEN = re.compile(r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<var>[uvq])|(?P<op>[\^*+-])|(?P<bad>\S))")
_UV_VARS = {"u": (1, 0), "v": (0, 1), "q": (1, 1)}


def parse_uv(text: str) -> UVPoly:
    """Parse a polynomial in u, v (q = u*v) as ``HodgePoly.render`` writes it:
    signed terms, each a product of rationals and variables with optional
    nonnegative integer exponents."""
    tokens = []
    for m in _UV_TOKEN.finditer(text):
        if m.group("bad"):
            raise ExprParseError(f"unexpected character {m.group('bad')!r}", col=m.start("bad") + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
    tokens.append(("end", "", len(text) + 1))
    idx = 0

    def factor() -> UVPoly:
        nonlocal idx
        kind, value, col = tokens[idx]
        if kind == "rat":
            base = {(0, 0): Fraction(value)}
        elif kind == "var":
            base = {_UV_VARS[value]: Fraction(1)}
        else:
            raise ExprParseError(f"expected a factor, got {value!r}", col=col)
        idx += 1
        if tokens[idx][1] == "^":
            kind, value, _ = tokens[idx + 1]
            if kind != "rat" or "/" in value:
                raise ExprParseError("exponent must be a nonnegative integer", col=col)
            idx += 2
            power = {(0, 0): Fraction(1)}
            for _ in range(int(value)):
                power = uv_mul(power, base)
            base = power
        return base

    def term() -> UVPoly:
        nonlocal idx
        value = factor()
        while tokens[idx][1] == "*":
            idx += 1
            value = uv_mul(value, factor())
        return value

    if tokens[0][0] == "end":
        raise ExprParseError("empty polynomial text", col=1)
    total: UVPoly = {}
    sign = 1
    while True:
        if tokens[idx][1] in ("+", "-"):
            sign = -1 if tokens[idx][1] == "-" else 1
            idx += 1
        total = uv_add(total, uv_scale(term(), sign))
        kind, value, col = tokens[idx]
        if kind == "end":
            return total
        if value not in ("+", "-"):
            raise ExprParseError(f"expected '+' or '-', got {value!r}", col=col)


# -- moduli strata ----------------------------------------------------------------


def open_genus0_serre(m: int) -> QPoly:
    """Serre polynomial of the moduli space of m distinct labeled points on a
    line, modulo projectivities: fixing the first three points at 0, 1 and
    infinity leaves m-3 points avoiding j previously placed ones, giving the
    product of (q - j) for j = 2 .. m-2."""
    if m < 3:
        raise ValueError("need at least 3 points")
    out = qp_const(1)
    for j in range(2, m - 1):
        out = qp_mul(out, {1: 1, 0: -j})
    return out


def _leaf_trees(n: int) -> list[dict[int, set[int]]]:
    """All trees with leaves labeled 1..n and unlabeled internal vertices of
    valence >= 3, as adjacency maps.  Leaves are 1..n; internal vertices are
    negative integers.  Built by inserting leaf n either at an internal
    vertex or into an edge of each tree on n-1 leaves; deleting leaf n (and
    smoothing its valence-3 neighbor when needed) inverts the construction,
    so every tree arises exactly once."""
    if n < 3:
        raise ValueError("need at least 3 leaves")
    star = {-1: {1, 2, 3}, 1: {-1}, 2: {-1}, 3: {-1}}
    trees = [star]
    for leaf in range(4, n + 1):
        extended = []
        for tree in trees:
            internal = [v for v in tree if v < 0]
            fresh = min(internal) - 1
            for v in internal:
                grown = {w: set(nbrs) for w, nbrs in tree.items()}
                grown[v].add(leaf)
                grown[leaf] = {v}
                extended.append(grown)
            edges = {frozenset((a, b)) for a, nbrs in tree.items() for b in nbrs}
            for edge in edges:
                a, b = sorted(edge)
                grown = {w: set(nbrs) for w, nbrs in tree.items()}
                grown[a].discard(b)
                grown[b].discard(a)
                grown[fresh] = {a, b, leaf}
                grown[a].add(fresh)
                grown[b].add(fresh)
                grown[leaf] = {fresh}
                extended.append(grown)
        trees = extended
    return trees


def closed_genus0_rank(n: int) -> QPoly:
    """Serre polynomial of the space of stable n-pointed genus-0 curves by
    summing strata over dual trees: each tree contributes the product over
    its internal vertices of the open genus-0 polynomial at their valence."""
    total: QPoly = {}
    for tree in _leaf_trees(n):
        piece = qp_const(1)
        for v, nbrs in tree.items():
            if v < 0:
                piece = qp_mul(piece, open_genus0_serre(len(nbrs)))
        total = qp_add(total, piece)
    return total


def closed_1_1_rank() -> QPoly:
    """The space of stable 1-pointed genus-1 curves has two strata: smooth
    elliptic curves (the affine j-line, Serre polynomial q) and the single
    nodal rational curve (a point)."""
    return {1: 1, 0: 1}


def keel_poincare(n: int) -> QPoly:
    """The Poincare polynomial in q of the space of stable n-pointed genus-0
    curves by Keel's recursion: P_3 = 1 and P_(m+1) = (1 + q) P_m +
    (q/2) sum over j = 2 .. m-2 of C(m, j) P_(j+1) P_(m-j+1)."""
    if n < 3:
        raise ValueError("need at least 3 points")
    polys = {3: qp_const(1)}
    for m in range(3, n):
        pairs: QPoly = {}
        for j in range(2, m - 1):
            pairs = qp_add(pairs, qp_mul(qp_const(comb(m, j)), qp_mul(polys[j + 1], polys[m - j + 1])))
        assert all(c % 2 == 0 for c in pairs.values())
        half_q = {k + 1: c // 2 for k, c in pairs.items()}
        polys[m + 1] = qp_add(qp_mul({0: 1, 1: 1}, polys[m]), half_q)
    return polys[n]


def _two_row_sum(n: int, rows: range) -> dict[tuple[int, ...], int]:
    """Sum of s[n-j, j] over j in rows, as {partition: multiplicity}."""
    return {tuple(part for part in (n - j, j) if part): 1 for j in rows}


def h2_divisor_classes(g: int, n: int) -> dict[tuple[int, ...], int]:
    """H^2 of the space of stable n-pointed genus-g curves, g >= 1, as an
    S_n-representation {partition: multiplicity}, from its basis of
    divisor classes (Arbarello-Cornalba): lambda for g >= 3, delta_irr, the
    psi_i for g >= 2, and every delta_(a,A), an unordered pair
    {(a, A), (g-a, A^c)} of stable sides (2a - 1 + |A| > 0).  In genus 1
    the delta_(0,S) with |S| >= 2 are the only ones of that last kind.

    lambda and delta_irr span s[n], the psi_i span h_1 h_(n-1), the
    divisors of type {(a, k), (g-a, n-k)} span h_k h_(n-k) = sum over
    j <= min(k, n-k) of s[n-j, j], and when the two sides have the same
    type, h_2[h_(n/2)] = sum over even j <= n/2 of s[n-j, j]."""
    if g < 1:
        raise ValueError("the divisor-class basis needs genus at least 1")
    out: dict[tuple[int, ...], int] = {}

    def add(rep: dict) -> None:
        for mu, m in rep.items():
            out[mu] = out.get(mu, 0) + m

    add({(n,): 1 + (g >= 3)})
    if g >= 2:
        add(_two_row_sum(n, range(min(1, n - 1) + 1)))
    for a in range(g + 1):
        for k in range(n + 1):
            side, other = (a, k), (g - a, n - k)
            if side > other or 2 * a - 1 + k <= 0 or 2 * (g - a) - 1 + n - k <= 0:
                continue
            if side == other:
                add(_two_row_sum(n, range(0, k + 1, 2)))
            else:
                add(_two_row_sum(n, range(min(k, n - k) + 1)))
    return out


# -- partitions and tableaux ---------------------------------------------------------


def partition_count(n: int) -> int:
    """Number of partitions of n via Euler's pentagonal-number recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        for k in count(1):
            pent1 = k * (3 * k - 1) // 2
            pent2 = k * (3 * k + 1) // 2
            if pent1 > m and pent2 > m:
                break
            sign = 1 if k % 2 else -1
            if pent1 <= m:
                total += sign * counts[m - pent1]
            if pent2 <= m:
                total += sign * counts[m - pent2]
        counts.append(total)
    return counts[n]


def hook_length_count(mu: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of shape mu via hook lengths."""
    n = sum(mu)
    cols = [0] * (mu[0] if mu else 0)
    for row_len in mu:
        for j in range(row_len):
            cols[j] += 1
    product = 1
    for i, row_len in enumerate(mu):
        for j in range(row_len):
            product *= (row_len - j) + (cols[j] - i) - 1
    result = Fraction(1)
    for k in range(1, n + 1):
        result *= k
    result /= product
    assert result.denominator == 1
    return int(result)


def homogeneous_p_expansion(n: int) -> dict[tuple[int, ...], Fraction]:
    """The complete homogeneous function as sum over partitions rho of
    p_rho / z_rho, computed directly from the permutation cycle-type count."""
    out: dict[tuple[int, ...], Fraction] = {}
    for rho in _all_partitions(n):
        z = 1
        mult: dict[int, int] = {}
        for part in rho:
            mult[part] = mult.get(part, 0) + 1
        for part, m in mult.items():
            z *= part**m
            for i in range(1, m + 1):
                z *= i
        out[rho] = Fraction(1, z)
    return out


def conjugate(rho: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose of the Young diagram of rho: its i-th part counts the
    parts of rho greater than i."""
    return tuple(sum(part > i for part in rho) for i in range(rho[0] if rho else 0))


def schur_jacobi_trudi(mu: tuple[int, ...], trunc) -> SymSeries:
    """s_mu as the Jacobi-Trudi determinant det(h_{mu_i - i + j}), expanded
    over permutations with each h from ``homogeneous_p_expansion``.

    A shape with more rows than columns is expanded by its conjugate mu':
    s_mu = omega(s_mu'), and the involution omega multiplies p_rho by
    (-1)^(|rho| - len(rho)).  So no determinant has more rows than the
    shape has columns, and every shape of weight 10 takes at most 5! terms.
    """
    mu = tuple(mu)
    if len(mu) <= (mu[0] if mu else 0):
        total = _jacobi_trudi(mu)
    else:
        total = {
            rho: c * (-1) ** (sum(rho) - len(rho))
            for rho, c in _jacobi_trudi(conjugate(mu)).items()
        }
    return SymSeries(trunc, {(0, rho): c for rho, c in total.items() if c})


def _jacobi_trudi(mu: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    rows = len(mu)
    total: dict[tuple[int, ...], Fraction] = {}
    for perm in permutations(range(rows)):
        indices = [mu[i] - i + perm[i] for i in range(rows)]
        if any(m < 0 for m in indices):
            continue
        inversions = sum(perm[i] > perm[j] for i in range(rows) for j in range(i + 1, rows))
        product = {(): Fraction((-1) ** inversions)}
        for m in indices:
            product = _p_product(product, homogeneous_p_expansion(m))
        for rho, c in product.items():
            total[rho] = total.get(rho, Fraction(0)) + c
    return total


def _p_product(
    a: dict[tuple[int, ...], Fraction], b: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for rho, ca in a.items():
        for sigma, cb in b.items():
            key = tuple(sorted(rho + sigma, reverse=True))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def _all_partitions(n: int, maxpart: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    if maxpart is None:
        maxpart = n
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _all_partitions(n - first, first):
            out.append((first,) + rest)
    return out


# -- ordinary exp and log as sums of powers ---------------------------------------------


def exp_by_powers(f: SymSeries) -> SymSeries:
    """Sum over m of f^m / m! for a series with no constant term, each power a
    full truncated product.  Terminates because every term of f has positive
    lambda exponent or positive weight, and the truncation bounds both."""
    assert not f.constant_term()
    total = SymSeries.constant(f.trunc, 1)
    power = SymSeries.constant(f.trunc, 1)
    m = 1
    while True:
        power = power * f * Fraction(1, m)
        if not power:
            return total
        total = total + power
        m += 1


def log_by_powers(g: SymSeries) -> SymSeries:
    """Sum over m of (-1)^(m-1) (g-1)^m / m for a series with constant term 1."""
    assert g.constant_term() == HodgePoly.one()
    x = g - SymSeries.constant(g.trunc, 1)
    total = SymSeries.zero(g.trunc)
    power = SymSeries.constant(g.trunc, 1)
    m = 1
    while True:
        power = power * x
        if not power:
            return total
        sign = 1 if m % 2 else -1
        total = total + power * Fraction(sign, m)
        m += 1


def adams_sum_by_series(f: SymSeries) -> SymSeries:
    """Sum over k of psi_k(f)/k, one whole-series Adams operation, scaling
    and sum per k, up to the larger of the lambda bound and the weight cap
    at lambda^0: past it every image of a nonconstant term truncates away,
    and a constant term is summed once per k."""
    trunc = f.trunc
    total = SymSeries.zero(trunc)
    for k in range(1, max(trunc.lambda_max, trunc.cap(0), 1) + 1):
        total = total + f.adams(k) * Fraction(1, k)
    return total


# -- graded pieces read through the public protocol ------------------------------------


def weights_at(s: SymSeries, e: int) -> set[int]:
    """The p-weights of the terms of s at lambda^e."""
    return {sum(rho) for (le, rho), _ in s.items() if le == e}


def lambda_component(s: SymSeries, e: int) -> SymSeries:
    """The terms of s at lambda^e, in the same truncation."""
    return SymSeries(s.trunc, {key: c for key, c in s.items() if key[0] == e})


def component(s: SymSeries, e: int, n: int) -> SymSeries:
    """The terms of s at lambda^e of p-weight n, in the same truncation."""
    return SymSeries(s.trunc, {key: c for key, c in s.items() if key[0] == e and sum(key[1]) == n})


def max_exponent(p: HodgePoly) -> int:
    """Largest single-variable exponent of p (0 for the zero polynomial)."""
    return max((max(i, j) for (i, j), _ in p.items()), default=0)


# -- the gluing operator by formal derivatives ---------------------------------------


def gluing_by_derivatives(f: SymSeries, mode: GluingMode) -> SymSeries:
    """Sum over k of (k/2) d^2/dp_k^2 f + d/dp_{2k} f, built from the
    package's series derivative; in LITERAL mode the k-th summand moves up
    by lambda^{2k} and is re-truncated."""
    total = SymSeries.zero(f.trunc)
    top = max((rho[0] for (_, rho), _ in f.items() if rho), default=0)
    for k in range(1, top + 1):
        summand = f.diff_p(k).diff_p(k) * Fraction(k, 2)
        if 2 * k <= top:
            summand = summand + f.diff_p(2 * k)
        if mode is GluingMode.LITERAL:
            summand = summand.with_truncation(f.trunc, lambda_shift=2 * k)
        total = total + summand
    return total


# -- expressions evaluated on series alone --------------------------------------------


def eval_as_series(expr: exprlang.Expr, trunc) -> SymSeries:
    """The value of an expression tree with every leaf a series: a number or
    q, u, v as a constant series, an s or h atom by Jacobi-Trudi and a p
    atom as one term.  So every sum, product and power is series arithmetic
    one pair at a time, and nothing is lifted from a polynomial to a series
    or summed in one pass as in ``exprlang.eval_expression``."""
    variables = {"q": HodgePoly.q(), "u": HodgePoly.u(), "v": HodgePoly.v()}
    if isinstance(expr, exprlang.IntLit):
        return SymSeries.constant(trunc, expr.value)
    if isinstance(expr, exprlang.VarAtom):
        return SymSeries.constant(trunc, variables[expr.name])
    if isinstance(expr, exprlang.SchurAtom):
        return schur_jacobi_trudi(expr.mu, trunc)
    if isinstance(expr, exprlang.PowerAtom):
        return SymSeries(trunc, {(0, (expr.n,)): 1})
    if isinstance(expr, exprlang.Neg):
        return -eval_as_series(expr.operand, trunc)
    if isinstance(expr, exprlang.Pow):
        return eval_as_series(expr.base, trunc) ** expr.exponent
    return _fold(expr, [eval_as_series(operand, trunc) for operand in _operands(expr)])


def _operands(expr: exprlang.Sum | exprlang.Product) -> tuple[exprlang.Expr, ...]:
    return expr.terms if isinstance(expr, exprlang.Sum) else expr.factors


def _fold(expr: exprlang.Sum | exprlang.Product, values: list):
    """The values of the operands of a sum or product added or multiplied
    one pair at a time, left to right."""
    total = values[0]
    for value in values[1:]:
        total = total + value if isinstance(expr, exprlang.Sum) else total * value
    return total


def eval_by_polys(expr: exprlang.Expr, trunc) -> SymSeries:
    """The value of an expression tree with every part that has no s, h or p
    atom a ``HodgePoly`` built by its arithmetic, one operation at a time,
    and lifted to a constant series only where it meets a series; s, h and
    p atoms as in ``eval_as_series``.  So no polynomial is held as bare
    numerators and no sum is taken in one pass, as in
    ``exprlang.eval_expression``."""
    value = _poly_or_series(expr, trunc)
    return value if isinstance(value, SymSeries) else SymSeries.constant(trunc, value)


def _poly_or_series(expr: exprlang.Expr, trunc) -> HodgePoly | SymSeries:
    variables = {"q": HodgePoly.q(), "u": HodgePoly.u(), "v": HodgePoly.v()}
    if isinstance(expr, exprlang.IntLit):
        return HodgePoly.const(expr.value)
    if isinstance(expr, exprlang.VarAtom):
        return variables[expr.name]
    if isinstance(expr, (exprlang.SchurAtom, exprlang.PowerAtom)):
        return eval_as_series(expr, trunc)
    if isinstance(expr, exprlang.Neg):
        return -_poly_or_series(expr.operand, trunc)
    if isinstance(expr, exprlang.Pow):
        return _poly_or_series(expr.base, trunc) ** expr.exponent
    values = [_poly_or_series(operand, trunc) for operand in _operands(expr)]
    if any(isinstance(x, SymSeries) for x in values):
        values = [x if isinstance(x, SymSeries) else SymSeries.constant(trunc, x) for x in values]
    return _fold(expr, values)


# -- syntactic bounds, one record per node ----------------------------------------------


def bounds_by_records(expr: exprlang.Expr) -> exprlang.Bounds:
    """The bounds of ``exprlang.bounds`` walked with a ``Bounds`` record per
    operand, read by field name and combined field by field; every float
    operation in the same order, so the two agree under ==."""
    Bounds = exprlang.Bounds
    if isinstance(expr, exprlang.IntLit):
        return Bounds(0, 0, 0, 0, 0, 0, 0, log10(abs(expr.value)) if expr.value else 0.0, 0.0)
    if isinstance(expr, exprlang.VarAtom):
        i, j = int(expr.name != "v"), int(expr.name != "u")
        return Bounds(0, i, j, i - j, i - j, i + j, i + j, 0.0, 0.0)
    if isinstance(expr, exprlang.PowerAtom):
        return Bounds(expr.n, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
    if isinstance(expr, exprlang.SchurAtom):
        n = sum(expr.mu)
        return Bounds(n, 0, 0, 0, 0, 0, 0, 0.0, lgamma(n + 1) / log(10))
    if isinstance(expr, exprlang.Neg):
        return bounds_by_records(expr.operand)
    if isinstance(expr, exprlang.Pow):
        base = bounds_by_records(expr.base)
        k = expr.exponent
        if k == 0:
            return Bounds(
                *base[:3], min(base.lo, 0), max(base.hi, 0), min(base.tlo, 0), max(base.thi, 0),
                base.norm, base.den,
            )
        kf = min(k, sys.float_info.max)
        return Bounds(*(k * grade for grade in base[:7]), kf * base.norm, kf * base.den)
    first, *rest = _operands(expr)
    a = bounds_by_records(first)
    for operand in rest:
        b = bounds_by_records(operand)
        if isinstance(expr, exprlang.Product):
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


# -- the expression scanner, one character at a time ------------------------------------


def tokenize_by_characters(text: str, line: int, col: int) -> list[tuple[str, str, int, int]]:
    """The tokens (kind, text, line, col) of expression text, read one
    character at a time: spaces, tabs and carriage returns advance the
    column, a newline the line; a run of ASCII digits is an int, one of
    q, u, v, s, h, p a name, and any other run of ASCII letters, any other
    character or an int past the interpreter's digit limit is an
    ExprParseError at its first character.  The last token is ("eof", "")."""
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
            tokens.append(("int", m.group(), line, col))
            idx += m.end()
            col += m.end()
        elif ch.isascii() and ch.isalpha():
            m = re.match(r"[A-Za-z]+", text[idx:])
            name = m.group()
            if len(name) != 1 or name not in "quvshp":
                raise ExprParseError(f"unknown symbol {name!r}", line, col)
            tokens.append(("name", name, line, col))
            idx += 1
            col += 1
        elif ch in "[](),^*+-":
            tokens.append((ch, ch, line, col))
            idx += 1
            col += 1
        else:
            raise ExprParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _TokenParser:
    """A recursive descent with a method per rule over the tokens of
    ``tokenize_by_characters``, each carrying its own position."""

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0  # open parentheses and unary minuses around the token

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int, int]:
        token = self.tokens[self.idx]
        self.idx += 1
        return token

    def refuse(self, message: str, token: tuple[str, str, int, int]) -> ExprParseError:
        return ExprParseError(message, token[2], token[3])

    def expect(self, kind: str, what: str) -> tuple[str, str, int, int]:
        token = self.peek()
        if token[0] != kind:
            found = repr(token[1]) if token[0] != "eof" else "end of input"
            raise self.refuse(f"expected {what}, got {found}", token)
        return self.advance()

    def expr(self) -> exprlang.Expr:
        terms = [self.term()]
        while self.peek()[0] in "+-":
            op = self.advance()
            right = self.term()
            terms.append(right if op[0] == "+" else exprlang.Neg(right))
        return terms[0] if len(terms) == 1 else exprlang.Sum(tuple(terms))

    def term(self) -> exprlang.Expr:
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else exprlang.Product(tuple(factors))

    def nest(self, token: tuple[str, str, int, int]) -> None:
        self.depth += 1
        if self.depth > exprlang.MAX_NESTING:
            raise self.refuse(
                f"parentheses and unary minus nest deeper than {exprlang.MAX_NESTING} levels",
                token,
            )

    def factor(self) -> exprlang.Expr:
        if self.peek()[0] == "-":
            self.nest(self.advance())
            node = exprlang.Neg(self.factor())
            self.depth -= 1
            return node
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            token = self.expect("int", "a nonnegative integer exponent")
            return exprlang.Pow(base, int(token[1]))
        return base

    def atom(self) -> exprlang.Expr:
        token = self.peek()
        if token[0] == "int":
            self.advance()
            return exprlang.IntLit(int(token[1]))
        if token[0] == "(":
            self.nest(self.advance())
            node = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        if token[0] == "name":
            self.advance()
            if token[1] in "quv":
                return exprlang.VarAtom(token[1])
            if token[1] == "s":
                return exprlang.SchurAtom(self.bracket_partition())
            index = self.bracket_index()
            return exprlang.SchurAtom((index,)) if token[1] == "h" else exprlang.PowerAtom(index)
        found = repr(token[1]) if token[0] != "eof" else "end of input"
        raise self.refuse(f"expected a value, got {found}", token)

    def bracket_partition(self) -> tuple[int, ...]:
        opening = self.expect("[", "'['")
        parts = [int(self.expect("int", "a partition part")[1])]
        while self.peek()[0] == ",":
            self.advance()
            parts.append(int(self.expect("int", "a partition part")[1]))
        self.expect("]", "']'")
        if any(part < 1 for part in parts):
            raise self.refuse("partition parts must be positive", opening)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise self.refuse("partition parts must be weakly decreasing", opening)
        return tuple(parts)

    def bracket_index(self) -> int:
        opening = self.expect("[", "'['")
        token = self.expect("int", "an index")
        self.expect("]", "']'")
        if int(token[1]) < 1:
            raise self.refuse("index must be positive", opening)
        return int(token[1])


def parse_by_tokens(text: str, line: int = 1, col: int = 1) -> exprlang.Expr:
    """The syntax tree of expression text, or its ExprParseError: the whole
    text is scanned by ``tokenize_by_characters`` before any token is
    parsed, so a scan error anywhere comes before a parse error."""
    parser = _TokenParser(tokenize_by_characters(text, line, col))
    node = parser.expr()
    trailing = parser.peek()
    if trailing[0] != "eof":
        raise parser.refuse(f"unexpected trailing input {trailing[1]!r}", trailing)
    return node


# -- the packed closed series and the gluing recursion read back ------------------------


def code_key(codes: plethysm._Codes, code: int) -> tuple[int, tuple[int, ...]]:
    """The key (e, rho) of a code of the gluing recursion, read through
    ``_Codes.parts``."""
    rho = tuple(k for k, m, _ in reversed(codes.parts(code)) for _ in range(m))
    return code & codes.emask, rho


def unpacked(packing: Packing, x: int, den: int) -> HodgePoly:
    """The canonical polynomial of the packed numerators x of packing over
    the positive int den."""
    return packing.poly_of(*reduced_digits(packing.digits(x), den))


def decoded(closed: ClosedSeries) -> SymSeries:
    """The closed series as a series in the p-basis: every packed term
    decoded, in the truncation of the closed series."""
    packing, den = closed._packing, closed._den
    return _wrap(
        closed.trunc,
        {code_key(closed._codes, code): unpacked(packing, x, den) for code, x in closed._values.items()},
    )


def flow_parts(w0: SymSeries, mode: GluingMode = GluingMode.GRADED) -> list[SymSeries]:
    """The parts W_0 = w0, W_1, W_2, ... of log(exp(t Delta) exp(w0)) from
    the package's gluing recursion, each decoded to a series."""
    codes, packing, parts = plethysm._flow(w0, mode)
    return [w0] + [
        _wrap(w0.trunc, {code_key(codes, code): unpacked(packing, x, den) for code, x in values.items()})
        for values, _, den in parts[1:]
    ]
