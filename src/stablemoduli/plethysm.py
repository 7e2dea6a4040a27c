"""Lambda-ring exponential and logarithm, and the node-gluing operator.

``plethystic_exp`` turns a series with zero constant term into a 1-plus
series; on generating series of moduli data it encodes passing to disjoint
unions of connected pieces.  ``plethystic_log`` is its inverse.  The gluing
operator is the second-order differential operator in the power sums whose
exponential sums over all ways of joining marked points in pairs:

    sum over k >= 1 of  (k/2) d^2/dp_k^2 + d/dp_{2k}

The first summand glues two points on (possibly different) components; the
second glues a pair of points swapped by a cycle of even order.

Two gradings are on offer for the operator.  In the default ``GRADED`` mode
it preserves the lambda exponent, matching the 2g-2+n grading of the moduli
generating series (gluing two points turns (g, n) into (g+1, n-2), which
fixes 2g-2+n).  ``LITERAL`` mode multiplies the k-th summand by lambda^{2k}
instead; it belongs to a lambda^{2g-2} grading and is kept only so the
mismatch is demonstrable: under it the boundary contribution of the
one-pointed genus-one space lands in the wrong slot.

``glued_log`` gives log(exp(Delta) Exp f) without building Exp f or its
glued image: ``gluing_flow`` solves for it as a sum of connected parts, one
per number of gluings, by a recursion in the derivatives d/dp_k.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import PreconditionError
from .hodge import Accumulator
from .partitions import mobius, multiplicities, weight
from .series import (
    SymSeries,
    _add_grouped_product,
    _merge_parts,
    _wrap,
    exp_series,
    log_series,
)


class GluingMode(enum.Enum):
    GRADED = "graded"
    LITERAL = "literal"


def _adams_bound(f: SymSeries) -> int:
    # psi_k scales both gradings by k, so beyond this bound everything
    # truncates away: lambda^1 needs k <= lambda_max, and a weight-1 term
    # at lambda^0 needs k <= cap(0).
    return max(f.trunc.lambda_max, f.trunc.cap(0), 1)


def adams_sum(f: SymSeries) -> SymSeries:
    """Sum over k >= 1 of psi_k(f) / k, the argument of the exponential in
    Exp(f)."""
    total = SymSeries.zero(f.trunc)
    for k in range(1, _adams_bound(f) + 1):
        total = total + f.adams(k) * Fraction(1, k)
    return total


def mobius_adams_sum(g: SymSeries) -> SymSeries:
    """Sum over k >= 1 of mu(k)/k psi_k(g), the inverse of ``adams_sum``."""
    total = SymSeries.zero(g.trunc)
    for k in range(1, _adams_bound(g) + 1):
        m = mobius(k)
        if m:
            total = total + g.adams(k) * Fraction(m, k)
    return total


def plethystic_exp(f: SymSeries) -> SymSeries:
    """Exp(f) = exp(sum over k >= 1 of psi_k(f) / k); needs f to have zero
    constant term, and returns a series with constant term 1."""
    if f.constant_term():
        raise PreconditionError("plethystic exp needs a zero constant term")
    return exp_series(adams_sum(f))


def plethystic_log(g: SymSeries) -> SymSeries:
    """Inverse of plethystic_exp: sum over k of mu(k)/k psi_k(log g), for g
    with constant term exactly 1."""
    return mobius_adams_sum(log_series(g))


def gluing_operator(
    f: SymSeries, mode: GluingMode = GluingMode.GRADED, divisor: int = 1
) -> SymSeries:
    """One application of the gluing operator, in one pass over the terms,
    divided by the positive int divisor."""
    acc = Accumulator()
    _add_gluing(acc, f._terms, mode, f.trunc.lambda_max)
    return _wrap(f.trunc, acc.result(divisor))


def _add_gluing(
    acc: Accumulator, terms: dict, mode: GluingMode, top: int, scale: int = 1
) -> None:
    """Add scale times the gluing operator of the term map into acc.

    On p_rho with m parts equal to k, (k/2) d^2/dp_k^2 gives
    k m (m-1)/2 p_{rho-k-k}, and for even k the summand d/dp_k of index
    k/2 gives m p_{rho-k}.  LITERAL mode raises the lambda exponent of these
    by 2k and by k; terms past the lambda bound top are left out.  Weight
    only falls and the caps are monotone, so those are exactly the terms the
    truncation drops.
    """
    shift = 1 if mode is GluingMode.LITERAL else 0
    for (e, rho), c in terms.items():
        for k, m in multiplicities(rho).items():
            idx = rho.index(k)
            if m > 1 and e + shift * 2 * k <= top:
                key = (e + shift * 2 * k, rho[:idx] + rho[idx + 2 :])
                acc.add_scaled(key, c, scale * (k * m * (m - 1) // 2))
            if k % 2 == 0 and e + shift * k <= top:
                acc.add_scaled((e + shift * k, rho[:idx] + rho[idx + 1 :]), c, scale * m)


def exp_gluing(f: SymSeries, mode: GluingMode = GluingMode.GRADED) -> SymSeries:
    """Exponential of the gluing operator: sum over m of its m-th iterate
    divided by m!.  Terminates since each application drops p-weight by at
    least 2.  Each iterate is the previous one glued and divided by m, and
    all of them are summed in one accumulator, reduced once at the end."""
    total = Accumulator()
    term = f
    m = 1
    while term:
        for key, c in term._terms.items():
            total.add_scaled(key, c, 1)
        term = gluing_operator(term, mode, divisor=m)
        m += 1
    return _wrap(f.trunc, total.result())


def glued_log(f: SymSeries, mode: GluingMode = GluingMode.GRADED) -> SymSeries:
    """log(exp(Delta) Exp f), summed from the parts of :func:`gluing_flow`,
    for f with zero constant term under the conditions stated there; it
    equals ``log_series(exp_gluing(plethystic_exp(f), mode))``."""
    if f.constant_term():
        raise PreconditionError("plethystic exp needs a zero constant term")
    total = Accumulator()
    for part in gluing_flow(adams_sum(f), mode):
        for key, c in part._terms.items():
            total.add_scaled(key, c, 1)
    return _wrap(f.trunc, total.result())


def gluing_flow(w0: SymSeries, mode: GluingMode = GluingMode.GRADED) -> list[SymSeries]:
    """The parts W_0 = w0, W_1, W_2, ... of W(t) = log(exp(t Delta) exp(w0)).

    Since exp(-W) Delta exp(W) = Delta W + sum over k of (k/2) (dW/dp_k)^2,
    W solves dW/dt = Delta W + sum_k (k/2) (dW/dp_k)^2, so

        W_{j+1} = (Delta W_j + sum_k (k/2) sum_{a+b=j} d_k W_a d_k W_b) / (j+1),

    with d_k = d/dp_k.  In LITERAL mode the k-th quadratic summand carries
    lambda^{2k}, as the d^2/dp_k^2 summand of the gluing operator does.

    Needs w0 to obey the 3e rule of ``Truncation.standard`` (no term of
    weight above 3e at lambda^e) in a truncation whose caps are at least
    3e; then the recursion is exact below the lambda bound.  The true W_j
    obeys the rule too: exp(w0) does (the rule is closed under products),
    Delta only lowers weight, and log is a series in products.  Every
    summand of the recursion obeys it as well: d_k W_a d_k W_b has weight
    at most 3(e_a + e_b) - 2k at lambda^(e_a + e_b), and the LITERAL shift
    only raises the lambda exponent.  So the caps drop nothing, and since
    lambda exponents only add, what lies past the lambda bound never feeds
    a term below it.  Each gluing lowers weight by 2, so W_j has weight at
    most 3e - 2j; the list stops at j = 3 lambda_max / 2, past which every
    part is zero.

    Each step adds every term of 2(j+1) W_{j+1} into one accumulator and
    reduces once: 2 Delta W_j in one pass, and each unordered pair once,
    (2k) d_k W_a d_k W_b for a < b and k (d_k W_a)^2 for a = b, with every
    d_k W_a computed once.
    """
    trunc = w0.trunc
    top = trunc.lambda_max
    if any(cap < 3 * e for e, cap in enumerate(trunc.weight_caps)) or any(
        weight(rho) > 3 * e for (e, rho) in w0._terms
    ):
        raise PreconditionError(
            "the gluing flow needs weight caps of at least 3e and no term of "
            "weight above 3e at lambda^e"
        )
    shift = 2 if mode is GluingMode.LITERAL else 0
    parts = [w0._terms]
    # a -> k -> d_k W_a grouped by lambda exponent for the products
    derivs: list[dict[int, dict]] = []
    for j in range(3 * top // 2):
        derivs.append(_derivatives(parts[j]))
        acc = Accumulator()
        _add_gluing(acc, parts[j], mode, top, 2)
        for a in range(j // 2 + 1):
            b = j - a
            for k, grouped in derivs[a].items():
                if a == b:
                    _add_square(acc, grouped, k, shift * k, top)
                elif k in derivs[b]:
                    _add_grouped_product(acc, grouped, derivs[b][k], trunc, 2 * k, shift * k)
        parts.append(acc.result(2 * (j + 1)))
    return [_wrap(trunc, terms) for terms in parts]


def _derivatives(terms: dict) -> dict[int, dict]:
    """For each k with a nonzero d/dp_k of the term map: that derivative,
    grouped by lambda exponent."""
    out: dict[int, dict] = {}
    for (e, rho), c in terms.items():
        for k, m in multiplicities(rho).items():
            idx = rho.index(k)
            smaller = rho[:idx] + rho[idx + 1 :]
            grouped = out.setdefault(k, {})
            grouped.setdefault(e, []).append((smaller, weight(smaller), c * m if m > 1 else c))
    return out


def _add_square(acc: Accumulator, grouped: dict, k: int, lift: int, top: int) -> None:
    """Add k (d_k W)^2, with lambda raised by lift, into acc from the groups
    of :func:`_derivatives`, each unordered pair of terms once: k c^2 for a
    term with itself and 2k c c' for two distinct terms.  The weight needs
    no check: it stays within the 3e rule, as :func:`gluing_flow` argues."""
    for e1, terms1 in grouped.items():
        for e2, terms2 in grouped.items():
            e = e1 + lift + e2
            if e2 < e1 or e > top:
                continue
            if e2 > e1:
                for rho, _, c1 in terms1:
                    for sigma, _, c2 in terms2:
                        acc.add_product((e, _merge_parts(rho, sigma)), c1, c2, 2 * k)
                continue
            for i, (rho, _, c1) in enumerate(terms1):
                acc.add_product((e, _merge_parts(rho, rho)), c1, c1, k)
                for sigma, _, c2 in terms1[i + 1 :]:
                    acc.add_product((e, _merge_parts(rho, sigma)), c1, c2, 2 * k)
