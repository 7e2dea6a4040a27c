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
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import PreconditionError
from .hodge import Accumulator
from .partitions import mobius, multiplicities
from .series import SymSeries, _wrap, exp_series, log_series


class GluingMode(enum.Enum):
    GRADED = "graded"
    LITERAL = "literal"


def _adams_bound(f: SymSeries) -> int:
    # psi_k scales both gradings by k, so beyond this bound everything
    # truncates away: lambda^1 needs k <= lambda_max, and a weight-1 term
    # at lambda^0 needs k <= cap(0).
    return max(f.trunc.lambda_max, f.trunc.cap(0), 1)


def plethystic_exp(f: SymSeries) -> SymSeries:
    """Exp(f) = exp(sum over k >= 1 of psi_k(f) / k); needs f to have zero
    constant term, and returns a series with constant term 1."""
    if f.constant_term():
        raise PreconditionError("plethystic exp needs a zero constant term")
    arg = SymSeries.zero(f.trunc)
    for k in range(1, _adams_bound(f) + 1):
        arg = arg + f.adams(k) * Fraction(1, k)
    return exp_series(arg)


def plethystic_log(g: SymSeries) -> SymSeries:
    """Inverse of plethystic_exp: sum over k of mu(k)/k psi_k(log g), for g
    with constant term exactly 1."""
    inner = log_series(g)
    total = SymSeries.zero(g.trunc)
    for k in range(1, _adams_bound(g) + 1):
        m = mobius(k)
        if m:
            total = total + inner.adams(k) * Fraction(m, k)
    return total


def gluing_operator(
    f: SymSeries, mode: GluingMode = GluingMode.GRADED, divisor: int = 1
) -> SymSeries:
    """One application of the gluing operator, in one pass over the terms,
    divided by the positive int divisor.

    On p_rho with m parts equal to k, (k/2) d^2/dp_k^2 gives
    k m (m-1)/2 p_{rho-k-k}, and for even k the summand d/dp_k of index
    k/2 gives m p_{rho-k}.  LITERAL mode raises the lambda exponent of these
    by 2k and by k; the truncation drops what it does not admit.  Weight
    only falls and the caps are monotone, so that is exactly the terms past
    the lambda bound.
    """
    shift = 1 if mode is GluingMode.LITERAL else 0
    top = f.trunc.lambda_max
    acc = Accumulator()
    for (e, rho), c in f._terms.items():
        for k, m in multiplicities(rho).items():
            idx = rho.index(k)
            if m > 1 and e + shift * 2 * k <= top:
                key = (e + shift * 2 * k, rho[:idx] + rho[idx + 2 :])
                acc.add_scaled(key, c, k * m * (m - 1) // 2)
            if k % 2 == 0 and e + shift * k <= top:
                acc.add_scaled((e + shift * k, rho[:idx] + rho[idx + 1 :]), c, m)
    return _wrap(f.trunc, acc.result(divisor))


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
