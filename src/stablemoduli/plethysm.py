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
from math import gcd, lcm

from .errors import PreconditionError
from .hodge import HodgePoly, Packing, magnitude
from .partitions import mobius, multiplicities, weight
from .series import (
    SymSeries,
    _measure,
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


def gluing_operator(f: SymSeries, mode: GluingMode = GluingMode.GRADED) -> SymSeries:
    """One application of the gluing operator, in one pass over the terms."""
    terms: dict = {}
    for target, factor, key in _glued(f._terms, mode, f.trunc.lambda_max):
        terms[target] = terms.get(target, HodgePoly.zero()) + f._terms[key] * factor
    return _wrap(f.trunc, {key: c for key, c in terms.items() if c})


def _glued(keys, mode: GluingMode, top: int) -> list[tuple]:
    """The terms of the gluing operator on the terms with the keys (e, rho):
    [(target key, factor, key)].

    On p_rho with m parts equal to k, (k/2) d^2/dp_k^2 gives k m (m-1)/2
    p_{rho-k-k}, and for even k the summand d/dp_k of index k/2 gives
    m p_{rho-k}.  LITERAL mode raises the lambda exponent of these by 2k
    and by k; terms past the lambda bound top are left out.  Weight only
    falls and the caps are monotone, so those are exactly the terms the
    truncation drops.
    """
    shift = 1 if mode is GluingMode.LITERAL else 0
    glued = []
    for key in keys:
        e, rho = key
        for k, m in multiplicities(rho).items():
            idx = rho.index(k)
            if m > 1 and e + shift * 2 * k <= top:
                glued.append(((e + shift * 2 * k, rho[:idx] + rho[idx + 2 :]), k * m * (m - 1) // 2, key))
            if k % 2 == 0 and e + shift * k <= top:
                glued.append(((e + shift * k, rho[:idx] + rho[idx + 1 :]), m, key))
    return glued


def exp_gluing(f: SymSeries, mode: GluingMode = GluingMode.GRADED) -> SymSeries:
    """Exponential of the gluing operator: sum over m of its m-th iterate
    divided by m!.  Terminates since each application drops p-weight by at
    least 2.  Each iterate is the previous one glued and divided by m."""
    total = term = f
    m = 1
    while term:
        term = gluing_operator(term, mode) * Fraction(1, m)
        total = total + term
        m += 1
    return total


def glued_log(f: SymSeries, mode: GluingMode = GluingMode.GRADED) -> SymSeries:
    """log(exp(Delta) Exp f), summed from the parts of :func:`gluing_flow`,
    for f with zero constant term under the conditions stated there; it
    equals ``log_series(exp_gluing(plethystic_exp(f), mode))``.  The parts
    stay packed: they are summed over the lcm of their denominators, in a
    packing widened first if the sum of their l1 norms needs it, and their
    codes are decoded once, in the sum."""
    if f.constant_term():
        raise PreconditionError("plethystic exp needs a zero constant term")
    codes, packing, parts = _flow(adams_sum(f), mode)
    den = lcm(*(d for _, _, d in parts))
    bounds: dict = {}
    for _, norms, d in parts:
        for code, norm in norms.items():
            bounds[code] = bounds.get(code, 0) + norm * (den // d)
    packing, parts = _fit(packing, parts, max(bounds.values(), default=0))
    sums: dict = {}
    get = sums.get
    for values, _, d in parts:
        for code, x in values.items():
            sums[code] = get(code, 0) + x * (den // d)
    return _wrap(f.trunc, {codes.decode(code): c for code, c in packing.polys(sums, den).items()})


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

    The parts are computed packed, one int per term in a
    :class:`~stablemoduli.hodge.Packing`, each part over one denominator
    (the lcm of its coefficients' own), so that a product of two terms is
    one multiply-add; :func:`_flow` says how the layout is bounded.  Each
    term is keyed by one int code (:class:`_Codes`): e in the low bits of
    the lambda bound L, and above them a field of (3L).bit_length() bits
    for the multiplicity of each part.  By the 3e rule every term and every
    product kept has e <= L and weight at most 3e <= 3L, so no field
    overflows: the code of a product is the sum of its factors' codes, with
    no carry.  The codes are decoded once, when the parts are handed out.
    """
    codes, packing, parts = _flow(w0, mode)
    return [w0] + [
        _wrap(w0.trunc, {codes.decode(code): packing.poly(x, den) for code, x in values.items()})
        for values, _, den in parts[1:]
    ]


class _Codes:
    """The keys of the gluing recursion within the lambda bound L: the term
    lambda^e p_rho as the int e + sum over the parts k of rho of
    m_k(rho) unit(k), with unit(k) = 2^(ebits + (k - 1) fbits), ebits =
    L.bit_length() and fbits = (3L).bit_length().  While e <= L and every
    multiplicity is below 2^fbits, as :func:`gluing_flow` shows for the
    recursion, the code of a product is the sum of the codes, d/dp_k
    subtracts unit(k) and raising lambda by c adds c.  ``parts`` reads the
    parts of a code once per partition for the run.
    """

    __slots__ = ("ebits", "fbits", "emask", "_parts")

    def __init__(self, top: int):
        self.ebits = top.bit_length()
        self.fbits = (3 * top).bit_length()
        self.emask = (1 << self.ebits) - 1  # code & emask is e
        self._parts: dict = {}  # code >> ebits -> [(k, m, unit(k))]

    def unit(self, k: int) -> int:
        return 1 << (self.ebits + (k - 1) * self.fbits)

    def encode(self, e: int, rho) -> int:
        return e + sum(m * self.unit(k) for k, m in multiplicities(rho).items())

    def decode(self, code: int) -> tuple[int, tuple[int, ...]]:
        rho = tuple(k for k, m, _ in reversed(self.parts(code)) for _ in range(m))
        return code & self.emask, rho

    def parts(self, code: int) -> list[tuple[int, int, int]]:
        """(k, m_k, unit(k)) for each part k of the code's partition."""
        rest = code >> self.ebits
        found = self._parts.get(rest)
        if found is not None:
            return found
        fields = self._parts[rest] = []
        mask = (1 << self.fbits) - 1
        unit = 1 << self.ebits
        k = 1
        while rest:
            if rest & mask:
                fields.append((k, rest & mask, unit))
            rest >>= self.fbits
            unit <<= self.fbits
            k += 1
        return fields


# ({code: packed numerators}, {code: their l1 norm}, denominator)
Part = tuple[dict, dict, int]

# The most bits an int of the products of the gluing recursion may hold:
# the cells of the packing of products times their width.  The shipped
# table needs 1632 at the largest truncation.  A row whose coefficients
# reach a high power of u or v at a low lambda exponent spreads over a
# wide box by the slope bound, and with large digits each product would
# take megabits, so a layout past the limit is refused before it is used.
MAX_PRODUCT_BITS = 1 << 20


def _sized(packing: Packing) -> Packing:
    """packing, if an int of the products of two of its ints holds at most
    MAX_PRODUCT_BITS bits; otherwise PreconditionError."""
    product = packing.times(packing)
    size = product.span * product.bands * product.bits
    if size > MAX_PRODUCT_BITS:
        raise PreconditionError(
            f"the gluing recursion would hold each product in {magnitude(size)} bits, "
            f"past the limit of {MAX_PRODUCT_BITS}"
        )
    return packing


def _flow(w0: SymSeries, mode: GluingMode) -> tuple[_Codes, Packing, list[Part]]:
    """The parts of :func:`gluing_flow` packed and keyed by their codes, the
    codes and the packing; part 0 is w0 without its constant term, which no
    gluing or derivative reaches.

    The codes (:class:`_Codes`) hold every key of the run.  Every term of a
    part has e <= L and, by the 3e rule, weight at most 3e <= 3L, and so
    does every product of two derivative terms that lands at lambda^e <= L:
    its fields, the sums of its factors', stay below 2^fbits > 3L.  So a
    product's code is one int add, with no carry, and its weight needs no
    check; products past the lambda bound are left out before they are
    formed.

    The layout comes from a slope bound.  Every term of w0 but the constant
    has lambda exponent e >= 1, so let s_u, s_v and s_b be the largest
    ratios of the u-degree, the v-degree and |i - j| of a coefficient to
    its e.  The bounds i <= s_u e, j <= s_v e and |i - j| <= s_b e at
    lambda^e hold for every term the recursion makes: products add degrees
    and exponents alike, a derivative or a gluing leaves the coefficient
    alone and the exponent where it is (or raises it), and lambda^e with e
    past the lambda bound L is dropped.  So the box i <= floor(s_u L),
    j <= floor(s_v L), |i - j| <= floor(s_b L) holds every coefficient,
    every product included: the parts are packed in the packing of that
    box, and each step sums in the packing of products of two of them
    (``Packing.times``), whose columns stay within the box.

    The width is checked before each step: each digit of the step's sum at
    lambda^e, over the lcm of the denominators it brings together, is at
    most the sum of the l1 norms of the gluing terms that land at lambda^e
    and of the products of the l1 norms of the derivative groups whose
    product lands there.  When the packing is too narrow for the largest of
    these bounds, every part is repacked in one wide enough (``_fit``)
    before anything is added.  The first layout and every widened one must
    keep a product int within MAX_PRODUCT_BITS, or the run is refused.
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
    codes = _Codes(top)
    # floor(s L) for each slope s is the largest floor(L i / e) over the
    # monomials u^i v^j at lambda^e, and so on
    monomials = [(e, i, j) for (e, _), c in w0._terms.items() if e for i, j in c._terms]
    du = max((top * i // e for e, i, _ in monomials), default=0)
    dv = max((top * j // e for e, _, j in monomials), default=0)
    band = max((top * abs(i - j) // e for e, i, j in monomials), default=0)
    terms = {codes.encode(e, rho): c for (e, rho), c in w0._terms.items() if e}
    den, _, norms = _measure(terms)
    packing = _sized(Packing.holding((0, du, 0, dv, -band, band), max(norms.values(), default=0)))
    parts = [({code: packing.pack(c, den // c._den) for code, c in terms.items()}, norms, den)]
    moves: list[tuple] = []  # a -> (index, dnorms, glued) of W_a, from _moves
    derivs: list[dict] = []  # a -> k -> e -> [(code, packed d_k W_a term)]
    for j in range(3 * top // 2):
        moves.append(_moves(parts[j][1], codes, mode, top))
        pairs = [(a, j - a) for a in range(j // 2 + 1)]
        dj = parts[j][2]
        den = lcm(dj, *(parts[a][2] * parts[b][2] for a, b in pairs))
        # 2 (j+1) W_{j+1} = 2 Delta W_j + sum over k of k d_k W_a d_k W_b over
        # ordered (a, b); each unordered pair is taken once, with 2k for a < b.
        glue_mult = 2 * (den // dj)
        # a bound on the digits of the sums at each lambda exponent
        bounds = dict.fromkeys(range(top + 1), 0)
        norms = parts[j][1]
        for target, factor, code in moves[j][2]:
            bounds[target & codes.emask] += glue_mult * factor * norms[code]
        for a, b in pairs:
            mult = den // (parts[a][2] * parts[b][2])
            for k, na in moves[a][1].items():
                nb = moves[b][1].get(k)
                if nb:
                    scale = k * (1 + (a < b)) * mult
                    for e1, x in na.items():
                        for e2, y in nb.items():
                            if e1 + e2 + shift * k <= top:
                                bounds[e1 + e2 + shift * k] += scale * x * y
        bound = max(bounds.values())
        if not packing.holds(bound):
            packing, parts = _fit(packing, parts, bound)
            derivs.clear()
        while len(derivs) <= j:
            values = parts[len(derivs)][0]
            derivs.append(
                {
                    k: {
                        e: [(smaller, values[code] * m) for smaller, code, m in group]
                        for e, group in grouped.items()
                    }
                    for k, grouped in moves[len(derivs)][0].items()
                }
            )
        # every product, a gluing term lifted to it, lies in the box
        product = packing.times(packing)
        sums: dict = {}
        get = sums.get
        values = parts[j][0]
        for target, factor, code in moves[j][2]:
            lifted = product.rebase(values[code] * (glue_mult * factor), packing)
            sums[target] = get(target, 0) + lifted
        for a, b in pairs:
            mult = den // (parts[a][2] * parts[b][2])
            for k, grouped in derivs[a].items():
                other = derivs[b].get(k)
                if other is None:
                    continue
                if a == b:
                    _add_square(sums, grouped, k * mult, shift * k, top)
                else:
                    _add_cross(sums, grouped, other, 2 * k * mult, shift * k, top)
        parts.append(_part(sums, product, 2 * (j + 1) * den, packing))
    return codes, packing, parts


def _part(sums: dict, product: Packing, den: int, packing: Packing) -> Part:
    """The nonzero sums of ints of product over the positive int den, moved
    into packing (see :meth:`~stablemoduli.hodge.Packing.rebase`) and over
    one denominator, the lcm of their canonical ones, as a :data:`Part`."""
    moved = {code: packing.rebase(x, product) for code, x in sums.items() if x}
    digits = {code: packing.digits(x) for code, x in moved.items()}
    g = gcd(den, *(c for d in digits.values() for c in d))
    norms = {code: sum(map(abs, d)) // g for code, d in digits.items()}
    return {code: x // g for code, x in moved.items()}, norms, den // g


def _moves(norms: dict, codes: _Codes, mode: GluingMode, top: int) -> tuple[dict, dict, list]:
    """One pass over the terms of a part, given as {code: l1 norm}: where
    d/dp_k of each term lands, {k: {e: [(code less unit(k), code, m)]}} for
    the m parts of the term equal to k; the l1 norm of each such group,
    {k: {e: norm}}, the norms times m; and the terms of the gluing
    operator, [(target code, factor, code)], as :func:`_glued` has them."""
    shift = 1 if mode is GluingMode.LITERAL else 0
    emask = codes.emask
    index: dict = {}
    dnorms: dict = {}
    glued = []
    for code, norm in norms.items():
        e = code & emask
        for k, m, unit in codes.parts(code):
            index.setdefault(k, {}).setdefault(e, []).append((code - unit, code, m))
            group = dnorms.setdefault(k, {})
            group[e] = group.get(e, 0) + norm * m
            if m > 1 and e + shift * 2 * k <= top:
                glued.append((code - 2 * unit + shift * 2 * k, k * m * (m - 1) // 2, code))
            if k % 2 == 0 and e + shift * k <= top:
                glued.append((code - unit + shift * k, m, code))
    return index, dnorms, glued


def _fit(packing: Packing, parts: list[Part], bound: int) -> tuple[Packing, list[Part]]:
    """The packing and the parts, repacked in a wider packing of the same
    layout if that one does not hold bound; PreconditionError if the wider
    one is past MAX_PRODUCT_BITS."""
    if packing.holds(bound):
        return packing, parts
    wider = _sized(packing.widened(bound))
    return wider, [
        ({code: wider.repack(x, packing) for code, x in values.items()}, norms, den)
        for values, norms, den in parts
    ]


def _add_square(sums: dict, grouped: dict, k: int, lift: int, top: int) -> None:
    """Add k (d_k W)^2, with lambda raised by lift, into sums from d_k W
    packed as {e: [(code, x)]}, each unordered pair of terms once: k x^2 for
    a term with itself and 2k x y for two distinct terms, at the sum of
    their codes.  Products past the lambda bound top are left out; the
    weight needs no check, as :func:`_flow` argues."""
    get = sums.get
    for e1, terms1 in grouped.items():
        doubled = [(c + lift, 2 * k * x) for c, x in terms1]
        for e2, terms2 in grouped.items():
            if e2 < e1 or e1 + lift + e2 > top:
                continue
            if e2 > e1:
                for c, x in doubled:
                    for c2, y in terms2:
                        code = c + c2
                        sums[code] = get(code, 0) + x * y
                continue
            for i, (c, x) in enumerate(terms1):
                lifted, x2 = doubled[i]
                code = lifted + c
                sums[code] = get(code, 0) + k * x * x
                for c2, y in terms1[i + 1 :]:
                    code = lifted + c2
                    sums[code] = get(code, 0) + x2 * y


def _add_cross(sums: dict, a: dict, b: dict, scale: int, lift: int, top: int) -> None:
    """Add scale x y, with lambda raised by lift, into sums at the sum of
    the codes, for every term x of a and y of b, each packed as
    {e: [(code, x)]}.  Products past the lambda bound top are left out; the
    weight needs no check, as :func:`_flow` argues."""
    get = sums.get
    for e1, terms_a in a.items():
        within = [terms_b for e2, terms_b in b.items() if e1 + lift + e2 <= top]
        if not within:
            continue
        scaled = [(c + lift, x * scale) for c, x in terms_a]
        for terms_b in within:
            for c, x in scaled:
                for c2, y in terms_b:
                    code = c + c2
                    sums[code] = get(code, 0) + x * y
