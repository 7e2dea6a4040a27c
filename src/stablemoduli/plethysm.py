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

``closed_moduli_series`` gives Log exp(Delta) Exp f without building Exp f
or its glued image: the gluing recursion (:func:`_flow`) solves for
W = log(exp(Delta) Exp f) as a sum of connected parts, one per number of
gluings, by a recursion in the derivatives d/dp_k, and the sum over k of
mu(k)/k psi_k(W) is formed on the packed sum of the parts.  It stays packed
(:class:`ClosedSeries`): a slot report reads its Schur sums off those ints,
and nothing in the package turns them back into p-basis terms.
"""

from __future__ import annotations

import enum
from math import gcd, lcm

from .errors import PreconditionError
from .hodge import HodgePoly, Packing, _reduced, magnitude
from .partitions import mobius, multiplicities, partitions_of, weight
from .series import (
    SymSeries,
    Truncation,
    _measure,
    _wrap,
    exp_series,
    log_series,
    schur_sums,
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
    Exp(f), in one pass over the terms of f: a term at lambda^e >= 1 meets
    only the k <= L // e that keep it within the lambda bound L."""
    trunc = f.trunc
    top, bound = trunc.lambda_max, _adams_bound(f)
    out: dict = {}
    for (e, rho), c in f._terms.items():
        w = weight(rho)
        for k in range(1, (top // e if e else bound) + 1):
            if trunc.admits(k * e, k * w):
                key = (k * e, tuple(k * part for part in rho))
                term = c if k == 1 else _reduced(
                    {(k * i, k * j): n for (i, j), n in c._terms.items()}, c._den * k
                )
                s = out.get(key)
                out[key] = term if s is None else s + term
    return _wrap(trunc, {key: c for key, c in out.items() if c})


def mobius_adams_sum(g: SymSeries) -> SymSeries:
    """Sum over k >= 1 of mu(k)/k psi_k(g), the inverse of ``adams_sum``;
    the last step of ``plethystic_log``.  :func:`closed_moduli_series`
    forms the same sum on packed ints."""
    from fractions import Fraction
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
    from fractions import Fraction
    total = term = f
    m = 1
    while term:
        term = gluing_operator(term, mode) * Fraction(1, m)
        total = total + term
        m += 1
    return total


def closed_moduli_series(f: SymSeries, mode: GluingMode = GluingMode.GRADED) -> ClosedSeries:
    """The full pipeline: Log exp(Delta) Exp f, for f with zero constant
    term in a truncation like ``Truncation.standard`` (see :func:`_flow`),
    as the sum over k of mu(k)/k psi_k(W), with W = log(exp(Delta) Exp f)
    the sum of the parts of the gluing recursion on ``adams_sum(f)``.  The
    result is in the truncation of f.

    Nothing leaves the packing.  The parts are summed over
    the lcm of their denominators, in a packing widened first if the sum
    of their l1 norms needs it.  For k >= 2 only the terms at lambda^e
    with k e <= L move: psi_k re-keys lambda^e p_rho to lambda^(ke)
    p_(k rho) and sends u^i v^j to u^(ki) v^(kj), which stays in the box of
    the packing by its slope bound (see :func:`_flow`).  The terms such a
    move reaches are summed over the denominator times the lcm of those k,
    in a packing wide enough for the sum of the l1 norms that land there;
    every other term is W's own, brought over the same denominator.  Terms
    that cancel drop out, and the rest are handed over packed, each with
    the bound on its l1 norm, as a :class:`ClosedSeries`.
    """
    if f.constant_term():
        raise PreconditionError("plethystic exp needs a zero constant term")
    codes, packing, parts = _flow(adams_sum(f), mode)
    top = f.trunc.lambda_max
    den = lcm(*(d for _, _, d in parts))
    norms: dict = {}
    for _, part_norms, d in parts:
        for code, norm in part_norms.items():
            norms[code] = norms.get(code, 0) + norm * (den // d)
    packing, parts = _fit(packing, parts, max(norms.values(), default=0))
    sums: dict = {}
    get = sums.get
    for values, _, d in parts:
        for code, x in values.items():
            sums[code] = get(code, 0) + x * (den // d)
    ks = [k for k in range(2, top + 1) if mobius(k)]
    mult = lcm(1, *ks)
    images: dict = {}  # target code -> [(k, source code)]
    for code, x in sums.items():
        e = code & codes.emask
        if x and 2 * e <= top:
            for k in ks:
                if k * e > top:
                    break
                images.setdefault(codes.adams(code, k), []).append((k, code))
    bounds = {code: mult * norms[code] for code in sums}
    for target, group in images.items():
        bounds[target] = mult * norms.get(target, 0) + sum(
            mult // k * norms[code] for k, code in group
        )
    bound = max(bounds.values(), default=0)
    wide = packing if packing.holds(bound) else _sized(packing.widened(bound))
    values = {}
    for code, x in sums.items():
        if x and code not in images:
            values[code] = mult * (x if wide is packing else wide.repack(x, packing))
    for target, group in images.items():
        x = sums.get(target)
        y = mult * (x if wide is packing else wide.repack(x, packing)) if x else 0
        for k, code in group:
            y += mobius(k) * (mult // k) * wide.adams(sums[code], k, packing)
        if y:
            values[target] = y
    return ClosedSeries(
        f.trunc, codes, wide, den * mult, values, {code: bounds[code] for code in values}
    )


class ClosedSeries:
    """The closed series as :func:`closed_moduli_series` leaves it: each
    term's numerators packed in one int of one packing over one
    denominator, keyed by its code (:class:`_Codes`), with a bound on their
    l1 norm.  It is read only through :meth:`packed_schur`, which takes a
    component straight from the packed ints."""

    __slots__ = ("trunc", "_codes", "_packing", "_den", "_values", "_norms", "_fields")

    def __init__(
        self, trunc: Truncation, codes: _Codes, packing: Packing, den: int, values: dict,
        norms: dict,
    ):
        self.trunc = trunc
        self._codes, self._packing, self._den = codes, packing, den
        self._values, self._norms = values, norms
        self._fields: dict = {}  # n -> the codes at lambda^0 of partitions_of(n)

    def packed_schur(self, e: int, n: int) -> tuple[Packing, int, list[int], dict]:
        """As :meth:`SymSeries.packed_schur`, from the packed ints: the
        packing is widened, and the component's ints repacked, only if the
        read-off's bound needs it."""
        if self.trunc.admits(e, n):
            fields = self._fields.get(n)
            if fields is None:
                unit = self._codes.unit
                fields = self._fields[n] = [sum(map(unit, rho)) for rho in partitions_of(n)]
            codes = [e + field for field in fields]
        else:
            # no term is kept there, and a code could overflow its fields
            codes = [None] * len(partitions_of(n))
        values, norms, packing = self._values, self._norms, self._packing
        ints = [values.get(code, 0) for code in codes]

        def pack(bound: int) -> tuple[Packing, list[int]]:
            if packing.holds(bound):
                return packing, ints
            wide = packing.widened(bound)
            return wide, [wide.repack(x, packing) for x in ints]

        wide, packed, sums = schur_sums(n, [norms.get(code, 0) for code in codes], pack)
        return wide, self._den, packed, sums


class _Codes:
    """The keys of the gluing recursion within the lambda bound L: the term
    lambda^e p_rho as the int e + sum over the parts k of rho of
    m_k(rho) unit(k), with unit(k) = 2^(ebits + (k - 1) fbits), ebits =
    L.bit_length() and fbits = (3L).bit_length().  While e <= L and every
    multiplicity is below 2^fbits, as :func:`_flow` shows for the
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

    def adams(self, code: int, k: int) -> int:
        """The code of psi_k of the term: lambda^(ke) p_(k rho) for
        lambda^e p_rho, which must have ke <= L."""
        fields = sum(m * self.unit(k * part) for part, m, _ in self.parts(code))
        return k * (code & self.emask) + fields

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


def _product_bits(packing: Packing) -> int:
    """The bits of an int of the products of two ints of packing."""
    product = packing.times(packing)
    return product.span * product.bands * product.bits


def _sized(packing: Packing) -> Packing:
    """packing, if an int of the products of two of its ints holds at most
    MAX_PRODUCT_BITS bits; otherwise PreconditionError."""
    size = _product_bits(packing)
    if size > MAX_PRODUCT_BITS:
        raise PreconditionError(
            f"the gluing recursion would hold each product in {magnitude(size)} bits, "
            f"past the limit of {MAX_PRODUCT_BITS}"
        )
    return packing


def _flow(w0: SymSeries, mode: GluingMode) -> tuple[_Codes, Packing, list[Part]]:
    """The parts W_0, W_1, W_2, ... of W(t) = log(exp(t Delta) exp(w0)),
    each one int per term over one denominator (so that a product of two
    terms is one multiply-add) and keyed by its code, with the codes and
    the packing; part 0 is w0 less its constant term, which no gluing or
    derivative reaches.

    Since exp(-W) Delta exp(W) = Delta W + sum over k of (k/2) (dW/dp_k)^2,

        W_{j+1} = (Delta W_j + sum_k (k/2) sum_{a+b=j} d_k W_a d_k W_b) / (j+1),

    with d_k = d/dp_k; in LITERAL mode the k-th quadratic summand carries
    lambda^{2k}, as the d^2/dp_k^2 summand of the gluing operator does.

    The recursion is exact below the lambda bound L when w0 obeys the 3e
    rule of ``Truncation.standard`` (no term of weight above 3e at
    lambda^e) in caps of at least 3e.  The true W_j obeys it: exp(w0) does,
    Delta only lowers weight, and log is a series in products.  So does
    every summand: d_k W_a d_k W_b has weight at most 3(e_a + e_b) - 2k at
    lambda^(e_a + e_b), and the LITERAL shift only raises lambda.  So the
    caps drop nothing, and as lambda exponents only add, nothing past L
    feeds a term below it.  Each gluing lowers weight by 2, so every part
    past j = 3L/2 is zero.  By the same rule every term and product kept
    has multiplicities below 2^fbits > 3L, so a product's code
    (:class:`_Codes`) is one int add, with no carry, and its weight needs
    no check; products past L are left out before they are formed.

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
    Each part is walked once (``_walk``) for its packed derivative groups,
    their norms and its gluing terms; a widening walks the repacked parts
    again.
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
    moves: dict = {}  # code -> what its term does, from _moves
    walks: list[tuple] = []  # a -> (derivs, dnorms, glued) of W_a, from _walk
    for j in range(3 * top // 2):
        walks.append(_walk(parts[j], moves, codes, mode, top))
        pairs = [(a, j - a) for a in range(j // 2 + 1)]
        dj = parts[j][2]
        den = lcm(dj, *(parts[a][2] * parts[b][2] for a, b in pairs))
        # 2 (j+1) W_{j+1} = 2 Delta W_j + sum over k of k d_k W_a d_k W_b over
        # ordered (a, b); each unordered pair is taken once, with 2k for a < b.
        glue_mult = 2 * (den // dj)
        # a bound on the digits of the sums at each lambda exponent
        bounds = dict.fromkeys(range(top + 1), 0)
        norms = parts[j][1]
        for target, factor, code in walks[j][2]:
            bounds[target & codes.emask] += glue_mult * factor * norms[code]
        for a, b in pairs:
            mult = den // (parts[a][2] * parts[b][2])
            for k, na in walks[a][1].items():
                nb = walks[b][1].get(k)
                if nb:
                    scale = k * (1 + (a < b)) * mult
                    for e1, x in na.items():
                        for e2, y in nb.items():
                            if e1 + e2 + shift * k <= top:
                                bounds[e1 + e2 + shift * k] += scale * x * y
        bound = max(bounds.values())
        if not packing.holds(bound):
            # the derivative groups hold multiples of the parts' ints, so
            # they are taken anew from the repacked parts
            packing, parts = _fit(packing, parts, bound)
            walks = [_walk(part, moves, codes, mode, top) for part in parts]
        # every product, a gluing term lifted to it, lies in the box; on a
        # box with its corner at u^0 v^0, as for diagonal coefficients, the
        # two packings share their offsets and nothing is moved
        product = packing.times(packing)
        moved = (product.clo, product.dlo) != (packing.clo, packing.dlo)
        sums: dict = {}
        get = sums.get
        values = parts[j][0]
        for target, factor, code in walks[j][2]:
            lifted = values[code] * (glue_mult * factor)
            if moved:
                lifted = product.rebase(lifted, packing)
            sums[target] = get(target, 0) + lifted
        for a, b in pairs:
            mult = den // (parts[a][2] * parts[b][2])
            for k, grouped in walks[a][0].items():
                other = walks[b][0].get(k)
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
    into packing (see :meth:`~stablemoduli.hodge.Packing.rebase`) unless the
    two share their offsets, and over one denominator, the lcm of their
    canonical ones, as a :data:`Part`."""
    if (product.clo, product.dlo) != (packing.clo, packing.dlo):
        sums = {code: packing.rebase(x, product) for code, x in sums.items()}
    digits = {code: packing.digits(x) for code, x in sums.items() if x}
    g = gcd(den, *(c for d in digits.values() for c in d))
    norms = {code: sum(map(abs, d)) // g for code, d in digits.items()}
    return {code: sums[code] // g for code in digits}, norms, den // g


def _walk(
    part: Part, moves: dict, codes: _Codes, mode: GluingMode, top: int
) -> tuple[dict, dict, list]:
    """One pass over the terms of a part: its derivatives d/dp_k packed,
    {k: {e: [(code less unit(k), m x)]}} for each term x with m parts equal
    to k; the l1 norm of each such group, {k: {e: norm}}, the norms times
    m; and the terms of the gluing operator, [(target code, factor, code)],
    as :func:`_glued` has them.  What each code's term does is read once per
    run, by :func:`_moves`, into the run's dict moves."""
    values, norms, _ = part
    derivs: dict = {}  # (k, e) -> [(code less unit(k), m x)]
    dnorms: dict = {}  # (k, e) -> l1 norm
    glued = []
    for code, x in values.items():
        found = moves.get(code)
        if found is None:
            found = moves[code] = _moves(code, codes, mode, top)
        diffs, glue = found
        norm = norms[code]
        for group, smaller, m in diffs:
            terms = derivs.get(group)
            if terms is None:
                derivs[group] = [(smaller, x * m)]
                dnorms[group] = norm * m
            else:
                terms.append((smaller, x * m))
                dnorms[group] += norm * m
        glued += glue
    return _by_k(derivs), _by_k(dnorms), glued


def _moves(code: int, codes: _Codes, mode: GluingMode, top: int) -> tuple[list, list]:
    """Where d/dp_k of the term with the code lands, [((k, e), code less
    unit(k), m)] for its m parts equal to k, and the terms of the gluing
    operator on it, [(target code, factor, code)].  Every term lies at
    lambda^1 or above, so a derivative whose product with one at lambda^1
    lands past the lambda bound top is left out: no product of it is
    kept."""
    shift = 1 if mode is GluingMode.LITERAL else 0
    e = code & codes.emask
    diffs = []
    glue = []
    for k, m, unit in codes.parts(code):
        if e + 1 + shift * 2 * k <= top:
            diffs.append(((k, e), code - unit, m))
        if m > 1 and e + shift * 2 * k <= top:
            glue.append((code - 2 * unit + shift * 2 * k, k * m * (m - 1) // 2, code))
        if k % 2 == 0 and e + shift * k <= top:
            glue.append((code - unit + shift * k, m, code))
    return diffs, glue


def _by_k(groups: dict) -> dict:
    """{(k, e): value} as {k: {e: value}}."""
    out: dict = {}
    for (k, e), value in groups.items():
        out.setdefault(k, {})[e] = value
    return out


def _fit(packing: Packing, parts: list[Part], bound: int) -> tuple[Packing, list[Part]]:
    """The packing and the parts, repacked in a wider packing of the same
    layout if that one does not hold bound; PreconditionError if the wider
    one is past MAX_PRODUCT_BITS.

    The wider packing has digits of twice the bits bound needs, unless
    that is past MAX_PRODUCT_BITS where the least width is not: the
    recursion's digits grow over its first steps and then level off, so
    the room saves a repack of every part (on the shipped table at L = 7,
    one widening instead of two)."""
    if packing.holds(bound):
        return packing, parts
    wider = packing.widened(1 << 2 * bound.bit_length())
    if _product_bits(wider) > MAX_PRODUCT_BITS:
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
