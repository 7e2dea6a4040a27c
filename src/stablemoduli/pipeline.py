"""From a table of open-moduli Serre polynomials to the closed-moduli ones.

The generating series of the inputs places the equivariant Serre polynomial
of the open moduli space of (g, n)-curves (a degree-n symmetric function) at
lambda^(2g-2+n).  The matching series for the compactified spaces is, by
definition, the plethystic logarithm of the exponential of the gluing
operator applied to the plethystic exponential: Log exp(Delta) Exp.  A
(g, n) answer is then read off the component with lambda exponent 2g-2+n and
p-weight n.  The two indices are needed jointly: distinct (g, n) can share a
lambda exponent (for instance (0,5), (1,3) and (2,1) all sit at lambda^3)
but never share a weight there.

The pipeline never builds the disconnected series Exp(f).  With
F = sum over k of psi_k(f)/k, the ordinary logarithm W = log(exp(Delta)
exp(F)) is solved directly by a gluing recursion that stays on connected
series, and the closed series is sum over k of mu(k)/k psi_k(W), formed on
the recursion's packed ints (:func:`~stablemoduli.plethysm.closed_moduli_series`,
which this module re-exports).  It stays packed, and a slot report
(:func:`build_slot_report`) is the one way to read it: the report takes its
Schur coefficients straight from those ints, and each printed coefficient
is unpacked once.  The tests keep the composition Log exp(Delta) Exp as
the reference it equals, read off by ``SymSeries.schur_coefficients``.

A slot (g, n) at lambda^e has weight n = e + 2 - 2g, so within a lambda
bound L every slot has weight at most L + 2.  The closed series, a sum over
connected stable curves, has no term past that weight: the terms of W past
it cancel in the final Adams sum.
"""

from __future__ import annotations

from math import factorial
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import OffDiagonalError, PreconditionError
from .hodge import (
    HodgePoly,
    Packing,
    check_printable,
    join_signed,
    printable,
    ratio_text,
    reduced_digits,
)
from .partitions import Partition, format_partition, weight
from .plethysm import ClosedSeries, closed_moduli_series  # noqa: F401  (re-exported)
# The composition the recursion equals; perfbench/tracer.py looks these
# stage names up here.
from .plethysm import exp_gluing, plethystic_exp, plethystic_log  # noqa: F401
from .series import SymSeries, Truncation

if TYPE_CHECKING:
    from fractions import Fraction

SchurList = list[tuple[Partition, HodgePoly]]


def lambda_exponent(g: int, n: int) -> int:
    return 2 * g - 2 + n


def moduli_dim(g: int, n: int) -> int:
    return 3 * g - 3 + n


def is_stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 1 and lambda_exponent(g, n) > 0


def check_stable(g: int, n: int) -> None:
    """PreconditionError unless (g, n) is a stable slot."""
    if not is_stable(g, n):
        raise PreconditionError(f"({g}, {n}) is not a stable slot")


class ModuliTable:
    """Map (genus, marked points) -> degree-n symmetric function at lambda^0,
    the equivariant Serre polynomial of the open moduli space."""

    def __init__(self, entries: dict[tuple[int, int], SymSeries]):
        self.entries: dict[tuple[int, int], SymSeries] = {}
        for (g, n), entry in sorted(entries.items()):
            if not is_stable(g, n):
                raise PreconditionError(
                    f"unstable table key (g, n) = ({g}, {n}): need n >= 1 and 2g-2+n > 0"
                )
            for (e, rho) in entry._terms:
                if e != 0 or weight(rho) != n:
                    raise PreconditionError(
                        f"entry ({g}, {n}) must be homogeneous of weight {n} at "
                        f"lambda^0; found a term at lambda^{e} with weight {weight(rho)}"
                    )
            self.entries[(g, n)] = entry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuliTable):
            return NotImplemented
        if self.entries.keys() != other.entries.keys():
            return False
        return all(
            self.entries[key]._terms == other.entries[key]._terms
            for key in self.entries
        )

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def withhold(self, g: int, n: int) -> "ModuliTable":
        """A copy with the (g, n) entry zeroed out."""
        if (g, n) not in self.entries:
            raise PreconditionError(f"no table entry ({g}, {n}) to withhold")
        remaining = {key: s for key, s in self.entries.items() if key != (g, n)}
        return ModuliTable(remaining)


def open_moduli_series(table: ModuliTable, trunc: Truncation) -> SymSeries:
    """Sum of lambda^(2g-2+n) times each table entry; entries beyond the
    truncation are ignored."""
    total = SymSeries.zero(trunc)
    for (g, n), entry in table.entries.items():
        e = lambda_exponent(g, n)
        if e > trunc.lambda_max:
            continue
        total = total + entry.with_truncation(trunc, lambda_shift=e)
    return total


def _slot_exponent(closed: ClosedSeries, g: int, n: int) -> int:
    """The lambda exponent of the slot (g, n), or PreconditionError if the
    slot is not stable or lies past the series' truncation."""
    check_stable(g, n)
    e = lambda_exponent(g, n)
    if e > closed.trunc.lambda_max:
        raise PreconditionError(
            f"slot ({g}, {n}) sits at lambda^{e}, beyond truncation "
            f"{closed.trunc.lambda_max}"
        )
    return e


def required_inputs(g: int, n: int) -> list[tuple[int, int]]:
    """All stable (h, m) whose open-moduli polynomial can contribute to the
    (g, n) slot: h <= g and 2h + m <= 2g + n."""
    check_stable(g, n)
    out = []
    for h in range(g + 1):
        for m in range(1, 2 * g + n - 2 * h + 1):
            if is_stable(h, m):
                out.append((h, m))
    return out


def satisfies_duality(schur_list: SchurList, d: int) -> bool:
    """Check the functional equation coefficient-wise: each Schur coefficient
    must be fixed by the duality flip at dimension d."""
    for _, coeff in schur_list:
        try:
            if coeff.dual(d) != coeff:
                return False
        except PreconditionError:
            return False
    return True


def stable_slots(lambda_max: int) -> list[tuple[int, int]]:
    """All stable (g, n) with 2g-2+n <= lambda_max, ordered by ascending
    lambda exponent, then ascending genus."""
    out = []
    for lam in range(1, lambda_max + 1):
        g = 0
        while lam + 2 - 2 * g >= 1:
            out.append((g, lam + 2 - 2 * g))
            g += 1
    return out


class _Record(tuple):
    """A tuple whose items are the fields a subclass annotates, in order, read
    as attributes: a NamedTuple without the class it costs about 0.2 ms of
    every run to build.  The subclass's ``__new__`` takes the fields in
    that order."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index)))


class SlotReport(_Record):
    """Everything the pipeline knows about one (g, n) answer.

    ``coeff_q`` holds the published q-coefficients of each Schur
    coefficient, in the order of ``equivariant``, and ``rank_q`` those of
    the rank, as :func:`_json_q` writes them; None for a polynomial off the
    diagonal.
    """

    __slots__ = ()
    g: int
    n: int
    lam: int
    dim: int
    equivariant: SchurList
    rank: HodgePoly
    off_diagonal: tuple[int, int] | None
    duality_ok: bool
    coeff_q: list[list[int | str] | None]
    rank_q: list[int | str] | None

    def __new__(cls, g, n, lam, dim, equivariant, rank, off_diagonal, duality_ok, coeff_q, rank_q):
        return tuple.__new__(
            cls, (g, n, lam, dim, equivariant, rank, off_diagonal, duality_ok, coeff_q, rank_q)
        )

    def to_json_obj(self) -> dict:
        """The published slot schema; defined only for diagonal slots."""
        if self.off_diagonal is not None:
            raise OffDiagonalError(*self.off_diagonal)
        schur = []
        for (mu, coeff), q in zip(self.equivariant, self.coeff_q):
            if q is None:
                raise OffDiagonalError(*coeff.off_diagonal_witness())
            schur.append({"partition": list(mu), "coeff_q": q})
        return {
            "g": self.g,
            "n": self.n,
            "lambda": self.lam,
            "dim": self.dim,
            "schur": schur,
            "rank_q": self.rank_q,
            "duality": self.duality_ok,
        }

    def render_text(self) -> str:
        lines = [f"slot M[{self.g},{self.n}]: lambda = {self.lam}, dim = {self.dim}"]
        if self.equivariant:
            for mu, coeff in self.equivariant:
                lines.append(f"schur: s{format_partition(mu)} * ({render_coefficient(coeff)})")
        else:
            lines.append("schur: 0")
        lines.append(f"rank: {render_coefficient(self.rank)}")
        if self.rank_q is not None:
            values = ", ".join(map(str, self.rank_q)) or "0"
            lines.append(f"hodge: h^{{k,k}} = {values}")
        else:
            i, j = self.off_diagonal
            lines.append(f"hodge: off-diagonal term at ({i}, {j})")
        lines.append(f"duality: {'ok' if self.duality_ok else 'FAIL'}")
        return "\n".join(lines)

    def render_latex(self) -> str:
        body = render_schur_latex(self.equivariant)
        return (
            f"\\overline{{M}}_{{{self.g},{self.n}}}:\\quad {body}"
        )


def build_slot_report(closed: ClosedSeries, g: int, n: int) -> SlotReport:
    """The report of the slot (g, n), from the packed Schur read-off of its
    component (:meth:`~stablemoduli.plethysm.ClosedSeries.packed_schur`);
    its ``equivariant`` is the slot's Schur decomposition.  Each Schur sum,
    and the p_1^n coefficient for the rank, is unpacked once; its digits
    give the polynomial and, for one on the diagonal, the q-coefficients
    and the duality verdict.  Every digit is below the packing's width, so
    the print-size check looks at each polynomial only when that width,
    times n! for the rank, could pass the limit."""
    e = _slot_exponent(closed, g, n)
    dim = moduli_dim(g, n)
    packing, den, packed, sums = closed.packed_schur(e, n)
    scale = factorial(n)  # the rank is n! times the p_1^n coefficient
    rank, diagonal, witness = _unpacked(
        packing, [scale * c for c in packing.digits(packed[-1])], den
    )
    equivariant = []
    coeff_q = []
    duality_ok = True
    for mu, x in sums.items():
        if x:
            coeff, q, _ = _unpacked(packing, packing.digits(x), den)
            equivariant.append((mu, coeff))
            coeff_q.append(None if q is None else _json_q(q, coeff._den))
            if duality_ok:
                duality_ok = (
                    satisfies_duality([(mu, coeff)], dim) if q is None else _self_dual(q, dim)
                )
    if not printable(max(packing.bits + scale.bit_length(), den.bit_length())):
        check_printable(rank, f"the rank of M[{g},{n}]")
        for mu, coeff in equivariant:
            check_printable(coeff, f"the coefficient of s{format_partition(mu)} in M[{g},{n}]")
    return SlotReport(
        g=g,
        n=n,
        lam=e,
        dim=dim,
        equivariant=equivariant,
        rank=rank,
        off_diagonal=witness,
        duality_ok=duality_ok,
        coeff_q=coeff_q,
        rank_q=None if diagonal is None else _json_q(diagonal, rank._den),
    )


def _unpacked(
    packing: Packing, digits: list[int], den: int
) -> tuple[HodgePoly, list[int] | None, tuple[int, int] | None]:
    """The canonical polynomial of the signed digits of an int of packing
    over the positive int den; then its dense q-numerators, over its own
    denominator, and None, or None and the least (i, j) off the diagonal
    (``Packing.diagonal``)."""
    digits, den = reduced_digits(digits, den)
    return (packing.poly_of(digits, den), *packing.diagonal(digits))


def _self_dual(q: list[int], d: int) -> bool:
    """Whether the diagonal polynomial with the dense q-coefficients q is
    fixed by the duality flip at dimension d: degree at most d, and
    c_k = c_(d-k)."""
    if len(q) > d + 1:
        return False
    q = q + [0] * (d + 1 - len(q))
    return q == q[::-1]


def render_coefficient(coeff: HodgePoly) -> str:
    """The pure-q form of a diagonal polynomial, else its (i, j) form."""
    return coeff.render_q() if coeff.is_diagonal() else coeff.render()


def _json_q(q: list[int], den: int) -> list[int | str]:
    """The published form of the dense q-numerators q over the positive int
    den: the numerators themselves over a denominator of 1, else each as an
    int or the string of its fraction."""
    if den == 1:
        return q
    return [c // den if not c % den else ratio_text(c, den) for c in q]


# -- paper-style LaTeX rendering ------------------------------------------------


def partition_latex(mu: Partition) -> str:
    """Exponent-compressed subscript, e.g. (2,2,1,1) -> "2^21^2"."""
    pieces = []
    idx = 0
    while idx < len(mu):
        run = 1
        while idx + run < len(mu) and mu[idx + run] == mu[idx]:
            run += 1
        pieces.append(str(mu[idx]) if run == 1 else f"{mu[idx]}^{run}")
        idx += run
    return "".join(pieces)


def render_schur_latex(schur_list: SchurList) -> str:
    """Group Schur terms under descending powers of q, the way equivariant
    Serre polynomials are usually displayed.  Requires diagonal coefficients."""
    groups: dict[int, list[tuple[Fraction, Partition]]] = {}
    for mu, coeff in schur_list:
        for k, c in coeff.q_coefficients():
            groups.setdefault(k, []).append((c, mu))
    pieces: list[tuple[str, str]] = []
    for k in sorted(groups, reverse=True):
        entries = groups[k]
        sign = "-" if all(c < 0 for c, _ in entries) else "+"
        if sign == "-":
            entries = [(-c, mu) for c, mu in entries]
        qpow = "" if k == 0 else ("q" if k == 1 else f"q^{{{k}}}")
        if len(entries) == 1:
            c, mu = entries[0]
            mag = "" if c == 1 else str(c)
            piece = f"{mag}{qpow}s_{{{partition_latex(mu)}}}"
        else:
            terms = []
            for c, mu in entries:
                mag = "" if abs(c) == 1 else str(abs(c))
                terms.append(("+" if c > 0 else "-", f"{mag}s_{{{partition_latex(mu)}}}"))
            inner = join_signed(terms, sep="")
            piece = f"{qpow}({inner})" if (qpow or sign == "-") else inner
        pieces.append((sign, piece))
    return join_signed(pieces, sep="")
