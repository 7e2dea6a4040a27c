"""The slot reports are read straight off the packed closed series, the one
way the package reads it.  These tests hold them to a second route: the
p-basis series decoded from it by the test oracle, expanded by
``SymSeries.schur_coefficients`` and read through ``HodgePoly`` (rank,
print-size check, off-diagonal witness, q-coefficients, duality).  They
also pin the route the command line takes, and the shape of the closed
series, so that a decode of it cannot come back into the package
unnoticed."""

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from stablemoduli import cli, hodge, plethysm
from stablemoduli.dataset import embedded_dataset
from stablemoduli.errors import OffDiagonalError, PreconditionError
from stablemoduli.hodge import HodgePoly, check_printable
from stablemoduli.partitions import format_partition
from stablemoduli.pipeline import (
    ModuliTable,
    SlotReport,
    build_slot_report,
    closed_moduli_series,
    lambda_exponent,
    moduli_dim,
    open_moduli_series,
    satisfies_duality,
    stable_slots,
)
from stablemoduli.plethysm import GluingMode, exp_gluing, plethystic_exp, plethystic_log
from stablemoduli.series import SymSeries, Truncation

from oracles import decoded

U, V, Q = HodgePoly.u(), HodgePoly.v(), HodgePoly.q()


def _published(coeff: HodgePoly) -> list | None:
    """The q-coefficients as the JSON schema writes them, or None off the
    diagonal."""
    if not coeff.is_diagonal():
        return None
    return [int(c) if c.denominator == 1 else str(c) for c in coeff.q_coefficient_list()]


def reference_report(closed, g: int, n: int) -> SlotReport:
    """The report of (g, n) from the p-basis terms of closed, decoded."""
    series = decoded(closed)
    e, dim = lambda_exponent(g, n), moduli_dim(g, n)
    equivariant = series.schur_coefficients(e, n)
    rank = check_printable(series.rank(e, n), f"the rank of M[{g},{n}]")
    for mu, coeff in equivariant:
        check_printable(coeff, f"the coefficient of s{format_partition(mu)} in M[{g},{n}]")
    witness = rank.off_diagonal_witness()
    return SlotReport(
        g=g,
        n=n,
        lam=e,
        dim=dim,
        equivariant=equivariant,
        rank=rank,
        off_diagonal=witness,
        duality_ok=satisfies_duality(equivariant, dim),
        coeff_q=[_published(coeff) for _, coeff in equivariant],
        rank_q=_published(rank),
    )


def _json(report: SlotReport):
    """The report's JSON text, or the exponents of its OffDiagonalError."""
    try:
        return json.dumps(report.to_json_obj(), indent=2)
    except OffDiagonalError as exc:
        return exc.exponents


def assert_same_reports(closed, slots) -> None:
    """The packed route agrees with the reference route, field by field and
    in type, in JSON (or the same refusal) and as text.  The reference
    reads its Schur coefficients off by ``SymSeries.schur_coefficients``,
    which packs nothing, so the two routes share no read-off kernel."""
    for g, n in slots:
        packed = build_slot_report(closed, g, n)
        expected = reference_report(closed, g, n)
        for name in SlotReport._fields:
            got, want = getattr(packed, name), getattr(expected, name)
            assert got == want, (g, n, name)
            assert type(got) is type(want), (g, n, name)
        assert _json(packed) == _json(expected), (g, n)
        assert packed.render_text() == expected.render_text(), (g, n)


@pytest.mark.parametrize("mode", list(GluingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("truncation", range(1, 10))
def test_reports_agree_with_the_decoded_series_on_the_shipped_table(truncation, mode):
    f = open_moduli_series(embedded_dataset(), Truncation.standard(truncation))
    assert_same_reports(closed_moduli_series(f, mode), stable_slots(truncation))


@pytest.mark.parametrize("mode", list(GluingMode), ids=lambda m: m.value)
def test_reports_agree_with_each_row_withheld(mode):
    table = embedded_dataset()
    for row in table.keys():
        f = open_moduli_series(table.withhold(*row), Truncation.standard(5))
        assert_same_reports(closed_moduli_series(f, mode), stable_slots(5))


def _entry(n: int, terms: dict) -> SymSeries:
    return SymSeries(Truncation.flat(0, n), {(0, rho): c for rho, c in terms.items()})


SMALL_TABLES = {
    # fractional p_rho coefficients: fractional Schur coefficients and ranks
    "fractional": {
        (0, 3): _entry(3, {(1, 1, 1): Fraction(1, 2), (3,): Fraction(1, 3)}),
        (1, 1): _entry(1, {(1,): HodgePoly({(0, 0): Fraction(1, 2), (1, 1): 1})}),
        (0, 4): _entry(4, {(1, 1, 1, 1): Fraction(1, 24), (2, 2): Fraction(5, 8) * Q}),
    },
    # an off-diagonal rank, and a slot whose rank is diagonal while some of
    # its Schur coefficients are not (u p_2^2 has no p_1^4 term)
    "off-diagonal": {
        (0, 3): _entry(3, {(1, 1, 1): 1, (2, 1): 1}),
        (1, 1): _entry(1, {(1,): 1 + U + V + Q}),
        (0, 4): _entry(4, {(1, 1, 1, 1): 1, (2, 2): U - V, (4,): Fraction(1, 2) * U}),
    },
    # the packing of the closed series in literal mode at L = 1 is just as
    # wide as s_3's own numerators, so the read-off of M[0,3] must widen it
    "tight": {
        (0, 3): _entry(
            3, {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2), (3,): Fraction(1, 3)}
        )
    },
}


@pytest.mark.parametrize("mode", list(GluingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(SMALL_TABLES))
def test_reports_agree_on_fractional_and_off_diagonal_tables(name, mode):
    table = ModuliTable(SMALL_TABLES[name])
    for truncation in range(1, 5):
        f = open_moduli_series(table, Truncation.standard(truncation))
        closed = closed_moduli_series(f, mode)
        assert decoded(closed) == plethystic_log(exp_gluing(plethystic_exp(f), mode))
        assert_same_reports(closed, stable_slots(truncation))


def test_the_tight_table_widens_the_read_off(monkeypatch):
    widened = []
    original = hodge.Packing.widened

    def counting(self, bound):
        widened.append(bound)
        return original(self, bound)

    f = open_moduli_series(ModuliTable(SMALL_TABLES["tight"]), Truncation.standard(1))
    closed = closed_moduli_series(f, GluingMode.LITERAL)
    monkeypatch.setattr(hodge.Packing, "widened", counting)
    report = build_slot_report(closed, 0, 3)
    assert widened
    assert report.equivariant == [((3,), HodgePoly.one())]


def test_off_diagonal_reports_refuse_json_with_their_witness():
    table = ModuliTable(SMALL_TABLES["off-diagonal"])
    closed = closed_moduli_series(open_moduli_series(table, Truncation.standard(2)))
    # the rank of M[1,1] is 1 + u + v + q
    assert _json(build_slot_report(closed, 1, 1)) == (0, 1)
    # the rank of M[0,4] is diagonal; s_4 carries (u - v) + u/2
    report = build_slot_report(closed, 0, 4)
    assert report.off_diagonal is None
    assert _json(report) == (0, 1)


def test_table_json_reads_each_printed_coefficient_once_from_the_packed_series(monkeypatch):
    """After the recursion, `table --truncation 7 --format json` measures,
    packs and reads the partitions of codes (as a decode would) nothing; it
    unpacks each printed Schur coefficient and each rank once, into one
    polynomial each."""
    done = []
    calls = Counter()

    def after_the_recursion(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if done:
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    recursion = cli.closed_moduli_series

    def closed(*args):
        result = recursion(*args)
        done.append(result)
        return result

    monkeypatch.setattr(cli, "closed_moduli_series", closed)
    after_the_recursion(plethysm, "_measure")
    after_the_recursion(plethysm._Codes, "parts")
    for name in ("pack", "repack", "poly_of", "digits"):
        after_the_recursion(hodge.Packing, name)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(["table", "--truncation", "7", "--format", "json"])
    assert rc == 0 and len(done) == 1
    slots = json.loads(out.getvalue())
    printed = sum(len(slot["schur"]) for slot in slots) + len(slots)
    assert calls == Counter(digits=printed, poly_of=printed)


def test_a_rank_past_the_digit_limit_only_by_its_factorial_is_refused():
    # M[0,4] = 2^2122 p_1^4, alone in its table: every Schur coefficient
    # (at most 3 * 2^2122) prints in 640 digits, the least limit the
    # interpreter takes, but the rank 24 * 2^2122 needs 641; both routes
    # refuse it by name
    table = ModuliTable({(0, 4): _entry(4, {(1, 1, 1, 1): 2**2122})})
    closed = closed_moduli_series(open_moduli_series(table, Truncation.standard(2)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for route in (build_slot_report, reference_report):
            with pytest.raises(PreconditionError) as caught:
                route(closed, 0, 4)
            assert str(caught.value).startswith("the rank of M[0,4] may run to 641 digits")
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_closed_series_is_packed_and_has_no_decode():
    # one function computes it, under one name, and it hands back the
    # packed ints alone: no p-basis terms, and nothing to decode them with
    assert closed_moduli_series is plethysm.closed_moduli_series is cli.closed_moduli_series
    closed = closed_moduli_series(open_moduli_series(embedded_dataset(), Truncation.standard(3)))
    assert type(closed) is plethysm.ClosedSeries
    assert not isinstance(closed, SymSeries)
    assert not hasattr(closed, "_terms") and not hasattr(closed, "__getattr__")
    for name in ("decode", "gluing_flow", "closed_series"):
        assert not hasattr(plethysm, name) and not hasattr(plethysm._Codes, name), name
