from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings

from stablemoduli.dataset import embedded_dataset
from stablemoduli.errors import OffDiagonalError, PreconditionError
from stablemoduli.exprlang import Bounds, _Token
from stablemoduli.hodge import HodgePoly, Packing
from stablemoduli.partitions import partitions_of, weight
from stablemoduli.pipeline import (
    ModuliTable,
    SlotReport,
    build_slot_report,
    closed_moduli_series,
    is_stable,
    lambda_exponent,
    moduli_dim,
    open_moduli_series,
    partition_latex,
    render_schur_latex,
    required_inputs,
    satisfies_duality,
    slot_schur,
    stable_slots,
)
from stablemoduli.plethysm import (
    GluingMode,
    adams_sum,
    exp_gluing,
    plethystic_exp,
    plethystic_log,
)
from stablemoduli.series import SymSeries, Truncation, schur

from oracles import decoded, flow_parts, weights_at
from strategies import hodge_polys
from hypothesis import strategies as st

Q = HodgePoly.q()


def entry(n, expr):
    """Build a weight-n table entry from {partition: coeff}."""
    t = Truncation.flat(0, n)
    total = SymSeries.zero(t)
    for mu, c in expr.items():
        total = total + schur(mu, t).scale(c)
    return total


def mini_table(*pairs):
    return ModuliTable({key: entry(key[1], val) for key, val in pairs})


POINT_TABLE = mini_table(((0, 3), {(3,): 1}))
GENUS1_TABLE = mini_table(((0, 3), {(3,): 1}), ((1, 1), {(1,): Q}))


# -- stability bookkeeping -----------------------------------------------------------


def test_stability_and_indexing():
    assert is_stable(0, 3) and is_stable(1, 1) and is_stable(3, 1)
    assert not is_stable(0, 2) and not is_stable(1, 0) and not is_stable(-1, 5)
    assert lambda_exponent(3, 1) == 5
    assert moduli_dim(3, 1) == 7
    assert moduli_dim(0, 3) == 0


def test_stable_slots():
    slots = stable_slots(3)
    assert slots == [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)]
    assert len(stable_slots(5)) == 14


def test_required_inputs():
    assert required_inputs(1, 1) == [(0, 3), (1, 1)]
    # genus never drops under gluing, so only h <= g can contribute
    assert required_inputs(0, 4) == [(0, 3), (0, 4)]
    assert required_inputs(1, 2) == [(0, 3), (0, 4), (1, 1), (1, 2)]
    needed = required_inputs(3, 1)
    assert len(needed) == 14
    assert needed == stable_slots_sorted_by_genus()
    with pytest.raises(PreconditionError):
        required_inputs(0, 2)


def stable_slots_sorted_by_genus():
    return sorted(stable_slots(5))


# -- table validation ------------------------------------------------------------------


def test_table_rejects_unstable_keys():
    with pytest.raises(PreconditionError):
        mini_table(((0, 2), {(2,): 1}))


def test_table_rejects_wrong_weight():
    bad = schur((2,), Truncation.flat(0, 2))
    with pytest.raises(PreconditionError) as err:
        ModuliTable({(0, 3): bad})
    assert "(0, 3)" in str(err.value)


def test_table_rejects_nonzero_lambda():
    t = Truncation.flat(1, 3)
    lifted = schur((3,), t).with_truncation(t, lambda_shift=1)
    with pytest.raises(PreconditionError):
        ModuliTable({(0, 3): lifted})


def test_withhold():
    table = GENUS1_TABLE.withhold(1, 1)
    assert table.keys() == [(0, 3)]
    with pytest.raises(PreconditionError):
        table.withhold(2, 2)
    # original unchanged
    assert GENUS1_TABLE.keys() == [(0, 3), (1, 1)]


# -- series assembly ---------------------------------------------------------------------


def test_open_series_placement():
    trunc = Truncation.standard(2)
    phi = open_moduli_series(GENUS1_TABLE, trunc)
    assert phi.coefficient(1, (1,)) == Q  # the genus-1 entry at lambda^1
    assert weights_at(phi, 1) == {1, 3}
    # entries beyond the lambda bound are skipped silently
    wide = mini_table(((0, 3), {(3,): 1}), ((0, 7), {(7,): 1}))
    phi2 = open_moduli_series(wide, Truncation.standard(2))
    assert weights_at(phi2, 1) == {3}


def test_closed_point_slot_is_fixed():
    trunc = Truncation.standard(2)
    psi = closed_moduli_series(open_moduli_series(POINT_TABLE, trunc))
    assert slot_schur(psi, 0, 3) == [((3,), HodgePoly.one())]


def test_closed_genus1_slot():
    # the one-marked-point genus-1 space compactifies by a single point
    trunc = Truncation.standard(1)
    psi = closed_moduli_series(open_moduli_series(GENUS1_TABLE, trunc))
    assert slot_schur(psi, 1, 1) == [((1,), Q + 1)]


def test_closed_four_point_slot_without_open_part():
    # with only the three-point entry, the (0,4) slot consists of the three
    # boundary points of the four-point space
    trunc = Truncation.standard(2)
    psi = closed_moduli_series(open_moduli_series(POINT_TABLE, trunc))
    assert build_slot_report(psi, 0, 4).rank == HodgePoly.const(3)


def test_slot_errors():
    trunc = Truncation.standard(2)
    psi = closed_moduli_series(open_moduli_series(POINT_TABLE, trunc))
    with pytest.raises(PreconditionError):
        slot_schur(psi, 3, 1)  # beyond truncation
    with pytest.raises(PreconditionError):
        slot_schur(psi, 0, 2)  # unstable


@given(hodge_polys(diagonal=True, max_exp=3))
@settings(max_examples=30)
def test_top_slot_is_linear_in_its_entry(c):
    # perturbing the entry of maximal lambda exponent changes that closed
    # slot by exactly the perturbation
    trunc = Truncation.standard(2)
    base = closed_moduli_series(open_moduli_series(POINT_TABLE, trunc))
    perturbed_table = mini_table(((0, 3), {(3,): 1}), ((0, 4), {(2, 2): c}))
    perturbed = closed_moduli_series(open_moduli_series(perturbed_table, trunc))
    diff = decoded(perturbed).component(2, 4) - decoded(base).component(2, 4)
    expected = entry(4, {(2, 2): c}).with_truncation(perturbed.trunc, lambda_shift=2)
    assert diff == expected


# -- the gluing recursion against the composition -------------------------------------------


def reference_route(open_series, mode):
    """The composition Log exp(Delta) Exp that the pipeline equals."""
    return plethystic_log(exp_gluing(plethystic_exp(open_series), mode))


@lru_cache(maxsize=None)
def shipped_routes(lam, mode, withheld=None):
    """(closed_moduli_series, reference route) on the shipped table."""
    table = embedded_dataset()
    if withheld is not None:
        table = table.withhold(*withheld)
    phi = open_moduli_series(table, Truncation.standard(lam))
    return closed_moduli_series(phi, mode), reference_route(phi, mode)


SHIPPED_CASES = [(lam, mode) for lam in range(1, 7) for mode in GluingMode]


@pytest.mark.parametrize("lam,mode", SHIPPED_CASES)
def test_closed_series_is_the_reference(lam, mode):
    closed, reference = shipped_routes(lam, mode)
    assert closed.trunc == Truncation.standard(lam)
    assert decoded(closed) == reference


@pytest.mark.parametrize("lam,mode", SHIPPED_CASES)
def test_reference_route_packs_nothing(lam, mode, monkeypatch):
    # The reference checks the packed gluing recursion, so it must not run
    # on the same kernel: with every packing refused, it gives the same series.
    phi = open_moduli_series(embedded_dataset(), Truncation.standard(lam))
    closed = closed_moduli_series(phi, mode)

    def refuse(*args):
        raise AssertionError("the reference route packed a coefficient")

    monkeypatch.setattr(Packing, "__init__", refuse)
    assert reference_route(phi, mode) == decoded(closed)


@pytest.mark.parametrize("withheld", embedded_dataset().keys(), ids=lambda key: "M[%d,%d]" % key)
def test_closed_series_with_a_row_withheld_is_the_reference(withheld):
    for mode in GluingMode:
        closed, reference = shipped_routes(5, mode, withheld)
        assert decoded(closed) == reference


@pytest.mark.parametrize("lam,mode", SHIPPED_CASES)
def test_reference_route_has_no_term_past_the_slot_weight(lam, mode):
    # Only connected stable graphs survive the logarithm, and a connected
    # graph of genus g sits at weight n = lambda + 2 - 2g <= lambda + 2.
    _, reference = shipped_routes(lam, mode)
    assert reference
    assert all(weight(rho) <= lam + 2 for (_, rho) in reference._terms)


@st.composite
def random_tables(draw):
    """A random table within lambda exponent 3: some of its stable rows, each
    a combination of Schur functions with diagonal or off-diagonal
    coefficients."""
    diagonal = draw(st.booleans())
    rows = {}
    for g, n in draw(st.sets(st.sampled_from(stable_slots(3)), min_size=1)):
        shapes = draw(st.lists(st.sampled_from(partitions_of(n)), min_size=1, max_size=3, unique=True))
        rows[(g, n)] = {mu: draw(hodge_polys(max_exp=2, diagonal=diagonal)) for mu in shapes}
    return ModuliTable({key: entry(key[1], val) for key, val in rows.items()})


@given(random_tables(), st.integers(1, 5), st.sampled_from(GluingMode))
@settings(max_examples=40, deadline=None)
def test_closed_series_is_the_reference_on_random_tables(table, lam, mode):
    # Rows within lambda^3 in truncations up to 5: the Moebius-Adams sum
    # then moves lambda^2 terms by psi_2 and lambda^1 terms by psi_5, on
    # off-diagonal coefficients too.
    phi = open_moduli_series(table, Truncation.standard(lam))
    closed = closed_moduli_series(phi, mode)
    reference = reference_route(phi, mode)
    assert closed.trunc == phi.trunc
    assert decoded(closed) == reference
    assert all(weight(rho) <= lam + 2 for (_, rho) in reference._terms)


@pytest.mark.parametrize("mode", list(GluingMode))
def test_closed_series_at_truncation_7_is_the_reference(mode):
    closed, reference = shipped_routes(7, mode)
    assert decoded(closed) == reference


@pytest.mark.parametrize("mode", list(GluingMode))
def test_gluing_flow_parts_lie_in_the_standard_truncation(mode):
    # Run with every weight cap at 21, the recursion could keep terms of
    # weight above 3e; it has none, so the standard caps drop nothing.
    std = Truncation.standard(7)
    wide = Truncation.flat(7, 21)
    w0 = adams_sum(open_moduli_series(embedded_dataset(), std))
    parts = flow_parts(w0.with_truncation(wide), mode)
    assert len(parts) > 1 and parts[1]
    for part in parts:
        assert part.with_truncation(std).with_truncation(wide) == part
    assert [part.with_truncation(std) for part in parts] == flow_parts(w0, mode)


# -- duality and reports -------------------------------------------------------------------


def test_satisfies_duality():
    assert satisfies_duality([((1,), 1 + 5 * Q + 5 * Q**2 + Q**3)], 3)
    assert not satisfies_duality([((1,), 1 + 2 * Q)], 1)
    # exponents beyond the dimension violate the duality domain
    assert not satisfies_duality([((1,), Q**5)], 3)
    assert satisfies_duality([], 4)


@pytest.mark.parametrize(
    "record, fields",
    [
        (SlotReport, "g n lam dim equivariant rank off_diagonal duality_ok coeff_q rank_q"),
        (Bounds, "weight du dv lo hi tlo thi norm den"),
        (_Token, "kind text line col"),
    ],
)
def test_records_keep_their_fields_in_order(record, fields):
    fields = tuple(fields.split())
    assert record._fields == fields
    values = tuple(range(len(fields)))
    value = record(*values)
    assert value == record(**dict(zip(fields, values))) == values
    assert tuple(getattr(value, name) for name in fields) == values
    assert value != record(*values[:-1], -1)
    assert isinstance(value, tuple) and not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        record(*values[:-1])


def test_slot_report_fields_and_json():
    trunc = Truncation.standard(1)
    psi = closed_moduli_series(open_moduli_series(GENUS1_TABLE, trunc))
    report = build_slot_report(psi, 1, 1)
    assert (report.g, report.n, report.lam, report.dim) == (1, 1, 1, 1)
    assert report.rank == Q + 1
    assert report.rank_q == [1, 1]
    assert report.off_diagonal is None
    assert report.duality_ok
    obj = report.to_json_obj()
    assert obj == {
        "g": 1,
        "n": 1,
        "lambda": 1,
        "dim": 1,
        "schur": [{"partition": [1], "coeff_q": [1, 1]}],
        "rank_q": [1, 1],
        "duality": True,
    }
    text = report.render_text()
    assert "slot M[1,1]: lambda = 1, dim = 1" in text
    assert "rank: q + 1" in text
    assert "hodge: h^{k,k} = 1, 1" in text
    assert "duality: ok" in text


def test_off_diagonal_report():
    table = mini_table(((1, 1), {(1,): HodgePoly.u()}), ((0, 3), {(3,): 1}))
    trunc = Truncation.standard(1)
    psi = closed_moduli_series(open_moduli_series(table, trunc))
    report = build_slot_report(psi, 1, 1)
    assert report.off_diagonal == (1, 0)
    assert report.rank_q is None
    assert not report.duality_ok
    assert "off-diagonal term at (1, 0)" in report.render_text()
    with pytest.raises(OffDiagonalError):
        report.to_json_obj()


def test_slot_json_writes_a_fraction_as_a_string():
    # (1/2 + q) p_1 at lambda^1: the s_1 coefficient and the rank are both
    # 1/2 + q, past the integral path
    coeff = HodgePoly({(0, 0): Fraction(1, 2), (1, 1): 1})
    closed = SymSeries(Truncation.standard(1), {(1, (1,)): coeff})
    obj = build_slot_report(closed, 1, 1).to_json_obj()
    assert obj["schur"] == [{"partition": [1], "coeff_q": ["1/2", 1]}]
    assert obj["rank_q"] == ["1/2", 1]


@pytest.mark.parametrize("c", [1, Fraction(1, 2)], ids=["integral", "fractional"])
def test_slot_json_refuses_an_off_diagonal_schur_coefficient(c):
    # p_1^2 + c u p_2 at lambda^2: the rank 2 is diagonal, but the
    # coefficients of s_2 and s_11 are 1 + c u and 1 - c u
    closed = SymSeries(
        Truncation.standard(2), {(2, (1, 1)): 1, (2, (2,)): c * HodgePoly.u()}
    )
    report = build_slot_report(closed, 1, 2)
    assert report.off_diagonal is None and report.rank == 2
    with pytest.raises(OffDiagonalError) as caught:
        report.to_json_obj()
    assert caught.value.exponents == (1, 0)


def test_literal_mode_misplaces_boundary():
    trunc = Truncation.standard(1)
    psi = closed_moduli_series(
        open_moduli_series(GENUS1_TABLE, trunc), GluingMode.LITERAL
    )
    assert slot_schur(psi, 1, 1) == [((1,), Q)]  # boundary point lost


# -- latex rendering -------------------------------------------------------------------------


def test_partition_latex():
    assert partition_latex((2, 2, 1, 1)) == "2^21^2"
    assert partition_latex((5,)) == "5"
    assert partition_latex((3, 2, 1)) == "321"


def test_render_schur_latex():
    assert render_schur_latex([]) == "0"
    assert render_schur_latex([((1,), 1 + 5 * Q)]) == "5qs_{1}+s_{1}"
    grouped = render_schur_latex([((3, 2), Q), ((3, 1, 1), -Q)])
    assert grouped == "q(s_{32}-s_{31^2})"
    negatives = render_schur_latex([((4, 1, 1), -HodgePoly.one()), ((3, 3), -HodgePoly.one())])
    assert negatives == "-(s_{41^2}+s_{3^2})"
