"""Acceptance gate for the whole package, one test per criterion A1-A7.

Every comparison is exact (Fraction arithmetic, no tolerances).  Each test
prints a single verdict line directly to the terminal so a full run reads
as a seven-line scorecard.  The randomized suites in A6 use a fixed seed.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from stablemoduli.dataset import dataset_text, embedded_dataset
from stablemoduli.exprlang import render_table
from stablemoduli.hodge import HodgePoly
from stablemoduli.partitions import partitions_of
from stablemoduli.pipeline import (
    build_slot_report,
    closed_moduli_series,
    open_moduli_series,
    stable_slots,
)
from stablemoduli.plethysm import GluingMode, plethystic_exp, plethystic_log
from stablemoduli.series import (
    SymSeries,
    Truncation,
    complete_homogeneous,
    power_sum,
    schur,
)

from oracles import (
    closed_1_1_rank,
    closed_genus0_rank,
    hook_length_count,
    schur_jacobi_trudi,
)

SEED = 20260815

HEADLINE = HodgePoly.from_q_coefficients([1, 5, 16, 29, 29, 16, 5, 1])
CORRECTION = HodgePoly.from_q_coefficients([0, 4, 16, 29, 29, 15, 3])
OPEN_3_1 = HodgePoly.from_q_coefficients([1, 1, 0, 0, 0, 1, 2, 1])


def from_qpoly(d):
    """Oracle output (dict power -> count) as a Hodge polynomial."""
    return HodgePoly.from_q_coefficients([d.get(k, 0) for k in range(max(d) + 1)])


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"{label}: pass")


@pytest.fixture(scope="module")
def closed():
    trunc = Truncation.standard(5)
    return closed_moduli_series(open_moduli_series(embedded_dataset(), trunc))


def rank(closed, g, n):
    """The rank of the slot (g, n), as its report gives it."""
    return build_slot_report(closed, g, n).rank


def test_a1_headline(closed, capsys):
    with verdict(capsys, "A1 (headline)"):
        assert rank(closed, 3, 1) == HEADLINE
        assert build_slot_report(closed, 3, 1).equivariant == [((1,), HEADLINE)]


def test_a2_boundary_correction(capsys):
    with verdict(capsys, "A2 (boundary correction)"):
        table = embedded_dataset().withhold(3, 1)
        trunc = Truncation.standard(5)
        withheld = closed_moduli_series(open_moduli_series(table, trunc))
        assert rank(withheld, 3, 1) == CORRECTION
        # the correction is exactly closed minus open
        assert OPEN_3_1 + CORRECTION == HEADLINE


def test_a3_small_slot_oracles(closed, capsys):
    with verdict(capsys, "A3 (small-slot oracles)"):
        q = HodgePoly.q()
        # frozen literals
        assert rank(closed, 1, 1) == 1 + q
        assert rank(closed, 0, 4) == 1 + q
        assert build_slot_report(closed, 0, 4).equivariant == [((4,), 1 + q)]
        assert rank(closed, 0, 5) == 1 + 5 * q + q**2
        assert rank(closed, 0, 6) == 1 + 16 * q + 16 * q**2 + q**3
        # independent stratification oracle (sum over dual graphs)
        assert rank(closed, 1, 1) == from_qpoly(closed_1_1_rank())
        for n in (4, 5, 6):
            assert rank(closed, 0, n) == from_qpoly(closed_genus0_rank(n)), n


def test_a4_functional_equation(closed, capsys):
    with verdict(capsys, "A4 (functional equation)"):
        for (g, n) in stable_slots(5):
            report = build_slot_report(closed, g, n)
            assert report.off_diagonal is None, (g, n)
            assert report.duality_ok, (g, n)
            for mu, coeff in report.equivariant:
                assert coeff.is_integral(), (g, n, mu)
                assert all(c >= 0 for _, c in coeff.q_coefficients()), (g, n, mu)


def test_hard_lefschetz_unimodality(closed):
    """On a smooth projective variety of dimension d, cupping with an ample
    class maps H^{2k} into H^{2k+2} injectively for 2k < d and onto it
    otherwise, and commutes with the S_n action: so the q-coefficients of
    the rank and of every Schur coefficient rise up to the middle degree
    and fall after it."""
    for (g, n) in stable_slots(5):
        report = build_slot_report(closed, g, n)
        d = report.dim
        for mu, coeff in [(None, report.rank)] + report.equivariant:
            c = coeff.q_coefficient_list()
            assert len(c) <= d + 1, (g, n, mu)
            c += [0] * (d + 1 - len(c))
            for k in range(d):
                if 2 * k < d:
                    assert c[k] <= c[k + 1], (g, n, mu, k)
                else:
                    assert c[k] >= c[k + 1], (g, n, mu, k)


def test_a5_mode_discrimination(capsys):
    with verdict(capsys, "A5 (mode discrimination)"):
        q = HodgePoly.q()
        trunc = Truncation.standard(2)
        phi = open_moduli_series(embedded_dataset(), trunc)
        literal = closed_moduli_series(phi, GluingMode.LITERAL)
        graded = closed_moduli_series(phi, GluingMode.GRADED)
        # the literal grading loses the boundary point of the smallest slot
        assert rank(literal, 1, 1) == q
        assert rank(graded, 1, 1) == 1 + q


# -- A6: algebraic property suites ------------------------------------------------


def random_series(rng, trunc, max_coeffs=3):
    """A random series with no constant term, inside the truncation."""
    terms = {}
    for _ in range(rng.randint(1, max_coeffs)):
        e = rng.randint(1, trunc.lambda_max)
        w = rng.randint(0, min(trunc.cap(e), 4))
        rho = rng.choice(partitions_of(w))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        coeff = HodgePoly.const(c)
        if rng.random() < 0.3:
            coeff = coeff * HodgePoly.q()
        terms[(e, rho)] = coeff
    return SymSeries(trunc, terms)


def test_a6_property_suites(capsys):
    with verdict(capsys, "A6 (algebraic properties)"):
        rng = random.Random(SEED)
        trunc = Truncation.standard(3)

        # plethystic exponential: inverse and product laws, 100 draws each
        for _ in range(100):
            f = random_series(rng, trunc)
            assert plethystic_log(plethystic_exp(f)) == f
        for _ in range(100):
            f = random_series(rng, trunc, max_coeffs=2)
            g = random_series(rng, trunc, max_coeffs=2)
            assert plethystic_exp(f + g) == plethystic_exp(f) * plethystic_exp(g)

        # adams operations compose multiplicatively
        for _ in range(50):
            f = random_series(rng, trunc)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            assert f.adams(a).adams(b) == f.adams(a * b)

        flat7 = Truncation.flat(0, 7)

        # the character sum agrees with the Jacobi-Trudi determinant
        for n in range(1, 8):
            for mu in partitions_of(n):
                assert schur(mu, flat7) == schur_jacobi_trudi(mu, flat7), mu

        # Newton's identity: n h_n = sum_k p_k h_{n-k}, with h_0 = 1
        for n in range(1, 8):
            lhs = complete_homogeneous(n, flat7).scale(n)
            rhs = power_sum(n, flat7)
            for k in range(1, n):
                rhs = rhs + power_sum(k, flat7) * complete_homogeneous(n - k, flat7)
            assert lhs == rhs, n

        # rank specialization counts standard tableaux
        for n in range(1, 8):
            for mu in partitions_of(n):
                assert schur(mu, flat7).rank(0, n) == HodgePoly.const(
                    hook_length_count(mu)
                ), mu


def test_a7_ingestion_fidelity(capsys):
    with verdict(capsys, "A7 (ingestion fidelity)"):
        q = HodgePoly.q()
        table = embedded_dataset()
        assert render_table(table) == dataset_text()
        assert table.entries[(0, 4)].rank(0, 4) == q - 2
        assert table.entries[(1, 1)].rank(0, 1) == q
        assert table.entries[(2, 1)].rank(0, 1) == q**4 + q**3
