"""Each complete slot against the geometry of the compactified space, read
through its slot report: H^0 is the trivial representation, the Poincare
polynomial of a genus-0 space follows Keel's recursion, and H^2 of a space
of genus at least 1 is spanned by its divisor classes.  None of these
routes shares code with the gluing pipeline (``tests/oracles.py``)."""

import pytest

from stablemoduli.dataset import embedded_dataset
from stablemoduli.pipeline import (
    build_slot_report,
    closed_moduli_series,
    open_moduli_series,
    required_inputs,
    stable_slots,
)
from stablemoduli.plethysm import GluingMode
from stablemoduli.series import Truncation

from oracles import h2_divisor_classes, keel_poincare

TRUNCATION = 5


def geometric_failures(mode: GluingMode) -> dict[tuple[int, int], list[str]]:
    """{slot: the geometric checks it fails} over the complete slots of the
    shipped table at truncation 5."""
    table = embedded_dataset()
    f = open_moduli_series(table, Truncation.standard(TRUNCATION))
    closed = closed_moduli_series(f, mode)
    failures = {}
    for g, n in stable_slots(TRUNCATION):
        if not all(row in table.entries for row in required_inputs(g, n)):
            continue
        report = build_slot_report(closed, g, n)
        # {mu: the published q-coefficients of s_mu}; h0 and h2 keep the
        # nonzero q^0 and q^1 ones
        q = dict(zip((mu for mu, _ in report.equivariant), report.coeff_q))
        h0 = {mu: c[0] for mu, c in q.items() if c and c[0]}
        h2 = {mu: c[1] for mu, c in q.items() if c and len(c) > 1 and c[1]}
        failed = []
        if h0 != {(n,): 1}:
            failed.append("H^0")
        if g == 0:
            keel = keel_poincare(n)
            if report.rank_q != [keel.get(k, 0) for k in range(max(keel) + 1)]:
                failed.append("Keel")
        elif h2 != h2_divisor_classes(g, n):
            failed.append("H^2")
        if failed:
            failures[(g, n)] = failed
    return failures


def test_every_complete_slot_has_the_geometric_h0_h2_and_genus_0_betti_numbers():
    assert len(stable_slots(TRUNCATION)) == 14
    assert geometric_failures(GluingMode.GRADED) == {}


def test_keel_and_the_divisor_counts_of_known_spaces():
    assert [keel_poincare(n) for n in (3, 4, 5)] == [{0: 1}, {0: 1, 1: 1}, {0: 1, 1: 5, 2: 1}]
    # h^2 of M_{0,14} and M_{0,18}
    assert [keel_poincare(n)[1] for n in (14, 18)] == [8100, 130918]
    assert h2_divisor_classes(3, 1) == {(1,): 5}
    assert h2_divisor_classes(1, 4) == {(4,): 4, (3, 1): 2, (2, 2): 1}
    # delta_(1,{1}) and the two psi-classes of M_{2,2}: h_2[h_1] = s[2]
    assert h2_divisor_classes(2, 2) == {(2,): 5, (1, 1): 1}
    with pytest.raises(ValueError):
        h2_divisor_classes(0, 4)


def test_literal_mode_fails_the_geometric_routes():
    # Every slot but M_{0,3} fails; for instance the rank of M_{0,5} reads
    # q^2 - 5q + 6, against Keel's q^2 + 5q + 1.
    both, h0, h2 = ["H^0", "H^2"], ["H^0"], ["H^2"]
    genus0 = ["H^0", "Keel"]
    assert geometric_failures(GluingMode.LITERAL) == {
        (1, 1): h0, (0, 4): genus0, (1, 2): both, (0, 5): genus0, (1, 3): both,
        (2, 1): h2, (0, 6): genus0, (1, 4): both, (2, 2): both, (0, 7): genus0,
        (1, 5): both, (2, 3): both, (3, 1): h2,
    }
