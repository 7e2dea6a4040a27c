import random
from fractions import Fraction

import pytest

from stablemoduli.characters import character
from stablemoduli.errors import PreconditionError
from stablemoduli.hodge import HodgePoly
from stablemoduli.partitions import partitions_of, z_factor
from stablemoduli.series import Truncation

from oracles import conjugate, hook_length_count, schur_jacobi_trudi

# Full character table of the symmetric group on 3 letters; rows indexed by
# the irreducible's partition, columns by cycle type (1,1,1), (2,1), (3).
S3_TABLE = {
    (3,): [1, 1, 1],
    (2, 1): [2, 0, -1],
    (1, 1, 1): [1, -1, 1],
}

# Same for 4 letters; columns (1,1,1,1), (2,1,1), (2,2), (3,1), (4).
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_s3_table():
    classes = [(1, 1, 1), (2, 1), (3,)]
    for mu, row in S3_TABLE.items():
        assert [character(mu, rho) for rho in classes] == row


def test_s4_table():
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    for mu, row in S4_TABLE.items():
        assert [character(mu, rho) for rho in classes] == row
    # a class is a multiset of cycle lengths, given in any order
    assert character((3, 1), (1, 2, 1)) == character((3, 1), (2, 1, 1)) == 1


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for rho in partitions_of(n):
            assert character((n,), rho) == 1
            assert character((1,) * n, rho) == (-1) ** (n - len(rho))


def test_orthogonality_of_rows():
    for n in range(1, 7):
        mus = partitions_of(n)
        for a in mus:
            for b in mus:
                inner = sum(
                    Fraction(character(a, rho) * character(b, rho), z_factor(rho))
                    for rho in partitions_of(n)
                )
                assert inner == (1 if a == b else 0)


def test_dimension_matches_hook_length_formula():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character(mu, (1,) * n) == hook_length_count(mu)


def test_weight_mismatch_rejected():
    with pytest.raises(PreconditionError):
        character((2, 1), (2, 2))


def test_empty_shape():
    assert character((), ()) == 1


def test_characters_match_jacobi_trudi_coefficients():
    # s_mu = sum over rho of chi^mu(rho) p_rho / z_rho, with s_mu built as a
    # Jacobi-Trudi determinant that shares no code with the package.
    for n in range(0, 8):
        trunc = Truncation.flat(0, n)
        for mu in partitions_of(n):
            s_mu = schur_jacobi_trudi(mu, trunc)
            for rho in partitions_of(n):
                coeff = z_factor(rho) * s_mu.coefficient(0, rho)
                assert coeff == HodgePoly.const(character(mu, rho)), (mu, rho)


def test_orthogonality_of_columns():
    for n in range(1, 14):
        classes = partitions_of(n)
        table = {mu: [character(mu, rho) for rho in classes] for mu in classes}
        for i, rho in enumerate(classes):
            for j in range(i, len(classes)):
                inner = sum(row[i] * row[j] for row in table.values())
                assert inner == (z_factor(rho) if i == j else 0), (rho, classes[j])


def conjugation_holds(mu, rho):
    sign = (-1) ** (sum(rho) - len(rho))
    return character(conjugate(mu), rho) == sign * character(mu, rho)


def test_conjugation_rule_on_every_shape_up_to_12():
    for n in range(0, 13):
        for mu in partitions_of(n):
            for rho in partitions_of(n):
                assert conjugation_holds(mu, rho), (mu, rho)


@pytest.mark.parametrize("mu", [(1,) * 20, (2,) * 15])
def test_conjugation_rule_on_tall_shapes(mu):
    classes = partitions_of(sum(mu))
    sample = random.Random(sum(mu)).sample(classes, 40) + [classes[0], classes[-1]]
    for rho in sample:
        assert conjugation_holds(mu, rho), rho
