from math import factorial

import pytest
from fractions import Fraction

from stablemoduli.errors import PreconditionError
from stablemoduli.partitions import (
    check_partition,
    count_partitions_up_to,
    format_partition,
    mobius,
    multiplicities,
    partitions_of,
    weight,
    z_factor,
)

from oracles import conjugate, partition_count


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(0, 13):
        assert len(partitions_of(n)) == partition_count(n)


def test_partition_counts_up_to_a_weight_match_the_pentagonal_recurrence():
    # counted without building them, far past what partitions_of is asked
    for w in (0, 1, 5, 30, 120):
        assert count_partitions_up_to(w) == sum(partition_count(n) for n in range(w + 1))


def test_partitions_order_is_reverse_lexicographic():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(1, 9):
        parts = partitions_of(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert all(a > b for a, b in zip(parts, parts[1:]))  # plain tuple order


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()
    with pytest.raises(PreconditionError):
        check_partition((1, 2))
    with pytest.raises(PreconditionError):
        check_partition((2, 0))
    with pytest.raises(PreconditionError):
        check_partition((-1,))


def test_weight_and_multiplicities():
    assert weight((3, 2, 2)) == 7
    assert weight(()) == 0
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for n in range(0, 9):
        for rho in partitions_of(n):
            assert conjugate(conjugate(rho)) == rho


def test_z_factor():
    assert z_factor((2, 2)) == 8
    assert z_factor((3,)) == 3
    for n in range(1, 9):
        assert z_factor((1,) * n) == factorial(n)
        assert sum(Fraction(1, z_factor(rho)) for rho in partitions_of(n)) == 1


def test_mobius():
    assert [mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert mobius(30) == -1
    assert mobius(36) == 0
    with pytest.raises(PreconditionError):
        mobius(0)


def test_format_partition():
    assert format_partition((2, 2)) == "[2,2]"
    assert format_partition(()) == "[]"
