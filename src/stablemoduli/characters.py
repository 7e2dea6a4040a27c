"""Irreducible symmetric-group characters by the Murnaghan-Nakayama rule.

chi^mu(rho) is computed recursively: remove a border strip of length rho[0]
from mu in every possible way, with sign (-1)^(strip height), and recurse on
the rest of rho.  Strips are removed on the abacus of mu: with r rows, its
beta numbers (first-column hook lengths) mu_i + r - 1 - i are held as the
set bits of one int, a bead at each.  Removing a strip of length L moves a
bead from b down to an empty position b - L, which flips those two bits;
the strip's height is the number of beads strictly between them, so the
sign is the parity of their ``bit_count()``.  A bead at 0 is an empty row:
it is shifted away (the int shifted right by one) until bit 0 is clear, so
each partition has one key whatever its number of trailing zero rows.

The rule is applied a row at a time.  The row of mu at (n, k), n = |mu|,
is chi^mu on every rho of n whose parts are at most k, in reverse-lex
order.  The partitions of n with first part j are exactly j followed by
the partitions of n - j with parts at most j, in the same order, so the
row is the concatenation, for j = min(n, k) down to 1, of one block per j:
the signed sum of the rows at (n - j, j) of the shapes left by removing a
strip of length j from mu, or zeros if there is no such strip.  So the
strips of a shape are found once per strip length, not once per class,
and the block sums run over whole rows.  Rows are memoized by (abacus, n,
k) for the life of the process.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg, sub

from .errors import PreconditionError
from .partitions import Partition, check_partition, partitions_of, weight


def _abacus(mu: Partition) -> int:
    rows = len(mu)
    beads = 0
    for i, part in enumerate(mu):
        beads |= 1 << (part + rows - 1 - i)
    while beads & 1:
        beads >>= 1
    return beads


@lru_cache(maxsize=None)
def _classes(n: int, k: int) -> int:
    """The number of partitions of n with parts at most k."""
    if not n:
        return 1
    return sum(_classes(n - j, j) for j in range(1, min(n, k) + 1))


@lru_cache(maxsize=None)
def _row(beads: int, n: int, k: int) -> tuple[int, ...]:
    """The row at (n, k) of the shape of weight n with abacus beads."""
    if not n:
        return (1,)
    row: list[int] = []
    for j in range(min(n, k), 0, -1):
        block = None
        # Beads at j or above, lowest first; each may move down by j.
        high = beads >> j << j
        while high:
            low = high & -high
            high ^= low
            target = low >> j
            if beads & target:
                continue
            odd = (beads & (low - (target << 1))).bit_count() & 1
            smaller = beads ^ low ^ target
            while smaller & 1:
                smaller >>= 1
            rest = _row(smaller, n - j, j)
            if block is None:
                block = map(neg, rest) if odd else rest
            else:
                block = map(sub if odd else add, block, rest)
        if block is None:
            row += [0] * _classes(n - j, j)
        else:
            row.extend(block)
    return tuple(row)


def character_row(mu: Partition) -> tuple[int, ...]:
    """chi^mu on every cycle type, in the order of ``partitions_of(|mu|)``."""
    n = weight(mu)
    return _row(_abacus(mu), n, n)


def character(mu: Partition, rho: Partition) -> int:
    """chi^mu evaluated on the conjugacy class of cycle type rho."""
    mu = tuple(mu)
    rho = check_partition(sorted(rho, reverse=True))
    n = weight(mu)
    if n != weight(rho):
        raise PreconditionError(
            f"character needs |mu| = |rho|, got {n} != {weight(rho)}"
        )
    return character_row(mu)[partitions_of(n).index(rho)]
