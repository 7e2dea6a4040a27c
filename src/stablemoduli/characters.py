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
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionError
from .partitions import Partition, weight


def _abacus(mu: Partition) -> int:
    rows = len(mu)
    beads = 0
    for i, part in enumerate(mu):
        beads |= 1 << (part + rows - 1 - i)
    while beads & 1:
        beads >>= 1
    return beads


@lru_cache(maxsize=None)
def _character(beads: int, rho: Partition) -> int:
    if not rho:
        return 1
    strip = rho[0]
    rest = rho[1:]
    total = 0
    # Beads at strip or above, lowest first; each may move down by strip.
    high = beads >> strip << strip
    while high:
        low = high & -high
        high ^= low
        target = low >> strip
        if beads & target:
            continue
        between = beads & (low - (target << 1))
        smaller = beads ^ low ^ target
        while smaller & 1:
            smaller >>= 1
        chi = _character(smaller, rest)
        total += -chi if between.bit_count() & 1 else chi
    return total


def character(mu: Partition, rho: Partition) -> int:
    """chi^mu evaluated on the conjugacy class of cycle type rho."""
    mu = tuple(mu)
    rho = tuple(rho)
    if weight(mu) != weight(rho):
        raise PreconditionError(
            f"character needs |mu| = |rho|, got {weight(mu)} != {weight(rho)}"
        )
    return _character(_abacus(mu), rho)
