"""Partition combinatorics and the bits of number theory the bases need.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Reverse-lexicographic order (natural
descending tuple order, so [n] first and [1,...,1] last) is the canonical
enumeration and serialization order throughout the package.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import PreconditionError

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and normalize to a tuple; rejects anything not a partition."""
    parts = tuple(parts)
    for k, part in enumerate(parts):
        if not isinstance(part, int) or part < 1:
            raise PreconditionError(
                f"partition parts must be positive integers, got {part!r}"
            )
        if k and parts[k - 1] < part:
            raise PreconditionError(
                f"partition parts must be weakly decreasing: {list(parts)}"
            )
    return parts


def weight(rho: Partition) -> int:
    return sum(rho)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def count_partitions_up_to(w: int) -> int:
    """The number of partitions of weight at most w, counted by the
    recurrence on the largest part allowed, without building them."""
    counts = [1] * (w + 1)  # partitions of n into parts of size 1
    for part in range(2, w + 1):
        for n in range(part, w + 1):
            counts[n] += counts[n - part]
    return sum(counts)


def multiplicities(rho: Partition) -> dict[int, int]:
    counts: dict[int, int] = {}
    for part in rho:
        counts[part] = counts.get(part, 0) + 1
    return counts


def z_factor(rho: Partition) -> int:
    """Centralizer order of a permutation of cycle type rho:
    product over distinct parts i of i^{m_i} * m_i!."""
    z = 1
    for part, m in multiplicities(rho).items():
        z *= part**m * factorial(m)
    return z


def mobius(k: int) -> int:
    """Number-theoretic Mobius function, by trial division (k stays tiny here)."""
    if k < 1:
        raise PreconditionError(f"mobius needs k >= 1, got {k}")
    primes = 0
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            primes += 1
        else:
            d += 1
    if k > 1:
        primes += 1
    return -1 if primes % 2 else 1


def format_partition(rho: Partition) -> str:
    """Text form, e.g. "[2,2]"; "[]" for the empty partition."""
    return "[" + ",".join(str(part) for part in rho) + "]"
