"""Samples how fast the host runs while an op runs.

The benchmark's host is shared, and the speed of identical Python work
changes by up to a factor of two within seconds and drifts from minute to
minute.  So op.py times a small fixed reference computation every
INTERVAL_S seconds during the op, from a timer signal in the op's own thread,
and reports the op's time as a multiple of the mean sample.  Both slow down
together, so the host's speed cancels out of the ratio.

The reference is of the same kind as the program's kernels (products of
polynomials held as dicts of Fraction coefficients) but uses nothing of the
program, so no change to the program can change its work.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05  # one sample of about 3 ms every 50 ms: about 5 % of the op

_BASE = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7) if i + j < 8}


def _unit() -> None:
    """One unit of reference work: a truncated product of two-variable
    polynomials with Fraction coefficients, the same on every call."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in _BASE.items():
        for (k, l), d in _BASE.items():
            if i + j + k + l <= 10:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d


class Sampler:
    """Times the body of a `with` block and, meanwhile, one reference unit
    every INTERVAL_S seconds.

    `samples` holds each unit's wall time; `op_s` is the block's wall time
    without the time the sampling took.  The garbage collector is off during a
    sample, so the size of the op's heap does not enter the sample's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.op_s = 0.0

    def _sample(self, signum, frame) -> None:
        enter = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _unit()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent += perf_counter() - enter

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.op_s = end - self._start - self.spent
        if not self.samples:  # an op shorter than one interval
            self._sample(None, None)

    def unit_s(self) -> float:
        """The mean time of one reference unit during the op."""
        return sum(self.samples) / len(self.samples)
