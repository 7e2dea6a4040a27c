"""Spans and counters around the package's stage functions and kernels.

The tracer patches each function under the name its caller looks it up by
(``plethysm.exp_series``, ``series.character``, ...), so the program itself
is unchanged.  Stage calls get one span each; kernels, called up to millions
of times per operation, are only counted and timed in aggregate.  Everything
is kept in memory and handed back by :meth:`Tracer.result`.
"""

from __future__ import annotations

from time import perf_counter

from stablemoduli import cli, dataset, exprlang, hodge, pipeline, plethysm, series

HodgePoly = hodge.HodgePoly
SymSeries = series.SymSeries

# (owner, attribute, span name); the owner is where the caller looks it up.
STAGES = [
    (cli, "main", "cli.main"),
    (cli, "parse_table", "exprlang.parse_table"),
    (dataset, "parse_table", "exprlang.parse_table"),
    (exprlang, "parse_table", "exprlang.parse_table"),
    (cli, "render_table", "exprlang.render_table"),
    (exprlang, "render_table", "exprlang.render_table"),
    (cli, "open_moduli_series", "pipeline.open_moduli_series"),
    (cli, "closed_moduli_series", "pipeline.closed_moduli_series"),
    (cli, "build_slot_report", "pipeline.build_slot_report"),
    (pipeline, "plethystic_exp", "plethysm.plethystic_exp"),
    (pipeline, "exp_gluing", "plethysm.exp_gluing"),
    (pipeline, "plethystic_log", "plethysm.plethystic_log"),
    (plethysm, "gluing_operator", "plethysm.gluing_operator"),
    (plethysm, "exp_series", "series.exp_series"),
    (series, "exp_series", "series.exp_series"),
    (plethysm, "log_series", "series.log_series"),
    (SymSeries, "adams", "series.SymSeries.adams"),
    (SymSeries, "schur_coefficients", "series.SymSeries.schur_coefficients"),
    (exprlang, "schur", "series.schur"),
]

# Stages whose returned series are measured (monomials, denominator bits).
SIZED = {"plethysm.plethystic_exp", "plethysm.exp_gluing", "plethysm.plethystic_log"}

KERNELS = [
    (HodgePoly, "__mul__", "hodge.HodgePoly.mul"),
    (HodgePoly, "__rmul__", "hodge.HodgePoly.mul"),
    (HodgePoly, "__add__", "hodge.HodgePoly.add"),
    (HodgePoly, "__radd__", "hodge.HodgePoly.add"),
    (SymSeries, "__mul__", "series.SymSeries.mul"),
    (SymSeries, "__rmul__", "series.SymSeries.mul"),
    (SymSeries, "diff_p", "series.SymSeries.diff_p"),
    (series, "character", "characters.character"),
]


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.kernels: dict[str, list] = {}  # name -> [calls, seconds]
        self.sizes: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in STAGES:
            self._patch(owner, attr, self._stage(name, getattr(owner, attr)))
        for owner, attr, name in KERNELS:
            self._patch(owner, attr, self._kernel(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _stage(self, name: str, fn):
        spans, stack, sized = self.spans, self._stack, name in SIZED

        def wrapped(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if sized:
                self._measure(name, result)
            return result

        return wrapped

    def _kernel(self, name: str, fn):
        stat = self.kernels.setdefault(name, [0, 0.0])

        def wrapped(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - start

        return wrapped

    def _measure(self, name: str, value: SymSeries) -> None:
        monomials = 0
        bits = self.sizes.get("plethysm.max_den_bits", 0)
        for _, coeff in value.items():
            for _, c in coeff.items():
                monomials += 1
                bits = max(bits, c.denominator.bit_length())
        key = f"{name}.out_monomials"
        self.sizes[key] = max(self.sizes.get(key, 0), monomials)
        self.sizes["plethysm.max_den_bits"] = bits

    def result(self) -> dict:
        return {
            "spans": [
                [name, start - self.origin, end - self.origin, parent]
                for name, start, end, parent in self.spans
            ],
            "kernels": self.kernels,
            "sizes": self.sizes,
        }
