"""One benchmark operation, run in a fresh interpreter by run.py.

Reads one JSON request on stdin and writes one JSON result on stdout.  The
import of the package is timed apart from the operation, so every operation
pays for a cold interpreter, cold caches and the table parse, as a user of the
command line does.

Requests:
  {"kind": "cli", "argv": [...], "trace": bool}
      run stablemoduli.cli.main(argv) and return its exit code and stdout.
  {"kind": "ingest", "doc": "...", "trace": bool}
      time parse_table, render_table and parse_table of that rendering, then
      (untimed) render once more and read back each row's Schur coefficients
      and rank; "checks_s" is the time that took.
  {"kind": "import"}
      only the import, to sample set-up time.

An untraced op is timed by reference.Sampler, which also reports "ref_s", the
mean time of the reference computation sampled during the op.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def _coeffs(poly) -> list:
    return [int(c) if c.denominator == 1 else str(c) for c in poly.q_coefficient_list()]


def _ingest(doc: str, tracer_cls, timer_cls):
    from stablemoduli import exprlang

    with tracer_cls() as tracer, timer_cls() as timer:
        parsed = exprlang.parse_table(doc)
        rendered = exprlang.render_table(parsed)
        reparsed = exprlang.parse_table(rendered)
    checks_start = perf_counter()
    rows = {}
    for (g, n), entry in parsed.entries.items():
        rows[f"{g},{n}"] = {
            "schur": [[list(mu), _coeffs(c)] for mu, c in entry.schur_coefficients(0, n)],
            "rank": _coeffs(entry.rank(0, n)),
        }
    out = {
        "rendered": rendered,
        "rerendered": exprlang.render_table(reparsed),
        "tables_equal": parsed == reparsed,
        "rows": rows,
    }
    out["checks_s"] = perf_counter() - checks_start
    return timer, out, tracer


def _cli(argv: list[str], tracer_cls, timer_cls):
    from stablemoduli import cli

    stdout = io.StringIO()
    with tracer_cls() as tracer, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), timer_cls() as timer:
        code = cli.main(argv)
    return timer, {"exit": code, "stdout": stdout.getvalue()}, tracer


class _NoTracer:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def result(self):
        return None


class _Stopwatch:
    """Times a traced op; the sampling of reference.Sampler would enter the trace."""

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.op_s = perf_counter() - self.start


def main() -> int:
    request = json.loads(sys.stdin.read())
    start = perf_counter()
    import stablemoduli
    import stablemoduli.cli  # noqa: F401  (part of set-up for every op)

    setup = perf_counter() - start
    result = {"setup_s": setup, "module": stablemoduli.__file__}
    if request["kind"] == "import":
        json.dump(result, sys.stdout)
        return 0
    from reference import Sampler

    tracer_cls, timer_cls = _NoTracer, Sampler
    if request["trace"]:
        from tracer import Tracer as tracer_cls
        timer_cls = _Stopwatch
    try:
        if request["kind"] == "cli":
            timer, out, tracer = _cli(request["argv"], tracer_cls, timer_cls)
        else:
            timer, out, tracer = _ingest(request["doc"], tracer_cls, timer_cls)
    except Exception:  # reported to run.py, which counts the op as failed
        result["error"] = traceback.format_exc()
    else:
        result.update(op_s=timer.op_s, output=out, trace=tracer.result())
        if timer_cls is Sampler:
            result.update(ref_s=timer.unit_s(), sampling_s=timer.spent)
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
