"""Command-line front end.

Subcommands: compute (one slot), table (all slots within truncation),
verify (the built-in check suite), expr (evaluate an expression), inputs
(which open-moduli entries a slot depends on).

Exit codes: 0 ok, 2 usage, 3 parse error in an expression or table
document, 4 violated operation precondition, 5 verification failure.  A
reader that closes stdout early (``stablemoduli table | head``) ends the
run with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dataset import dataset_text
from .errors import ExprParseError, PreconditionError, TableFormatError
from .exprlang import evaluate, parse_table, render_table
from .hodge import check_printable
from .partitions import format_partition
from .pipeline import (
    ModuliTable,
    SlotReport,
    build_slot_report,
    closed_moduli_series,
    lambda_exponent,
    open_moduli_series,
    render_coefficient,
    required_inputs,
    stable_slots,
)
from .plethysm import GluingMode
from .series import SymSeries, Truncation


# The largest --truncation that compute, table and verify accept.  On the
# shipped table `table --truncation L --format json` takes, end to end,
# 0.16 s at L = 8, 0.19 s at 9, 0.26 s at 10, 0.38 s at 11 and 0.56 s at 12
# (medians of five runs, 2-core host shared with other work, Python 3.11;
# BENCH_17.json); past 12 the work keeps growing by about 1.5 times per
# step.
MAX_TRUNCATION = 12


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablemoduli",
        description=(
            "Exact equivariant Serre polynomials of moduli spaces of stable "
            "curves, computed from those of the open strata."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, slot: bool) -> None:
        if slot:
            p.add_argument("--g", type=int, required=True, help="genus")
            p.add_argument("--n", type=int, required=True, help="marked points")
        p.add_argument("--input", dest="input_path", help="dataset file override")
        p.add_argument(
            "--truncation", type=int, default=5, help="lambda-exponent bound (default 5)"
        )
        p.add_argument(
            "--delta-mode",
            choices=["graded", "literal"],
            default="graded",
            help="gluing-operator grading convention",
        )

    p_compute = sub.add_parser("compute", help="one (g, n) slot report")
    p_compute.set_defaults(run=run_compute)
    common(p_compute, slot=True)
    p_compute.add_argument("--format", dest="fmt", choices=["text", "json", "latex"], default="text")
    p_compute.add_argument(
        "--withhold", metavar="G,N", help="zero out one table entry, e.g. 3,1"
    )

    p_table = sub.add_parser("table", help="reports for all slots within truncation")
    p_table.set_defaults(run=run_table)
    common(p_table, slot=False)
    p_table.add_argument("--format", dest="fmt", choices=["text", "json", "latex"], default="text")
    p_table.add_argument("--withhold", metavar="G,N", help="zero out one table entry")

    p_verify = sub.add_parser("verify", help="run the built-in check suite")
    p_verify.set_defaults(run=run_verify)
    common(p_verify, slot=False)

    p_expr = sub.add_parser("expr", help="evaluate an expression to a power-sum series")
    p_expr.set_defaults(run=run_expr)
    p_expr.add_argument("expression", help="e.g. 'q*s[4] - s[2,2]'")
    p_expr.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    p_inputs = sub.add_parser("inputs", help="open-moduli entries a slot depends on")
    p_inputs.set_defaults(run=run_inputs)
    p_inputs.add_argument("--g", type=int, required=True)
    p_inputs.add_argument("--n", type=int, required=True)
    p_inputs.add_argument("--input", dest="input_path", help="dataset file override")

    return parser


class UsageError(Exception):
    """Usage problem detected after argparse (maps to exit code 2)."""


def check_options(ns: argparse.Namespace) -> None:
    """Refuse a malformed --withhold or an out-of-range --truncation before
    any work is done, and turn --withhold into a (g, n) pair."""
    raw = getattr(ns, "withhold", None)
    if raw is not None:
        pieces = raw.split(",")
        if len(pieces) != 2 or not all(p.strip().isdigit() for p in pieces):
            raise UsageError(f"--withhold expects 'g,n', got {raw!r}")
        ns.withhold = (int(pieces[0]), int(pieces[1]))
    truncation = getattr(ns, "truncation", 0)
    if truncation < 0:
        raise UsageError(f"--truncation must be nonnegative, got {truncation}")
    if truncation > MAX_TRUNCATION:
        raise PreconditionError(
            f"--truncation {truncation} is past the cap {MAX_TRUNCATION}"
        )


def load_table(ns: argparse.Namespace) -> ModuliTable:
    if ns.input_path is None:
        text = dataset_text()
    else:
        try:
            text = Path(ns.input_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read dataset file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise TableFormatError(
                f"{ns.input_path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from exc
    table = parse_table(text)
    withhold = getattr(ns, "withhold", None)
    return table if withhold is None else table.withhold(*withhold)


def _closed_series(ns: argparse.Namespace, table: ModuliTable) -> SymSeries:
    trunc = Truncation.standard(ns.truncation)
    return closed_moduli_series(open_moduli_series(table, trunc), GluingMode(ns.delta_mode))


def _warn_missing(table: ModuliTable, needed: list[tuple[int, int]]) -> None:
    for (h, m) in needed:
        if (h, m) not in table.entries:
            print(
                f"warning: no table entry for M[{h},{m}]; it contributes zero",
                file=sys.stderr,
            )


def _emit_reports(reports: list[SlotReport], fmt: str, one: bool = False) -> str:
    """The format rule of compute and table: JSON (one object for one slot,
    an array for a table), LaTeX one line per slot, or text blocks apart by
    a blank line."""
    if fmt == "json":
        objs = [r.to_json_obj() for r in reports]
        return json.dumps(objs[0] if one else objs, indent=2)
    if fmt == "latex":
        return "\n".join(r.render_latex() for r in reports)
    return "\n\n".join(r.render_text() for r in reports)


def run_compute(ns: argparse.Namespace) -> int:
    lam = lambda_exponent(ns.g, ns.n)
    if ns.truncation < lam:
        raise PreconditionError(
            f"slot ({ns.g}, {ns.n}) sits at lambda^{lam}, beyond truncation {ns.truncation}"
        )
    table = load_table(ns)
    _warn_missing(table, required_inputs(ns.g, ns.n))
    closed = _closed_series(ns, table)
    print(_emit_reports([build_slot_report(closed, ns.g, ns.n)], ns.fmt, one=True))
    return 0


def run_table(ns: argparse.Namespace) -> int:
    table = load_table(ns)
    slots = stable_slots(ns.truncation)
    _warn_missing(table, slots)
    closed = _closed_series(ns, table)
    print(_emit_reports([build_slot_report(closed, g, n) for (g, n) in slots], ns.fmt))
    return 0


def run_expr(ns: argparse.Namespace) -> int:
    value = evaluate(ns.expression)
    if ns.fmt == "json":
        print(json.dumps(value.to_json_obj(), indent=2))
    else:
        print(value.render())
    return 0


def run_inputs(ns: argparse.Namespace) -> int:
    needed = required_inputs(ns.g, ns.n)
    table = load_table(ns)
    for (h, m) in needed:
        suffix = "" if (h, m) in table.entries else "  (missing from dataset)"
        print(f"M[{h},{m}]{suffix}")
    return 0


# -- verification suite --------------------------------------------------------


EXPECTED_RANKS = {
    (1, 1): "q + 1",
    (0, 4): "q + 1",
    (0, 5): "q^2 + 5q + 1",
    (0, 6): "q^3 + 16q^2 + 16q + 1",
    (3, 1): "q^7 + 5q^6 + 16q^5 + 29q^4 + 29q^3 + 16q^2 + 5q + 1",
}
EXPECTED_CORRECTION = "3q^6 + 15q^5 + 29q^4 + 29q^3 + 16q^2 + 4q"


def _rank_text(closed: SymSeries, g: int, n: int) -> str:
    rank = closed.rank(lambda_exponent(g, n), n)
    return render_coefficient(check_printable(rank, f"the rank of M[{g},{n}]"))


def run_verify(ns: argparse.Namespace) -> int:
    table = load_table(ns)
    closed = _closed_series(ns, table)
    if ns.delta_mode == "literal":
        print(
            "note: literal gluing mode exists to demonstrate misplaced boundary "
            "strata; failures below are the expected demonstration"
        )
    # A slot whose table rows are not all there cannot be expected to pass
    # the functional equation; it is left out of that check.
    slots = stable_slots(ns.truncation)
    reports = {
        (g, n): build_slot_report(closed, g, n)
        for (g, n) in slots
        if all(row in table.entries for row in required_inputs(g, n))
    }
    left_out = [f"M[{g},{n}]" for (g, n) in slots if (g, n) not in reports]
    if left_out:
        print(
            f"note: {', '.join(left_out)} lack table rows they need and are left "
            "out of the functional-equation check"
        )

    checks: list[tuple[str, str, str]] = []

    for (g, n), expected in sorted(
        EXPECTED_RANKS.items(), key=lambda kv: (lambda_exponent(*kv[0]), kv[0])
    ):
        if lambda_exponent(g, n) <= ns.truncation:
            checks.append((f"rank M[{g},{n}]", expected, _rank_text(closed, g, n)))

    if ns.truncation >= 5 and (3, 1) in table.entries:
        withheld = _closed_series(ns, table.withhold(3, 1))
        checks.append(
            (
                "boundary correction M[3,1] with its entry withheld",
                EXPECTED_CORRECTION,
                _rank_text(withheld, 3, 1),
            )
        )

    if ns.truncation >= 2:
        report04 = reports[(0, 4)] if (0, 4) in reports else build_slot_report(closed, 0, 4)
        schur04 = report04.equivariant
        actual = "; ".join(
            f"s{format_partition(mu)} * ({render_coefficient(c)})" for mu, c in schur04
        )
        checks.append(("schur M[0,4]", "s[4] * (q + 1)", actual or "0"))

    bad_slots = []
    for (g, n), report in reports.items():
        ok = report.duality_ok and report.off_diagonal is None
        for _, coeff in report.equivariant:
            if not coeff.is_diagonal() or not coeff.is_integral():
                ok = False
                break
            if any(c < 0 for _, c in coeff.q_coefficients()):
                ok = False
                break
        if not ok:
            bad_slots.append(f"M[{g},{n}]")
    checks.append(
        (
            "functional equation, integrality and positivity on all slots",
            "all slots pass",
            "all slots pass" if not bad_slots else "failing: " + ", ".join(bad_slots),
        )
    )

    rendered = render_table(table)
    reparsed = parse_table(rendered)
    roundtrip_ok = reparsed == table and render_table(reparsed) == rendered
    checks.append(
        (
            "table render/parse round trip",
            "fixed point",
            "fixed point" if roundtrip_ok else "differs",
        )
    )

    failures = 0
    for name, expected, actual in checks:
        status = "pass" if expected == actual else "FAIL"
        failures += status == "FAIL"
        print(f"check {name}: expected {expected}; actual {actual} -> {status}")
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 5
    print(f"all {len(checks)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        check_options(ns)
        code = ns.run(ns)
        # Write out what is buffered here, so a closed pipe raises below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone; send the rest of the output, and the flush
        # at exit, to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExprParseError, TableFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
