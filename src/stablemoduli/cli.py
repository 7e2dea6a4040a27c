"""Command-line front end.

Subcommands: compute (one slot), table (all slots within truncation),
verify (the built-in check suite), expr (evaluate an expression), inputs
(which open-moduli entries a slot depends on).

The command line is read by ``parse_args`` from one table, ``COMMANDS``,
which also gives the text of ``-h``/``--help`` (at the top or after a
command; printed to stdout, exit 0).  An option is written ``--name value``
or ``--name=value``, with its name in full (``--trunc`` is not read as
``--truncation``); the last of a repeated option wins, and ``--`` ends the
options.  As with argparse, a token that starts with ``-`` is an option
unless it is ``-`` alone, a negative integer (``--g -1``) or holds a space,
so an expression such as ``-q*s[1]`` goes after ``--``.  Every usage error
prints ``error: ...`` on stderr and exits 2.

Exit codes: 0 ok, 2 usage, 3 parse error in an expression or table
document, 4 violated operation precondition, 5 verification failure.  A
reader that closes stdout early (``stablemoduli table | head``) ends the
run with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from .dataset import dataset_text
from .errors import ExprParseError, PreconditionError, TableFormatError
from .exprlang import evaluate, parse_table, render_table
from .partitions import format_partition
from .pipeline import (
    ModuliTable,
    SlotReport,
    build_slot_report,
    check_stable,
    closed_moduli_series,
    lambda_exponent,
    open_moduli_series,
    render_coefficient,
    required_inputs,
    stable_slots,
)
from .plethysm import ClosedSeries, GluingMode
from .series import Truncation


# The largest --truncation that compute, table and verify accept.  On the
# shipped table `table --truncation L --format json` takes, end to end,
# 0.15 s at L = 8, 0.18 s at 9, 0.23 s at 10, 0.32 s at 11 and 0.48 s at 12
# (medians of nine runs, 2-core host shared with other work, Python 3.11;
# BENCH_20.json, in a spell when the host ran about 1.5 times slower than
# for BENCH_19.json); past 12 the work keeps growing by about 1.2-1.5 times
# per step.
MAX_TRUNCATION = 12


class UsageError(Exception):
    """A usage problem of the command line (maps to exit code 2)."""


def check_options(ns: SimpleNamespace) -> None:
    """Refuse a malformed --withhold or an out-of-range --truncation before
    any work is done, and turn --withhold into a (g, n) pair."""
    raw = getattr(ns, "withhold", None)
    if raw is not None:
        pieces = raw.split(",")
        if len(pieces) != 2 or not all(p.strip().isdecimal() for p in pieces):
            raise UsageError(f"--withhold expects 'g,n', got {raw!r}")
        ns.withhold = (int(pieces[0]), int(pieces[1]))
    truncation = getattr(ns, "truncation", 0)
    if truncation < 0:
        raise UsageError(f"--truncation must be nonnegative, got {truncation}")
    if truncation > MAX_TRUNCATION:
        raise PreconditionError(
            f"--truncation {truncation} is past the cap {MAX_TRUNCATION}"
        )


def load_table(ns: SimpleNamespace) -> ModuliTable:
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


def _closed_series(ns: SimpleNamespace, table: ModuliTable) -> ClosedSeries:
    trunc = Truncation.standard(ns.truncation)
    return closed_moduli_series(open_moduli_series(table, trunc), GluingMode(ns.delta_mode))


def _warn_missing(table: ModuliTable, needed: list[tuple[int, int]]) -> None:
    for (h, m) in needed:
        if (h, m) not in table.entries:
            print(
                f"warning: no table entry for M[{h},{m}]; it contributes zero",
                file=sys.stderr,
            )


def _json_text(x: object, indent: str = "\n") -> str:
    """The text ``json.dumps(x, indent=2)`` gives for a value built of dicts
    with str keys, lists, strs, ints, bools and None, written directly:
    ``json`` takes its slower pure-Python encoder whenever it indents.  Any
    other type, a subclass of one of these included, raises TypeError."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return int.__repr__(x)
    inner = indent + "  "
    if kind is list:
        if not x:
            return "[]"
        # the lists of q-coefficients are mostly ints: write those inline
        items = [int.__repr__(v) if type(v) is int else _json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not x:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _emit_reports(reports: list[SlotReport], fmt: str, one: bool = False) -> str:
    """The format rule of compute and table: JSON (one object for one slot,
    an array for a table), LaTeX one line per slot, or text blocks apart by
    a blank line."""
    if fmt == "json":
        objs = [r.to_json_obj() for r in reports]
        return _json_text(objs[0] if one else objs)
    if fmt == "latex":
        return "\n".join(r.render_latex() for r in reports)
    return "\n\n".join(r.render_text() for r in reports)


def run_compute(ns: SimpleNamespace) -> int:
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


def run_table(ns: SimpleNamespace) -> int:
    table = load_table(ns)
    slots = stable_slots(ns.truncation)
    _warn_missing(table, slots)
    closed = _closed_series(ns, table)
    print(_emit_reports([build_slot_report(closed, g, n) for (g, n) in slots], ns.fmt))
    return 0


def run_expr(ns: SimpleNamespace) -> int:
    value = evaluate(ns.expression)
    if ns.fmt == "json":
        print(_json_text(value.to_json_obj()))
    else:
        print(value.render())
    return 0


def run_inputs(ns: SimpleNamespace) -> int:
    check_stable(ns.g, ns.n)
    table = load_table(ns)
    # the list grows as the square of the genus, so a slot that no
    # --truncation reaches is refused before any of it is made
    lam = lambda_exponent(ns.g, ns.n)
    if lam > MAX_TRUNCATION:
        raise PreconditionError(
            f"slot ({ns.g}, {ns.n}) sits at lambda^{lam}, past the cap {MAX_TRUNCATION}"
        )
    for (h, m) in required_inputs(ns.g, ns.n):
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


def run_verify(ns: SimpleNamespace) -> int:
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

    def report(g: int, n: int) -> SlotReport:
        return reports[(g, n)] if (g, n) in reports else build_slot_report(closed, g, n)

    checks: list[tuple[str, str, str]] = []

    for (g, n), expected in sorted(
        EXPECTED_RANKS.items(), key=lambda kv: (lambda_exponent(*kv[0]), kv[0])
    ):
        if lambda_exponent(g, n) <= ns.truncation:
            actual = render_coefficient(report(g, n).rank)
            checks.append((f"rank M[{g},{n}]", expected, actual))

    if ns.truncation >= 5 and (3, 1) in table.entries:
        withheld = _closed_series(ns, table.withhold(3, 1))
        checks.append(
            (
                "boundary correction M[3,1] with its entry withheld",
                EXPECTED_CORRECTION,
                render_coefficient(build_slot_report(withheld, 3, 1).rank),
            )
        )

    if ns.truncation >= 2:
        actual = "; ".join(
            f"s{format_partition(mu)} * ({render_coefficient(c)})"
            for mu, c in report(0, 4).equivariant
        )
        checks.append(("schur M[0,4]", "s[4] * (q + 1)", actual or "0"))

    bad_slots = []
    for (g, n), r in reports.items():
        # coeff_q is None off the diagonal, and holds only ints just when the
        # coefficient is integral
        ok = r.duality_ok and r.off_diagonal is None and all(
            q is not None and all(type(c) is int and c >= 0 for c in q) for q in r.coeff_q
        )
        if not ok:
            bad_slots.append(f"M[{g},{n}]")
    if bad_slots:
        scan = "failing: " + ", ".join(bad_slots)
    else:
        # a scan of no slot shows nothing, so it does not pass
        scan = "all slots pass" if reports else "no slot checked"
    checks.append(
        (
            "functional equation, integrality and positivity on all slots",
            "all slots pass",
            scan,
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


# -- the option table ------------------------------------------------------------

# One entry per command: (its run function, its one-line help, its one
# positional argument as (attribute, help) or None, its options).  An option
# is (flag, the attribute of the namespace the run function reads, int or a
# tuple of choices or the name of a text value, default or REQUIRED, help).
# Plain tuples: a NamedTuple class costs about 0.4 ms of every run to build.

REQUIRED = object()
HELP = ("-h", "--help")

_G = ("--g", "g", int, REQUIRED, "genus")
_N = ("--n", "n", int, REQUIRED, "marked points")
_INPUT = ("--input", "input_path", "PATH", None, "dataset file override")
_TRUNCATION = (
    "--truncation", "truncation", int, 5, f"lambda-exponent bound, at most {MAX_TRUNCATION}"
)
_DELTA_MODE = (
    "--delta-mode", "delta_mode", ("graded", "literal"), "graded",
    "gluing-operator grading convention",
)
_FORMAT = ("--format", "fmt", ("text", "json", "latex"), "text", "output format")
_WITHHOLD = ("--withhold", "withhold", "G,N", None, "zero out one table entry, e.g. 3,1")

COMMANDS = {
    "compute": (
        run_compute, "one (g, n) slot report", None,
        (_G, _N, _INPUT, _TRUNCATION, _DELTA_MODE, _FORMAT, _WITHHOLD),
    ),
    "table": (
        run_table, "reports for all slots within truncation", None,
        (_INPUT, _TRUNCATION, _DELTA_MODE, _FORMAT, _WITHHOLD),
    ),
    "verify": (
        run_verify, "run the built-in check suite", None, (_INPUT, _TRUNCATION, _DELTA_MODE)
    ),
    "expr": (
        run_expr, "evaluate an expression to a power-sum series",
        ("expression", "e.g. 'q*s[4] - s[2,2]'"),
        (("--format", "fmt", ("text", "json"), "text", "output format"),),
    ),
    "inputs": (run_inputs, "open-moduli entries a slot depends on", None, (_G, _N, _INPUT)),
}

_SYNTAX = (
    "Option names are given in full, as '--name value' or '--name=value';\n"
    "'--' ends the options."
)


def usage(name: str | None = None) -> str:
    """The help text of the command line, or of the command name."""
    if name is None:
        width = max(map(len, COMMANDS))
        return "\n".join(
            [
                "usage: stablemoduli <command> [options]",
                "",
                "Exact equivariant Serre polynomials of moduli spaces of stable curves,",
                "computed from those of the open strata.",
                "",
                "commands:",
                *(f"  {n:<{width}}  {c[1]}" for n, c in COMMANDS.items()),
                "",
                "'stablemoduli <command> --help' lists the options of a command.",
                _SYNTAX,
            ]
        )
    _, summary, positional, options = COMMANDS[name]
    head = f"usage: stablemoduli {name} [options]"
    rows = []
    if positional is not None:
        attr, text = positional
        head += f" [--] {attr.upper()}"
        rows.append((attr.upper(), text))
    for flag, _, kind, default, text in options:
        if isinstance(kind, tuple):
            value = "{" + ",".join(kind) + "}"
        else:
            value = "INT" if kind is int else kind
        if default is REQUIRED:
            text += " (required)"
        elif default is not None:
            text += f" (default {default})"
        rows.append((f"{flag} {value}", text))
    rows.append((", ".join(HELP), "show this help"))
    width = max(len(left) for left, _ in rows)
    lines = [head, "", summary, "", "arguments:"]
    lines += [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join([*lines, "", _SYNTAX])


def run_help(ns: SimpleNamespace) -> int:
    print(ns.text)
    return 0


def _is_option(token: str) -> bool:
    """argparse's rule: a token that starts with '-' names an option, unless
    it is '-' alone, a negative integer or holds a space (as an expression
    such as '-q + s[1]' does)."""
    return token[:1] == "-" and not token[1:].isdecimal() and " " not in token and token != "-"


def _value(option: tuple, text: str) -> object:
    flag, _, kind, _, _ = option
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"{flag} expects an integer, got {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise UsageError(f"{flag} expects one of {', '.join(kind)}, got {text!r}")
    return text


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv by COMMANDS into the namespace its command's run function
    takes; -h or --help gives one whose run prints the usage instead."""
    names = ", ".join(COMMANDS)
    if not argv:
        raise UsageError(f"no command given; the commands are {names}")
    if argv[0] in HELP:
        return SimpleNamespace(run=run_help, text=usage())
    name, rest = argv[0], argv[1:]
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}; the commands are {names}")
    run, _, positional, options = COMMANDS[name]
    by_flag = {option[0]: option for option in options}
    ns = SimpleNamespace(run=run, **{attr: default for _, attr, _, default, _ in options})
    arguments = []
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token == "--":
            arguments += rest[i:]
            break
        if not _is_option(token):
            arguments.append(token)
            continue
        if token in HELP:
            return SimpleNamespace(run=run_help, text=usage(name))
        flag, eq, text = token.partition("=")
        if flag not in by_flag:
            raise UsageError(f"{name} has no option {flag}")
        if not eq:
            if i == len(rest) or _is_option(rest[i]):
                raise UsageError(f"{flag} expects a value")
            text = rest[i]
            i += 1
        setattr(ns, by_flag[flag][1], _value(by_flag[flag], text))
    missing = [flag for flag, attr, *_ in options if getattr(ns, attr) is REQUIRED]
    if missing:
        raise UsageError(f"{name} needs {', '.join(missing)}")
    if positional is None:
        if arguments:
            raise UsageError(f"{name} takes no argument {arguments[0]!r}")
    elif len(arguments) != 1:
        raise UsageError(f"{name} takes one {positional[0]}, got {len(arguments)} arguments")
    else:
        setattr(ns, positional[0], arguments[0])
    return ns


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
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
