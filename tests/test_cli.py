"""End-to-end tests of the command-line interface, run in process (the
closed-pipe tests alone run the command as a subprocess)."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from math import comb
from pathlib import Path
from time import perf_counter

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablemoduli
from stablemoduli.cli import MAX_TRUNCATION, _json_text, main
from stablemoduli.dataset import dataset_text
from stablemoduli.exprlang import MAX_EXPR_WEIGHT, MAX_MONOMIALS, MAX_NESTING, MAX_SIZE

from strategies import json_values

HEADLINE = "q^7 + 5q^6 + 16q^5 + 29q^4 + 29q^3 + 16q^2 + 5q + 1"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def slot_schema():
    text = (
        resources.files("stablemoduli") / "data" / "slot_report.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


# -- compute ---------------------------------------------------------------------


def test_compute_headline_text(capsys):
    rc, out, err = run(capsys, "compute", "--g", "3", "--n", "1")
    assert rc == 0 and err == ""
    assert out == (
        "slot M[3,1]: lambda = 5, dim = 7\n"
        f"schur: s[1] * ({HEADLINE})\n"
        f"rank: {HEADLINE}\n"
        "hodge: h^{k,k} = 1, 5, 16, 29, 29, 16, 5, 1\n"
        "duality: ok\n"
    )


def test_compute_json(capsys):
    rc, out, _ = run(capsys, "compute", "--g", "1", "--n", "1", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {
        "g": 1,
        "n": 1,
        "lambda": 1,
        "dim": 1,
        "schur": [{"partition": [1], "coeff_q": [1, 1]}],
        "rank_q": [1, 1],
        "duality": True,
    }
    jsonschema.validate(obj, slot_schema())


def test_compute_latex(capsys):
    rc, out, _ = run(capsys, "compute", "--g", "0", "--n", "4", "--format", "latex")
    assert rc == 0
    assert out == "\\overline{M}_{0,4}:\\quad qs_{4}+s_{4}\n"


def test_compute_smaller_truncation(capsys):
    rc, out, err = run(capsys, "compute", "--g", "0", "--n", "4", "--truncation", "2")
    assert rc == 0
    assert "rank: q + 1" in out
    # inputs beyond the truncation are not reported missing
    assert err == ""


def test_compute_withhold_gives_boundary_part(capsys):
    rc, out, err = run(capsys, "compute", "--g", "3", "--n", "1", "--withhold", "3,1")
    assert rc == 0
    assert "rank: 3q^6 + 15q^5 + 29q^4 + 29q^3 + 16q^2 + 4q" in out
    assert "warning: no table entry for M[3,1]; it contributes zero" in err
    assert "duality: FAIL" in out


# -- table -----------------------------------------------------------------------


def test_table_json_has_all_slots_and_validates(capsys):
    rc, out, _ = run(capsys, "table", "--format", "json")
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 14
    schema = slot_schema()
    for obj in reports:
        jsonschema.validate(obj, schema)
    assert [(r["g"], r["n"]) for r in reports[:4]] == [(0, 3), (1, 1), (0, 4), (1, 2)]
    assert all(r["duality"] for r in reports)


def test_table_text_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "table")
    rc2, out2, _ = run(capsys, "table")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.count("slot M[") == 14


# -- verify ----------------------------------------------------------------------


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all 9 checks passed"
    assert all(line.endswith("-> pass") for line in lines[:-1])
    assert f"check rank M[3,1]: expected {HEADLINE}; actual {HEADLINE} -> pass" in lines


def test_verify_literal_mode_demonstrates_failure(capsys):
    rc, out, _ = run(capsys, "verify", "--delta-mode", "literal")
    assert rc == 5
    assert out.startswith("note: literal gluing mode")
    assert "checks failed" in out.strip().splitlines()[-1]
    # the misplaced boundary shows up already in the smallest slots
    assert "check rank M[1,1]: expected q + 1; actual q -> FAIL" in out


def test_verify_small_truncation_subset(capsys):
    rc, out, _ = run(capsys, "verify", "--truncation", "3")
    assert rc == 0
    # rank checks for slots beyond lambda^3 are skipped, as is the
    # withheld-entry check; the suite shrinks accordingly
    assert "M[3,1]" not in out
    assert out.strip().splitlines()[-1] == "all 6 checks passed"


@pytest.mark.parametrize(
    "truncation, left_out",
    [
        ("6", "M[0,8], M[1,6], M[2,4], M[3,2]"),
        ("7", "M[0,8], M[1,6], M[2,4], M[3,2], M[0,9], M[1,7], M[2,5], M[3,3], M[4,1]"),
    ],
)
def test_verify_leaves_out_slots_whose_rows_are_missing(capsys, truncation, left_out):
    # The shipped table stops at lambda^5: slots past it lack rows they need.
    rc, out, _ = run(capsys, "verify", "--truncation", truncation)
    assert rc == 0
    notes = [line for line in out.splitlines() if line.startswith("note:")]
    assert notes == [
        f"note: {left_out} lack table rows they need and are left out of "
        "the functional-equation check"
    ]
    assert out.strip().splitlines()[-1] == "all 9 checks passed"


def test_verify_still_fails_a_broken_row_of_a_complete_slot(tmp_path, capsys):
    doc = tmp_path / "broken.dat"
    doc.write_text(
        dataset_text().replace("M[0,4] = q*s[4] - s[2,2]", "M[0,4] = q^2*s[4] - s[2,2]"),
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "verify", "--input", str(doc))
    assert rc == 5
    assert "note:" not in out
    failing = [line for line in out.splitlines() if "on all slots" in line]
    assert len(failing) == 1 and "M[0,4]" in failing[0] and failing[0].endswith("-> FAIL")


def _verify_lines(ranks, schur04, scan, verdict):
    """verify's check lines on the shipped shape: the five ranks, the
    withheld correction if given, the M[0,4] line, the scan and the round
    trip, then the verdict."""
    lines = [
        f"check rank M[{g},{n}]: expected {expected}; actual {actual} -> "
        + ("pass" if expected == actual else "FAIL")
        for (g, n, expected), actual in zip(
            [
                (1, 1, "q + 1"),
                (0, 4, "q + 1"),
                (0, 5, "q^2 + 5q + 1"),
                (0, 6, "q^3 + 16q^2 + 16q + 1"),
                (3, 1, HEADLINE),
            ],
            ranks,
        )
    ]
    return lines + [
        f"check schur M[0,4]: expected s[4] * (q + 1); actual {schur04} -> FAIL",
        "check functional equation, integrality and positivity on all slots: "
        f"expected all slots pass; actual {scan}",
        "check table render/parse round trip: expected fixed point; actual fixed point -> pass",
        verdict,
    ]


def test_verify_of_an_empty_table_reads_every_rank_as_zero(capsys):
    rc, out, err = run(capsys, "verify", "--input", os.devnull)
    assert rc == 5 and err == ""
    slots = "M[0,3], M[1,1], M[0,4], M[1,2], M[0,5], M[1,3], M[2,1], M[0,6], M[1,4], M[2,2], M[0,7], M[1,5], M[2,3], M[3,1]"
    assert out.splitlines() == [
        f"note: {slots} lack table rows they need and are left out of the "
        "functional-equation check",
        *_verify_lines(["0"] * 5, "0", "no slot checked -> FAIL", "7 of 8 checks failed"),
    ]


def test_verify_names_the_slots_of_a_self_dual_but_negative_row(tmp_path, capsys):
    # The s[3,1] term is self-dual at dimension 1, so only positivity fails,
    # in every slot that the M[0,4] row reaches.
    doc = tmp_path / "negative.dat"
    doc.write_text(
        dataset_text().replace(
            "M[0,4] = q*s[4] - s[2,2]", "M[0,4] = q*s[4] - s[2,2] - (q + 1)*s[3,1]"
        ),
        encoding="utf-8",
    )
    rc, out, err = run(capsys, "verify", "--input", str(doc))
    assert rc == 5 and err == ""
    lines = _verify_lines(
        [
            "q + 1",
            "-2q - 2",
            "q^2 - 25q - 29",
            "q^3 + 46q^2 - 59q - 104",
            "q^7 + 5q^6 + 14q^5 + 14q^4 - 12q^3 - 18q^2 + 13q + 11",
        ],
        "s[4] * (q + 1); s[3,1] * (-q - 1)",
        "failing: M[0,4], M[1,2], M[0,5], M[1,3], M[2,1], M[0,6], M[1,4], M[2,2], "
        "M[0,7], M[1,5], M[2,3], M[3,1] -> FAIL",
        "7 of 9 checks failed",
    )
    lines.insert(
        5,
        "check boundary correction M[3,1] with its entry withheld: expected "
        "3q^6 + 15q^5 + 29q^4 + 29q^3 + 16q^2 + 4q; actual "
        "3q^6 + 13q^5 + 14q^4 - 12q^3 - 18q^2 + 12q + 10 -> FAIL",
    )
    assert out.splitlines() == lines


@pytest.mark.parametrize(
    "rows, witness",
    [
        ("M[0,3] = s[3]\nM[1,1] = (q + u)*s[1]\n", "u^1*v^0"),
        ("M[0,3] = s[3]\nM[1,1] = q*s[1]\nM[2,1] = (q^4 + v^2*q)*s[1]\n", "u^1*v^3"),
    ],
)
def test_verify_of_an_off_diagonal_table_is_refused(tmp_path, capsys, rows, witness):
    doc = tmp_path / "skew.dat"
    doc.write_text(rows, encoding="utf-8")
    rc, out, err = run(capsys, "verify", "--input", str(doc))
    assert rc == 4
    assert out.startswith("note: ") and "check " not in out
    # the message names the refused row, the last of each document
    row = rows.splitlines()[-1].split(" = ")[0]
    assert err == f"error: {row}: off-diagonal term {witness}\n"


# -- expr and inputs ---------------------------------------------------------------


def test_expr_text(capsys):
    rc, out, _ = run(capsys, "expr", "h[2]")
    assert rc == 0
    assert out == "λ^0 * (1/2) * p[2]\nλ^0 * (1/2) * p[1,1]\n"


def test_expr_json(capsys):
    rc, out, _ = run(capsys, "expr", "q*s[2,1]", "--format", "json")
    assert rc == 0
    assert json.loads(out) == [
        {"lambda": 0, "p": [3], "coeff": {"u^1 v^1": "-1/3"}},
        {"lambda": 0, "p": [1, 1, 1], "coeff": {"u^1 v^1": "1/3"}},
    ]


def test_inputs(capsys):
    rc, out, _ = run(capsys, "inputs", "--g", "1", "--n", "2")
    assert rc == 0
    assert out == "M[0,3]\nM[0,4]\nM[1,1]\nM[1,2]\n"
    rc, out, _ = run(capsys, "inputs", "--g", "3", "--n", "1")
    assert out.count("M[") == 14
    assert "(missing from dataset)" not in out


@pytest.mark.parametrize("g, n", [(99999, 1), (0, 99999999), (6, 3), (0, 15)])
def test_inputs_refuses_a_slot_past_the_truncation_cap(capsys, g, n):
    # the list of inputs grows as g^2; it would not end for g = 99999
    start = perf_counter()
    rc, out, err = run(capsys, "inputs", "--g", str(g), "--n", str(n))
    assert perf_counter() - start < 5
    assert rc == 4 and out == ""
    lam = 2 * g - 2 + n
    assert err == f"error: slot ({g}, {n}) sits at lambda^{lam}, past the cap {MAX_TRUNCATION}\n"


def test_inputs_lists_a_slot_at_the_truncation_cap(capsys):
    rc, out, err = run(capsys, "inputs", "--g", "5", "--n", "3")
    assert rc == 0 and err == ""
    assert out.startswith("M[0,3]") and out.count("M[") == 46


def test_inputs_missing_annotation(tmp_path, capsys):
    doc = tmp_path / "tiny.dat"
    doc.write_text("M[0,3] = s[3]\n", encoding="utf-8")
    rc, out, _ = run(capsys, "inputs", "--g", "1", "--n", "1", "--input", str(doc))
    assert rc == 0
    assert out == "M[0,3]\nM[1,1]  (missing from dataset)\n"


# -- the JSON writer -----------------------------------------------------------------


@given(json_values())
@settings(max_examples=300, deadline=None)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"k": (1, 2)}, {1: 2}, b"x", {"k": {1, 2}}])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


def _is_json_dumps_text(out: str) -> bool:
    """The stdout of a JSON command is json.dumps(indent=2) of the value it
    holds, with print's newline."""
    return out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("mode", ["graded", "literal"])
@pytest.mark.parametrize("truncation", range(8))
def test_table_json_is_byte_identical_to_json_dumps(capsys, truncation, mode):
    rc, out, _ = run(
        capsys, "table", "--truncation", str(truncation), "--format", "json", "--delta-mode", mode
    )
    assert rc == 0 and _is_json_dumps_text(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--g", "3", "--n", "1", "--format", "json"],
        ["expr", "q*s[2,1]", "--format", "json"],
    ],
)
def test_compute_and_expr_json_are_byte_identical_to_json_dumps(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and _is_json_dumps_text(out)


# -- alternate input files -----------------------------------------------------------


def test_input_override(tmp_path, capsys):
    doc = tmp_path / "tiny.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = q*s[1]\n", encoding="utf-8")
    rc, out, err = run(
        capsys, "compute", "--g", "1", "--n", "1", "--truncation", "1",
        "--input", str(doc),
    )
    assert rc == 0
    assert "rank: q + 1" in out
    assert err == ""


def test_input_equals_embedded_dataset(tmp_path, capsys):
    doc = tmp_path / "copy.dat"
    doc.write_text(dataset_text(), encoding="utf-8")
    rc1, out1, _ = run(capsys, "compute", "--g", "2", "--n", "1", "--input", str(doc))
    rc2, out2, _ = run(capsys, "compute", "--g", "2", "--n", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2


# -- option syntax and help ------------------------------------------------------------


def test_help_names_every_command(capsys):
    for flag in ("--help", "-h"):
        rc, out, err = run(capsys, flag)
        assert rc == 0 and err == ""
        assert out.startswith("usage: stablemoduli <command>")
        for command in ("compute", "table", "verify", "expr", "inputs"):
            assert f"\n  {command} " in out


def test_command_help_names_each_option_with_its_default_and_choices(capsys):
    rc, out, err = run(capsys, "table", "--help")
    assert rc == 0 and err == ""
    assert out.startswith("usage: stablemoduli table ")
    assert run(capsys, "table", "--truncation", "3", "-h")[:2] == (0, out)
    lines = out.splitlines()

    def line_of(flag):
        (line,) = [line for line in lines if line.startswith(f"  {flag} ")]
        return line

    assert "(default 5)" in line_of("--truncation")
    assert "{graded,literal}" in line_of("--delta-mode")
    assert "(default graded)" in line_of("--delta-mode")
    assert "{text,json,latex}" in line_of("--format")
    assert "(default text)" in line_of("--format")
    assert line_of("--input") and line_of("--withhold")
    rc, out, _ = run(capsys, "compute", "-h")
    assert rc == 0
    assert "(required)" in [line for line in out.splitlines() if "--g INT" in line][0]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command given"),
        (["nosuch"], "unknown command 'nosuch'"),
        (["compute", "--g", "3"], "compute needs --n"),
        (["expr"], "expr takes one expression, got 0"),
        (["expr", "s[1]", "s[2]"], "expr takes one expression, got 2"),
        (["table", "--truncation"], "--truncation expects a value"),
        (["table", "--truncation", "--format", "json"], "--truncation expects a value"),
        (["table", "--truncation", "five"], "--truncation expects an integer"),
        (["table", "--format", "xml"], "--format expects one of text, json, latex"),
        (["table", "--trunc", "3"], "table has no option --trunc"),
        (["table", "3"], "table takes no argument '3'"),
    ],
)
def test_usage_errors_return_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_option_syntax(capsys):
    _, spaced, _ = run(capsys, "compute", "--g", "1", "--n", "1", "--format", "json")
    # --name=value, and the last of a repeated option wins
    rc, joined, _ = run(capsys, "compute", "--g=1", "--n=1", "--format=latex", "--format=json")
    assert rc == 0 and joined == spaced
    # a negative integer is a value, not an option
    rc, _, err = run(capsys, "inputs", "--g", "-1", "--n", "3")
    assert rc == 4 and "(-1, 3) is not a stable slot" in err
    # -- ends the options; an expression with a space is an argument as it is
    for argv in (["--", "-q*s[1]"], ["--format", "text", "--", "-q*s[1]"], ["-q * s[1]"]):
        rc, out, _ = run(capsys, "expr", *argv)
        assert (rc, out) == (0, "λ^0 * (-q) * p[1]\n")
    rc, out, _ = run(capsys, "expr", "--", "--help")
    assert rc == 3 and out == ""


# -- failure modes -------------------------------------------------------------------


def test_bad_withhold_is_usage_error(capsys):
    # A superscript two is a digit to str.isdigit, but not to int.
    for withhold in ("3", "²,1"):
        rc, _, err = run(capsys, "compute", "--g", "1", "--n", "1", "--withhold", withhold)
        assert rc == 2
        assert "--withhold expects 'g,n'" in err


@pytest.mark.parametrize(
    "argv",
    [["compute", "--g", "1", "--n", "1"], ["table"], ["verify"]],
)
def test_negative_truncation_is_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv, "--truncation", "-1")
    assert rc == 2
    assert out == ""
    assert "--truncation must be nonnegative, got -1" in err


@pytest.mark.parametrize(
    "argv",
    [["compute", "--g", "1", "--n", "1"], ["table"], ["verify"]],
)
def test_truncation_past_the_cap_is_refused_before_any_work(tmp_path, capsys, argv):
    # A table file that fails to parse shows that the cap is checked first.
    doc = tmp_path / "bad.dat"
    doc.write_text("M[0,3] = s[2]\n", encoding="utf-8")
    for extra in ([], ["--input", str(doc)]):
        start = perf_counter()
        rc, out, err = run(capsys, *argv, "--truncation", "30", *extra)
        assert perf_counter() - start < 0.5
        assert rc == 4
        assert out == ""
        assert f"--truncation 30 is past the cap {MAX_TRUNCATION}" in err


def test_compute_accepts_the_truncation_cap_and_refuses_one_more(tmp_path, capsys):
    doc = tmp_path / "tiny.dat"
    doc.write_text("M[0,3] = s[3]\n", encoding="utf-8")
    argv = ["compute", "--g", "0", "--n", "3", "--input", str(doc), "--truncation"]
    assert MAX_TRUNCATION >= 9
    rc, out, _ = run(capsys, *argv, str(MAX_TRUNCATION))
    assert rc == 0
    assert "rank: 1\n" in out
    rc, out, err = run(capsys, *argv, str(MAX_TRUNCATION + 1))
    assert rc == 4
    assert out == ""
    assert f"--truncation {MAX_TRUNCATION + 1} is past the cap {MAX_TRUNCATION}" in err


def cli_argv(*args):
    return [sys.executable, "-m", "stablemoduli.cli", *args]


def cli_env(unbuffered):
    src = str(Path(stablemoduli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_quietly_with_exit_0(unbuffered):
    # The output (about 99 kB) is larger than a pipe holds, so the command is
    # still writing when the reader closes the pipe after one line.
    with subprocess.Popen(
        cli_argv("expr", "--format", "json", "h[20]"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=cli_env(unbuffered),
    ) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_stdout_closed_before_a_short_output_ends_quietly_with_exit_0(unbuffered):
    # Block-buffered, a short output is written only when stdout is flushed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            cli_argv("expr", "s[2]"), stdout=write_end, stderr=subprocess.PIPE,
            env=cli_env(unbuffered), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def modules_added_by_import(*flags):
    """The modules a fresh interpreter, started with flags, loads to import
    the package and its command line."""
    code = (
        "import sys; before = set(sys.modules); import stablemoduli, stablemoduli.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=cli_env(""),
        timeout=60, check=True,
    )
    return set(proc.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each op and each command pays for the import; building dataclasses,
    # with inspect behind them, was about half of it.
    added = modules_added_by_import()
    assert "stablemoduli.exprlang" in added
    assert not added & {"dataclasses", "inspect"}


def test_command_line_loads_no_argparse_gettext_or_locale():
    # argparse imports gettext, and its first message imports locale: about
    # 3 ms of every run before any argument is read.  Without -S, a .pth file
    # of the site packages may load these first, and the test could not fail.
    assert not modules_added_by_import("-S") & {"argparse", "gettext"}
    code = (
        "import sys; before = set(sys.modules); from stablemoduli.cli import main; "
        "main(['inputs', '--g', '0', '--n', '3']); print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=cli_env(""),
        timeout=60, check=True,
    )
    first, added = proc.stdout.splitlines()
    assert first == "M[0,3]"
    assert "stablemoduli.cli" in added.split()
    assert not set(added.split()) & {"argparse", "gettext", "locale"}


def test_import_loads_no_resource_or_archive_modules():
    # Without -S, a .pth file of the site packages may load these before the
    # import, and the test could not fail.
    added = modules_added_by_import("-S")
    assert "stablemoduli.dataset" in added
    assert not added & {"importlib.resources", "tempfile", "shutil", "bz2", "lzma", "random"}


def test_missing_input_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "compute", "--g", "1", "--n", "1", "--input", "/no/such/file")
    assert rc == 2
    assert "cannot read dataset file" in err


def test_bad_expression_is_parse_error(capsys):
    rc, _, err = run(capsys, "expr", "s[1,2]")
    assert rc == 3
    assert "error: 1:" in err  # parse errors carry line:col


@pytest.mark.parametrize("text", ["2^100000", "2^99999999"])
def test_expression_too_long_to_print_is_refused_before_evaluation(capsys, text):
    start = perf_counter()
    rc, out, err = run(capsys, "expr", text)
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert f"past the {sys.get_int_max_str_digits()}-digit limit" in err


def test_long_but_printable_expressions_still_evaluate(capsys):
    rc, out, _ = run(capsys, "expr", "2^1000")
    assert rc == 0
    assert out == f"λ^0 * ({2**1000}) * p[]\n"
    rc, out, _ = run(capsys, "expr", "(1+q)^1000")
    assert rc == 0
    terms = ["1", "1000*q"] + [f"{comb(1000, k)}*q^{k}" for k in range(2, 1000)] + ["q^1000"]
    assert out == f"λ^0 * ({' + '.join(terms)}) * p[]\n"


@pytest.mark.parametrize("text", ["s[5]^100", f"p[{MAX_EXPR_WEIGHT + 1}]", "s[27,27]^0"])
def test_expression_past_the_weight_cap_is_refused_before_evaluation(capsys, text):
    start = perf_counter()
    rc, out, err = run(capsys, "expr", text)
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert f"past the limit of {MAX_EXPR_WEIGHT}" in err


def test_expressions_of_the_tests_and_the_shipped_table_are_within_the_weight_cap(capsys):
    rows = [line.split("=", 1)[1] for line in dataset_text().splitlines() if line.startswith("M[")]
    assert len(rows) == 14
    accepted = rows + [
        "h[2]", "q*s[2,1]", "2^1000", "(1+q)^1000", "2*3^2", "7 - 2 - 2", "(q+1)^2", "-2",
        f"p[{MAX_EXPR_WEIGHT}]",
    ]
    for text in accepted:
        rc, out, err = run(capsys, "expr", text)
        assert rc == 0, (text, err)
        assert out


@pytest.mark.parametrize("mu", [(1,) * 20, (2,) * 15])
def test_tall_schur_shapes_evaluate_within_seconds(capsys, mu):
    start = perf_counter()
    rc, out, err = run(capsys, "expr", f"s[{','.join(map(str, mu))}]")
    assert perf_counter() - start < 5
    assert rc == 0 and err == ""
    assert out.startswith("λ^0 * (")


def test_table_row_past_the_weight_cap_is_refused_before_evaluation(tmp_path, capsys):
    doc = tmp_path / "big.dat"
    doc.write_text("M[0,3] = s[3]\nM[0,40] = s[40]\n", encoding="utf-8")
    start = perf_counter()
    rc, out, err = run(capsys, "inputs", "--g", "0", "--n", "40", "--input", str(doc))
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert f"error: line 2: weight may reach 40, past the limit of {MAX_EXPR_WEIGHT}" in err


def test_table_row_with_a_zeroth_power_is_held_to_the_weight_of_its_base(tmp_path, capsys):
    # x^0 is 1, but x is still evaluated; s[27,27] has weight 54
    doc = tmp_path / "zeroth.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = s[27,27]^0*s[1]\n", encoding="utf-8")
    start = perf_counter()
    rc, out, err = run(capsys, "table", "--input", str(doc))
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert f"error: line 2: weight may reach 55, past the limit of {MAX_EXPR_WEIGHT}" in err


def test_power_of_u_times_v_is_a_power_of_q(capsys):
    rc, out, err = run(capsys, "expr", "(u*v)^300")
    assert rc == 0 and err == ""
    assert out == "λ^0 * (q^300) * p[]\n"
    assert run(capsys, "expr", "q^300") == (0, out, "")


def test_table_row_too_long_to_print_is_refused_before_evaluation(tmp_path, capsys):
    doc = tmp_path / "long.dat"
    doc.write_text("M[0,3] = 2^99999999*s[3]\n", encoding="utf-8")
    rc, out, err = run(capsys, "table", "--input", str(doc))
    assert rc == 4
    assert out == ""
    assert "error: line 1: coefficients may run to" in err


def test_table_row_past_the_monomial_cap_is_refused_before_evaluation(tmp_path, capsys):
    doc = tmp_path / "deep.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = (1 + q^999999999)*s[1]\n", encoding="utf-8")
    start = perf_counter()
    rc, out, err = run(capsys, "table", "--input", str(doc))
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert (
        f"error: line 2: a coefficient may hold 1000000000 monomials in u and v, "
        f"past the limit of {MAX_MONOMIALS}"
    ) in err


@pytest.mark.parametrize("text", ["(q+u+v+1)^100", "((q+u+v+1)^100)^0"])
def test_expression_past_the_monomial_cap_is_refused_before_evaluation(capsys, text):
    start = perf_counter()
    rc, out, err = run(capsys, "expr", text)
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert f"a coefficient may hold 10201 monomials in u and v, past the limit of {MAX_MONOMIALS}" in err


def test_table_row_of_many_monomials_is_refused_with_its_line(tmp_path, capsys):
    doc = tmp_path / "wide.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = (q+u+v+1)^100*s[1]\n", encoding="utf-8")
    start = perf_counter()
    rc, out, err = run(capsys, "table", "--input", str(doc))
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert "error: line 2: a coefficient may hold 10201 monomials" in err


@pytest.mark.parametrize(
    "text,cells", [("q^999999999", "1000000000"), ("(u+v)^99", "19900"), ("q^" + "9" * 30, "about 10^30")]
)
def test_expression_past_the_cell_cap_is_refused_before_evaluation(capsys, text, cells):
    # few monomials, but too many cells for the packed kernel
    start = perf_counter()
    rc, out, err = run(capsys, "expr", text)
    assert perf_counter() - start < 0.5
    assert rc == 4
    assert out == ""
    assert f"a coefficient may spread over {cells} cells" in err


@pytest.mark.parametrize("text", ["(1+q)^1000*h[30]", "(1+q)^1000*h[20]", "(1+q)^30*s[30]"])
def test_expression_past_the_size_cap_is_refused_before_evaluation(capsys, text):
    # each cap holds, but terms times monomials times digits is too large:
    # (1+q)^1000*h[20] took 5.7 s to evaluate and printed 141 MB
    start = perf_counter()
    rc, out, err = run(capsys, "expr", text)
    assert perf_counter() - start < 1
    assert rc == 4
    assert out == ""
    assert f"terms times monomials times digits, past the limit of {MAX_SIZE}" in err


def test_table_row_past_the_size_cap_is_refused_with_its_line(tmp_path, capsys):
    doc = tmp_path / "large.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = (1+q)^1000*h[1] + (1+q)^1000*h[30]\n", encoding="utf-8")
    start = perf_counter()
    rc, out, err = run(capsys, "table", "--input", str(doc))
    assert perf_counter() - start < 1
    assert rc == 4
    assert out == ""
    assert "error: line 2: the value may reach" in err


def test_homogeneous_expression_within_the_caps_evaluates(capsys):
    rc, out, err = run(capsys, "expr", "(u+v)^32")
    assert rc == 0 and err == ""
    assert out.startswith("λ^0 * (v^32 + 32*u*v^31 + 496*u^2*v^30 + ")
    assert out.count(" + ") == 32


def test_table_row_too_wide_for_the_pipeline_is_refused(tmp_path, capsys):
    doc = tmp_path / "skew.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = u^999999999*s[1]\n", encoding="utf-8")
    rc, out, err = run(capsys, "table", "--input", str(doc))
    assert rc == 4
    assert out == ""
    assert "a coefficient would spread over 9999999991 cells" in err


@pytest.mark.parametrize("argv", [["table"], ["table", "--format", "json"], ["verify"]])
def test_output_coefficient_too_long_to_print_is_refused(tmp_path, capsys, argv):
    # A row of about 1860 digits, within the limit, glues into a rank of
    # M[3,1] past it.
    doc = tmp_path / "long.dat"
    doc.write_text("M[0,3] = s[3]\nM[1,1] = (q+10^1860)*s[1]\n", encoding="utf-8")
    rc, out, err = run(capsys, *argv, "--input", str(doc))
    assert rc == 4
    assert "error: the rank of M[3,1] may run to" in err
    assert "-digit limit for printing an integer" in err


def test_bound_too_long_to_print_is_shown_by_its_magnitude(capsys):
    # the weight bound 2 * (10^limit - 1) is one digit past the limit for printing
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "expr", f"s[2]^{'9' * limit}")
    assert rc == 4
    assert out == ""
    assert f"error: weight may reach about 10^{limit}, past the limit of {MAX_EXPR_WEIGHT}" in err


def test_sum_of_a_thousand_terms_evaluates(capsys):
    rc, out, err = run(capsys, "expr", "+".join(["q"] * 1000))
    assert (rc, out, err) == (0, "λ^0 * (1000*q) * p[]\n", "")


def test_deep_parentheses_are_parse_error(capsys):
    rc, out, err = run(capsys, "expr", "(" * 300 + "q" + ")" * 300)
    assert rc == 3 and out == ""
    assert (
        f"error: 1:{MAX_NESTING + 1}: parentheses and unary minus nest deeper "
        f"than {MAX_NESTING} levels" in err
    )


def test_table_row_of_thousands_of_terms_reads_as_its_sum(tmp_path, capsys):
    long, short = tmp_path / "long.dat", tmp_path / "short.dat"
    long.write_text("M[0,3] = s[3]" + "+0" * 3000 + "\n", encoding="utf-8")
    short.write_text("M[0,3] = s[3]\n", encoding="utf-8")
    argv = ("table", "--truncation", "1", "--format", "json", "--input")
    rc, out, err = run(capsys, *argv, str(long))
    assert rc == 0 and '"partition": [\n          3\n        ]' in out
    assert (rc, out, err) == run(capsys, *argv, str(short))


def test_overlong_integer_literal_is_parse_error(capsys):
    rc, _, err = run(capsys, "expr", "1" * (sys.get_int_max_str_digits() + 1))
    assert rc == 3
    assert "error: 1:1: integer literal" in err


def test_bad_table_file_is_parse_error(tmp_path, capsys):
    doc = tmp_path / "bad.dat"
    doc.write_text("M[0,3] = s[2]\n", encoding="utf-8")
    rc, _, err = run(capsys, "table", "--input", str(doc))
    assert rc == 3
    assert "must be homogeneous of weight 3" in err


@pytest.mark.parametrize(
    "command",
    [["table"], ["verify"], ["compute", "--g", "0", "--n", "3"], ["inputs", "--g", "0", "--n", "3"]],
)
def test_table_file_not_in_utf8_is_parse_error(tmp_path, capsys, command):
    doc = tmp_path / "bad.txt"
    doc.write_bytes(b"M[0,3] = \xff\xfe\n")
    rc, out, err = run(capsys, *command, "--input", str(doc))
    assert rc == 3
    assert out == ""
    assert f"error: {doc}: not valid UTF-8" in err


def test_slot_beyond_truncation_is_precondition_error(capsys):
    rc, _, err = run(capsys, "compute", "--g", "3", "--n", "1", "--truncation", "2")
    assert rc == 4
    assert "beyond truncation 2" in err


def test_withholding_absent_entry_is_precondition_error(tmp_path, capsys):
    doc = tmp_path / "tiny.dat"
    doc.write_text("M[0,3] = s[3]\n", encoding="utf-8")
    rc, _, err = run(
        capsys, "compute", "--g", "0", "--n", "3", "--truncation", "1",
        "--input", str(doc), "--withhold", "1,1",
    )
    assert rc == 4
    assert "no table entry (1, 1) to withhold" in err


# -- fuzzing -------------------------------------------------------------------------

# Short expressions of at most six atoms: mostly well formed, with huge
# exponents and literals, malformed partitions and stray characters mixed in.
_ints = st.sampled_from(["0", "1", "2", "7", "31", "999999999", "1" + "0" * 30, "-1"])
_parts = st.lists(st.sampled_from(["1", "2", "3", "5", "40", "0", "-1", "", "x"]), max_size=5)
_coeff_atoms = st.one_of(st.sampled_from(["q", "u", "v"]), _ints)
_atoms = st.one_of(
    _coeff_atoms,
    st.tuples(st.sampled_from("shp"), _parts).map(lambda t: f"{t[0]}[{','.join(t[1])}]"),
    st.sampled_from(["λ", "²", "x", "s", "s[]", "s[3,", "(", ")", "%", "1/2"]),
)
_powers = st.sampled_from(
    ["", "", "", "^0", "^2", "^7", "^31", "^999999999", "^" + "9" * 30, "^-1"]
)


def _exprs_of(atoms):
    factor = st.tuples(
        st.sampled_from(["{}", "{}", "{}", "-{}", "({})", "({})^2", "-({})", "({}"]),
        atoms,
        _powers,
    ).map(lambda t: t[0].format(t[1] + t[2]))
    ops = st.sampled_from(["+", "+", "-", "*", "*", " ", "**", "^"])
    return st.tuples(factor, st.lists(st.tuples(ops, factor), max_size=5)).map(
        lambda t: t[0] + "".join(op + f for op, f in t[1])
    )


_exprs_text = _exprs_of(_atoms)
_options = {
    "--truncation": ["-1", "0", "1", "2", "3", "5", "40", "x"],
    "--withhold": ["0,3", "1,1", "3,1", "a,b", "²,1"],
    "--delta-mode": ["graded", "literal", "literal", "other"],
    "--format": ["text", "json", "json", "latex", "xml"],
}
_accepts = {
    "expr": ["--format"],
    "table": list(_options),
    "compute": list(_options),
    "verify": ["--truncation", "--truncation", "--delta-mode"],
    "inputs": [],
}


@st.composite
def _argvs(draw):
    """argv for one command, and the table document it reads (or None); the
    test puts --input and the document's path right after the command."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], ["--help"], ["-h"], ["--"], ["nosuch"]])), None
    command = draw(st.sampled_from(list(_accepts)))
    options = []
    names = []
    if _accepts[command]:
        names = draw(st.lists(st.sampled_from(_accepts[command]), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        # unknown, a prefix of a known one, or help
        names.append(draw(st.sampled_from(["--bogus", "--trunc", "--form", "--help", "-h"])))
    for name in names:
        value = draw(st.sampled_from(_options.get(name, ["1"])))
        options += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if draw(st.integers(0, 9)) == 0:
        options.insert(draw(st.integers(0, len(options))), "--")
    if draw(st.integers(0, 9)) == 0:
        # an option with no value at the end
        options.append(draw(st.sampled_from(_accepts[command] or ["--g"])))
    if command == "expr":
        return ["expr", draw(_exprs_text), *options], None
    # A row of weight 1 in the Schur basis with a fuzzed coefficient, or a
    # fuzzed row of any shape.
    if draw(st.booleans()):
        coeff = draw(_exprs_of(_coeff_atoms))
        row = f"M[1,1] = ({coeff})*{draw(st.sampled_from(['s[1]', 'h[1]', 'p[1]']))}"
    else:
        row = f"M[{draw(st.sampled_from(['0,3', '0,4', '2,1']))}] = {draw(_exprs_text)}"
    doc = f"M[0,3] = s[3]\n{row}\n"
    slot = []
    if command in ("compute", "inputs"):
        g = draw(st.sampled_from(["0", "1", "2", "3", "-1"]))
        slot = ["--g", g, "--n", draw(st.sampled_from(["1", "3", "4", "0", "x"]))]
    return [command, *slot, *options], doc


@given(_argvs())
@settings(max_examples=300, deadline=None)
# u^31 at lambda^1 spreads the gluing recursion over 1866 cells of about 930
# bits each; it ran for about 40 s before it exited 4.
@example((["verify"], "M[0,3] = s[3]\nM[1,1] = (q+999999999^31+0^999999999 -(u^31)-0)*p[1]\n"))
# A row within the digit limit glues into a rank of M[3,1] past it.
@example((["table"], "M[0,3] = s[3]\nM[1,1] = (q+q+q+(1000000000000000000000000000000^31)^2)*s[1]\n"))
@example(([], None))
@example((["table", "--help"], None))
@example((["expr", "--", "-q*s[1]"], None))
@example((["table", "--trunc", "3"], None))
@example((["compute", "--g=3", "--n=1", "--truncation"], None))
# a slot past the truncation cap: its list of inputs would not end
@example((["inputs", "--g", "99999", "--n", "1"], None))
def test_fuzzed_command_lines_end_in_a_documented_exit_code(argv_doc):
    argv, doc = argv_doc
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            path = Path(tmp) / "fuzz.dat"
            path.write_text(doc, encoding="utf-8")
            argv = [argv[0], "--input", str(path), *argv[1:]]
        start = perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(argv)
        elapsed = perf_counter() - start
    assert rc in {0, 2, 3, 4, 5}, argv
    if rc == 4:
        assert elapsed < 5, argv
