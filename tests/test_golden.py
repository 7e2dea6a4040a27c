"""Byte-for-byte comparison of command output with committed golden files.

The files under ``tests/golden`` were written by the command line itself
(``stablemoduli table ...`` and ``stablemoduli verify ...`` with stdout
redirected), so any change to the arithmetic, the pipeline or the renderers
that alters a single character of the output shows up here.
"""

from pathlib import Path

import pytest

from stablemoduli.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("table_L5_graded.json", 0, ["table", "--truncation", "5", "--format", "json"]),
    ("table_L5_literal.json", 0, ["table", "--truncation", "5", "--delta-mode", "literal", "--format", "json"]),
    ("table_L7_graded.json", 0, ["table", "--truncation", "7", "--format", "json"]),
    ("table_L7_literal.json", 0, ["table", "--truncation", "7", "--delta-mode", "literal", "--format", "json"]),
    ("table_L5_graded.txt", 0, ["table", "--truncation", "5"]),
    ("table_L5_graded.tex", 0, ["table", "--truncation", "5", "--format", "latex"]),
    ("verify_graded.txt", 0, ["verify"]),
    ("verify_literal.txt", 5, ["verify", "--delta-mode", "literal"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden_file(capsys, name, code, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == code
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
