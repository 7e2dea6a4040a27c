"""Byte-for-byte comparison of command output with committed golden files.

The files under ``tests/golden`` were written by the command line itself
(``stablemoduli table ...`` and ``stablemoduli verify ...`` with stdout
redirected), so any change to the arithmetic, the pipeline or the renderers
that alters a single character of the output shows up here.
"""

import hashlib
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


# Past L = 7 the outputs are pinned by their sha256 rather than by a file
# (108 KB at L = 10, 250 KB at L = 12), taken from the output of the
# dictionary-of-monomials arithmetic that preceded the packed kernel.  Their
# numerators reach 28 bits, where a width error would show.
DIGESTS = [
    ("07cfc5a0a6212bee09b62f490473235ad4f083edf116f88cabf1c0d37070c925", ["table", "--truncation", "10", "--format", "json"]),
    ("55830105f2629b9e188ce87a95d0c36e50e43d6ef36de1b986aa90964003a5d8", ["table", "--truncation", "10", "--delta-mode", "literal", "--format", "json"]),
    ("71de92fe7b3f6c21f8cb05800f9f675aa3aa61b8490fd11b96ab1d38cc28e26a", ["table", "--truncation", "12", "--format", "json"]),
]


@pytest.mark.parametrize("digest,argv", DIGESTS, ids=[" ".join(argv[1:]) for _, argv in DIGESTS])
def test_output_matches_pinned_digest(capsys, digest, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
