"""The canonical dataset shipped with the package.

The data file is the single source of truth; it is read from beside this
module, where the installed package carries it verbatim.
"""

from __future__ import annotations

from pathlib import Path

from .exprlang import parse_table
from .pipeline import ModuliTable

DATASET_RESOURCE = "data/moduli_serre.dat"


def dataset_text() -> str:
    """The raw text of the shipped dataset file."""
    return (Path(__file__).parent / DATASET_RESOURCE).read_text(encoding="utf-8")


def embedded_dataset() -> ModuliTable:
    """The shipped table of open-moduli equivariant Serre polynomials."""
    return parse_table(dataset_text())
