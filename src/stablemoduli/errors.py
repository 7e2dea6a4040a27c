"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: expression/table input
problems exit 3, violated operation preconditions exit 4, and failed
verification checks exit 5.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class OffDiagonalError(PreconditionError):
    """A polynomial expected to live on the u = v diagonal has a stray term;
    row, if given, names where it was found (such as "M[1,1]")."""

    def __init__(self, i: int, j: int, row: str | None = None):
        prefix = "" if row is None else f"{row}: "
        super().__init__(f"{prefix}off-diagonal term u^{i}*v^{j}")
        self.exponents = (i, j)
        self.row = row


class ExprParseError(ValueError):
    """Syntax error in the expression language, with source position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TableFormatError(ValueError):
    """A moduli-table document is malformed (bad row, duplicate or unstable
    key, or an entry of the wrong homogeneous weight)."""
