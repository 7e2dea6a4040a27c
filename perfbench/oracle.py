"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports stablemoduli.  Polynomials in q are dicts mapping the
exponent to a nonzero coefficient, and symmetric functions of one weight are
dicts mapping a partition (a weakly decreasing tuple) to such a polynomial, so
a wrong answer from the program cannot share a cause with the check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

QPoly = dict[int, int]
SchurDict = dict[tuple[int, ...], QPoly]

HEADLINE_3_1: QPoly = {7: 1, 6: 5, 5: 16, 4: 29, 3: 29, 2: 16, 1: 5, 0: 1}
"""Serre polynomial of the moduli space of stable 1-pointed genus-3 curves,
the headline polynomial of the source paper (PAPER.md)."""

CLOSED_1_1: QPoly = {1: 1, 0: 1}
"""Stable 1-pointed genus-1 curves: the affine j-line plus one nodal curve."""


# -- q-polynomials ---------------------------------------------------------------


def qp_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + sign * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def qp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            s = out.get(ka + kb, 0) + ca * cb
            if s:
                out[ka + kb] = s
            else:
                del out[ka + kb]
    return out


def qp_scale(a: dict, c) -> dict:
    return {k: c * v for k, v in a.items()} if c else {}


def qp_from_list(coeffs: list) -> dict:
    """Coefficient list c0, c1, ... of a slot report; rationals arrive as
    "a/b" strings."""
    out = {}
    for k, c in enumerate(coeffs):
        value = Fraction(c) if isinstance(c, str) else c
        if value:
            out[k] = value
    return out


# -- partitions ------------------------------------------------------------------


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, largest part first, in reverse-lexicographic order."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def standard_tableaux(mu: tuple[int, ...]) -> int:
    """f^mu, the number of standard Young tableaux of shape mu, by the
    hook-length formula."""
    cols = [sum(1 for row in mu if row > j) for j in range(mu[0] if mu else 0)]
    hooks = 1
    for i, row in enumerate(mu):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return factorial(sum(mu)) // hooks


def rank_of(schur: SchurDict) -> dict:
    """Forget the symmetric-group action: sum over mu of c_mu * f^mu."""
    total: dict = {}
    for mu, coeff in schur.items():
        total = qp_add(total, qp_scale(coeff, standard_tableaux(mu)))
    return total


# -- genus zero ------------------------------------------------------------------


def open_genus0(m: int) -> QPoly:
    """Serre polynomial of m distinct labelled points on P^1 modulo
    projectivities: fix three at 0, 1, infinity; the others avoid the points
    already placed, giving the product of (q - j) for j = 2 .. m-2."""
    out: QPoly = {0: 1}
    for j in range(2, m - 1):
        out = qp_mul(out, {1: 1, 0: -j})
    return out


def closed_genus0_ranks(n_max: int, max_valence: int) -> dict[int, dict]:
    """Serre polynomials of the spaces of stable n-pointed genus-0 curves,
    n = 3 .. n_max, as the sum over dual trees of the product of the open
    polynomials at the vertices, counting only trees whose vertices all have
    valence at most max_valence.

    Rooting each tree at its leaf n, a branch is a leaf or a vertex of valence
    v carrying v-1 unordered branches, so the exponential generating function
    B(x) of branches satisfies B = x + sum_v open(v) B^(v-1) / (v-1)!, and the
    tree count with n leaves is (n-1)! [x^(n-1)] (B - x).  Solved by fixed-point
    iteration, each pass of which fixes one more coefficient.
    """
    deg = n_max - 1
    x = {1: {0: Fraction(1)}}

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for i, ca in a.items():
            for j, cb in b.items():
                if i + j <= deg:
                    out[i + j] = qp_add(out.get(i + j, {}), qp_mul(ca, cb))
        return {k: c for k, c in out.items() if c}

    branch = dict(x)
    for _ in range(deg):
        nxt = dict(x)
        power = dict(branch)  # branch^(v-1), starting at v = 2
        for v in range(3, max_valence + 1):
            power = mul(power, branch)
            weight = qp_scale(open_genus0(v), Fraction(1, factorial(v - 1)))
            for k, c in power.items():
                nxt[k] = qp_add(nxt.get(k, {}), qp_mul(weight, c))
        branch = {k: c for k, c in nxt.items() if c}
    out = {}
    for n in range(3, n_max + 1):
        poly = qp_scale(branch.get(n - 1, {}), factorial(n - 1))
        assert all(c.denominator == 1 for c in poly.values())
        out[n] = {k: int(c) for k, c in poly.items()}
    return out


# -- the table expression language, restricted to q and Schur atoms ---------------


class TextError(ValueError):
    pass


def parse_schur_text(text: str) -> SchurDict:
    """Read an expression over integers, q and Schur atoms s[...] with
    + - * ^ and parentheses into {partition: q-polynomial}.  Products of two
    Schur atoms, and the symbols u, v, h, p, are outside this reader."""
    tokens = _tokens(text)
    pos = 0

    def peek() -> str:
        return tokens[pos] if pos < len(tokens) else ""

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    # A value is (scalar q-polynomial, None) or (None, SchurDict).
    def expr():
        value = term()
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            value = _add(value, term(), sign)
        return value

    def term():
        value = factor()
        while peek() == "*":
            take()
            value = _mul(value, factor())
        return value

    def factor():
        if peek() == "-":
            take()
            return _add(({}, None), factor(), -1)
        base = atom()
        if peek() == "^":
            take()
            exponent = take()
            if not exponent.isdigit() or base[0] is None:
                raise TextError(f"bad power in {text!r}")
            out = {0: 1}
            for _ in range(int(exponent)):
                out = qp_mul(out, base[0])
            return (out, None)
        return base

    def atom():
        tok = take()
        if tok.isdigit():
            return ({0: int(tok)} if int(tok) else {}, None)
        if tok == "q":
            return ({1: 1}, None)
        if tok == "(":
            value = expr()
            if take() != ")":
                raise TextError(f"unbalanced parentheses in {text!r}")
            return value
        if tok.startswith("s["):
            mu = tuple(int(part) for part in tok[2:-1].split(","))
            return (None, {mu: {0: 1}})
        raise TextError(f"unexpected token {tok!r} in {text!r}")

    value = expr()
    if pos != len(tokens):
        raise TextError(f"trailing input in {text!r}")
    if value[1] is None:
        raise TextError(f"no Schur atom in {text!r}")
    return value[1]


def _tokens(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch == "s" and text[i + 1 : i + 2] == "[":
            j = text.index("]", i)
            out.append(text[i : j + 1].replace(" ", ""))
            i = j + 1
        elif ch in "q()+-*^":
            out.append(ch)
            i += 1
        else:
            raise TextError(f"unexpected character {ch!r} in {text!r}")
    return out


def _add(a, b, sign: int):
    if a[1] is None and b[1] is None:
        return (qp_add(a[0], b[0], sign), None)
    left = a[1] if a[1] is not None else _scalar_as_schur(a[0])
    right = b[1] if b[1] is not None else _scalar_as_schur(b[0])
    out = dict(left)
    for mu, c in right.items():
        s = qp_add(out.get(mu, {}), c, sign)
        if s:
            out[mu] = s
        else:
            out.pop(mu, None)
    return (None, out)


def _scalar_as_schur(poly: QPoly) -> SchurDict:
    if poly:
        raise TextError("a q-polynomial added to a Schur term")
    return {}


def _mul(a, b):
    if a[1] is not None and b[1] is not None:
        raise TextError("product of two Schur terms")
    if a[1] is None and b[1] is None:
        return (qp_mul(a[0], b[0]), None)
    scalar, schur = (a[0], b[1]) if a[1] is None else (b[0], a[1])
    out = {mu: qp_mul(scalar, c) for mu, c in schur.items()}
    return (None, {mu: c for mu, c in out.items() if c})


def read_table_rows(text: str) -> dict[tuple[int, int], SchurDict]:
    """Rows "M[g,n] = expression" of a table document, comments dropped."""
    rows = {}
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        head, expr = body.split("=", 1)
        g, n = head.strip()[2:-1].split(",")
        rows[(int(g), int(n))] = parse_schur_text(expr)
    return rows


# -- slot reports ----------------------------------------------------------------


def stable_slots(lambda_max: int) -> set[tuple[int, int]]:
    return {
        (g, n)
        for g in range(lambda_max // 2 + 2)
        for n in range(1, lambda_max + 3)
        if 0 < 2 * g - 2 + n <= lambda_max
    }


def depends_on(slot: tuple[int, int], row: tuple[int, int]) -> bool:
    """Whether the open stratum of type row can appear in the boundary of the
    compactified space of type slot: every piece of a stable curve has genus at
    most the total and a positive share of 2g-2+n, which gluing preserves."""
    (h, m), (g, n) = slot, row
    return g <= h and 2 * g - 2 + n <= 2 * h - 2 + m


def report_schur(report: dict) -> SchurDict:
    return {
        tuple(term["partition"]): qp_from_list(term["coeff_q"])
        for term in report["schur"]
    }


class SchemaChecker:
    """Validates slot reports against the schema the package publishes."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)

    def problems(self, report: dict) -> list[str]:
        return [error.message for error in self._validator.iter_errors(report)]


def complete_slot_problems(report: dict) -> list[str]:
    """Properties every slot whose open inputs are all in the table has: Schur
    coefficients integral and nonnegative, and fixed by the duality flip
    q^k -> q^(dim-k)."""
    out = []
    dim = report["dim"]
    for term in report["schur"]:
        coeffs = term["coeff_q"]
        if not all(isinstance(c, int) and c >= 0 for c in coeffs):
            out.append(f"s{term['partition']} has a non-integral or negative coefficient")
        padded = coeffs + [0] * (dim + 1 - len(coeffs))
        if len(padded) != dim + 1 or padded != padded[::-1]:
            out.append(f"s{term['partition']} fails duality at dim {dim}")
    if not report["duality"]:
        out.append("report says duality fails")
    return out
