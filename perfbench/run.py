"""Benchmark of the open-to-closed pipeline, end to end and per module.

    python3 perfbench/run.py --workload table-L7 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each operation ("op") runs in a
fresh interpreter started by this driver, one at a time, so every op pays for
the import, cold caches and the table parse as a command-line user does.
While an op runs, a fixed reference computation is timed every 50 ms
(reference.py); op times are reported as multiples of it, so the shared host's
changing speed cancels.  The driver repeats whole rounds of ops until
--seconds have passed, checks every output against the independent
computations in oracle.py, and prints one JSON object as the last line of
stdout.  With --trace 0 it holds the end-to-end
metrics of BENCHMARK.json; with --trace 1 each op runs once untraced and once
traced, the spans go to perfbench/out/, and the object holds the per-layer
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stablemoduli"
DATASET = PACKAGE / "data" / "moduli_serre.dat"
SCHEMA = PACKAGE / "data" / "slot_report.schema.json"

RUN_LIMIT_S = 170  # no op starts, and none runs on, past this point of a run


def cli_request(argv: list[str]) -> dict:
    return {"kind": "cli", "argv": argv}


def table_argv(truncation: int, withhold: tuple[int, int] | None = None) -> list[str]:
    argv = ["table", "--truncation", str(truncation), "--format", "json"]
    if withhold is not None:
        argv += ["--withhold", f"{withhold[0]},{withhold[1]}"]
    return argv


class Runner:
    """Starts op processes one at a time and keeps to the run's time limit."""

    def __init__(self):
        self.deadline = monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        # Cache bytecode, as an installed package has it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, request: dict, trace: bool = False) -> tuple[float, dict]:
        """Wall time of the op process and its result; a result with an
        "error" key is a failed op."""
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            return 0.0, {"error": "run time limit reached"}
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "op.py")],
                input=json.dumps(dict(request, trace=trace)),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - start, {"error": "op timed out"}
        wall = perf_counter() - start
        if proc.returncode != 0:
            return wall, {"error": f"op exited {proc.returncode}: {proc.stderr[-2000:]}"}
        result = json.loads(proc.stdout)
        if not result.get("module", "").startswith(str(PACKAGE)):
            result["error"] = f"imported stablemoduli from {result.get('module')}"
        return wall, result


# -- checks shared by the table workloads ------------------------------------------


class SlotChecks:
    """Checks a `table --format json` output needs no second run for."""

    def __init__(self, truncation: int):
        self.schema = oracle.SchemaChecker(SCHEMA)
        self.slots = oracle.stable_slots(truncation)
        # The table has genus-0 rows up to M[0,7], so M[0,8] and M[0,9] lack
        # the strata of a vertex of valence 8 or 9.
        self.genus0 = oracle.closed_genus0_ranks(truncation + 2, 7)

    def reports(self, output: dict) -> tuple[dict, list[str]]:
        """The reports by slot, and what is wrong with them."""
        if output.get("exit") != 0:
            return {}, [f"exit code {output.get('exit')}"]
        reports = {(r["g"], r["n"]): r for r in json.loads(output["stdout"])}
        problems = []
        if set(reports) != self.slots:
            problems.append(f"slots {sorted(reports)} are not the stable slots")
        for slot, report in reports.items():
            problems += [f"M{list(slot)} schema: {p}" for p in self.schema.problems(report)]
            # Even a slot the table lacks rows for is a sum over strata of
            # representations induced from table rows, so it is integral.
            if any(not isinstance(c, int) for t in report["schur"] for c in t["coeff_q"]):
                problems.append(f"M{list(slot)} has a non-integral Schur coefficient")
            if oracle.rank_of(oracle.report_schur(report)) != oracle.qp_from_list(report["rank_q"]):
                problems.append(f"M{list(slot)} rank is not sum of c_mu f^mu")
        return reports, problems

    def full_table(self, reports: dict) -> list[str]:
        """Properties of a run on the whole shipped table."""
        problems = []
        expect = {(3, 1): oracle.HEADLINE_3_1, (1, 1): oracle.CLOSED_1_1}
        expect.update({(0, n): rank for n, rank in self.genus0.items()})
        for slot, rank in expect.items():
            if slot in reports and oracle.qp_from_list(reports[slot]["rank_q"]) != rank:
                problems.append(f"M{list(slot)} rank {reports[slot]['rank_q']}")
        for slot, report in reports.items():
            if report["lambda"] <= 5:
                problems += [f"M{list(slot)}: {p}" for p in oracle.complete_slot_problems(report)]
        return problems


class TableL7:
    """One op: `table --truncation 7 --format json` on the shipped table."""

    # Processes that only import the package, started after each op, so
    # that set-up time has as many samples as in the other workloads.
    setup_probes = 6

    def __init__(self, seed: int, runner: Runner):
        self.checks = SlotChecks(7)
        # Truncation is an ideal quotient, so every slot at lambda <= 5 must
        # equal the same slot of a truncation-5 run; made once, untimed.
        low = SlotChecks(5)
        _, result = runner.run(cli_request(table_argv(5)))
        if "error" in result:
            self.reference, problems = {}, [result["error"]]
        else:
            self.reference, problems = low.reports(result["output"])
            problems += low.full_table(self.reference)
        self.reference_problems = [f"truncation-5 reference: {p}" for p in problems]

    def round(self, index: int) -> list[tuple[dict, None]]:
        return [(cli_request(table_argv(7)), None)]

    def check_round(self, expects: list, outputs: list[dict]) -> list[list[str]]:
        reports, problems = self.checks.reports(outputs[0])
        problems += self.checks.full_table(reports) + self.reference_problems
        for slot, report in self.reference.items():
            if reports.get(slot) != report:
                problems.append(f"M{list(slot)} differs from the truncation-5 run")
        return [problems]


class WithholdL5:
    """15 ops at truncation 5: the whole table, then each row withheld once,
    in an order drawn from the seed."""

    setup_probes = 0

    def __init__(self, seed: int, runner: Runner):
        self.seed = seed
        self.checks = SlotChecks(5)
        self.rows = oracle.read_table_rows(DATASET.read_text(encoding="utf-8"))

    def round(self, index: int) -> list[tuple[dict, tuple[int, int] | None]]:
        rows = sorted(self.rows)
        random.Random(f"withhold-L5:{self.seed}:{index}").shuffle(rows)
        return [(cli_request(table_argv(5, row)), row) for row in [None] + rows]

    def check_round(self, expects: list, outputs: list[dict]) -> list[list[str]]:
        full, problems = self.checks.reports(outputs[0])
        out = [problems + self.checks.full_table(full)]
        for row, output in zip(expects[1:], outputs[1:]):
            reports, problems = self.checks.reports(output)
            if out[0] or not reports:
                out.append(problems + ["no checked whole-table result to compare with"])
                continue
            full_row = oracle.report_schur(full[row])
            held_row = oracle.report_schur(reports[row])
            difference = {}
            for mu in set(full_row) | set(held_row):
                c = oracle.qp_add(full_row.get(mu, {}), held_row.get(mu, {}), -1)
                if c:
                    difference[mu] = c
            if difference != self.rows[row]:
                problems.append(f"slot M{list(row)} moved by {difference}, not by its row")
            for slot, report in reports.items():
                if not oracle.depends_on(slot, row) and report != full[slot]:
                    problems.append(f"M{list(slot)} changed without depending on M{list(row)}")
            out.append(problems)
        return out


class IngestW10:
    """One op per generated table document of weight up to 10."""

    setup_probes = 2

    def __init__(self, seed: int, runner: Runner):
        self.seed = seed

    def round(self, index: int) -> list[tuple[dict, dict]]:
        doc, rows = make_document(random.Random(f"ingest-w10:{self.seed}:{index}"))
        return [({"kind": "ingest", "doc": doc}, rows)]

    def check_round(self, expects: list, outputs: list[dict]) -> list[list[str]]:
        rows, output = expects[0], outputs[0]
        problems = []
        read = {
            tuple(int(x) for x in key.split(",")): value
            for key, value in output["rows"].items()
        }
        if set(read) != set(rows):
            problems.append("rows read back differ from the rows written")
        for key, schur in rows.items():
            got = read.get(key, {"schur": [], "rank": []})
            back = {tuple(mu): oracle.qp_from_list(c) for mu, c in got["schur"]}
            if back != schur:
                problems.append(f"M{list(key)} Schur coefficients read back differ")
            if oracle.qp_from_list(got["rank"]) != oracle.rank_of(schur):
                problems.append(f"M{list(key)} rank is not sum of c_mu f^mu")
        if output["rendered"] != output["rerendered"]:
            problems.append("render -> parse -> render is not a fixed point")
        if not output["tables_equal"]:
            problems.append("parse of the rendering differs from the parsed table")
        if oracle.read_table_rows(output["rendered"]) != rows:
            problems.append("the rendering does not read back to the rows written")
        return [problems]


def make_document(rng: random.Random) -> tuple[str, dict]:
    """A table document with rows M[g,n], g = 0..2 and n = 3..10: on a random
    half of the Schur functions of weight n, a q-polynomial of degree at most 3
    with coefficients in -3..3.  Rows and terms are shuffled and coefficients
    written in ascending powers of q, unlike the canonical rendering."""
    rows = {}
    for g in range(3):
        for n in range(3, 11):
            shapes = oracle.partitions(n)
            row = {}
            for mu in rng.sample(shapes, max(1, len(shapes) // 2)):
                coeff = {k: c for k in range(4) if (c := rng.randint(-3, 3))}
                row[mu] = coeff or {0: 1}
            rows[(g, n)] = row
    keys = list(rows)
    rng.shuffle(keys)
    lines = ["# generated table document", ""]
    for g, n in keys:
        terms = list(rows[(g, n)].items())
        rng.shuffle(terms)
        body = " + ".join(
            f"({_qpoly_text(c)})*s[{','.join(map(str, mu))}]" for mu, c in terms
        )
        lines.append(f"M[{g},{n}] = {body}")
    return "\n".join(lines) + "\n", rows


def _qpoly_text(poly: dict) -> str:
    text = ""
    for k in sorted(poly):
        c = poly[k]
        mono = str(abs(c)) if k == 0 else f"{abs(c)}*q^{k}"
        if not text:
            text = mono if c > 0 else f"-{mono}"
        else:
            text += f" + {mono}" if c > 0 else f" - {mono}"
    return text


WORKLOADS = {"table-L7": TableL7, "withhold-L5": WithholdL5, "ingest-w10": IngestW10}


def check_ops(workload, expects: list, results: list[dict]) -> list[list[str]]:
    """What is wrong with each op of one round; an op that did not run is
    wrong for its error alone."""
    try:
        checked = workload.check_round(expects, [r.get("output", {}) for r in results])
    except (KeyError, TypeError, ValueError) as exc:
        checked = [[f"output unreadable: {exc!r}"]] * len(results)
    return [[r["error"]] if "error" in r else p for r, p in zip(results, checked)]


# -- per-layer figures from a traced op ---------------------------------------------


def layer_figures(trace: dict) -> dict[str, float]:
    """Per-op totals: for each span name its time (outermost spans of that
    name), self time and call count; each kernel's calls and time; sizes."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - covered[index]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[f"{name}.s"] += end - start
    for name, (calls, seconds) in trace["kernels"].items():
        out[f"{name}.calls"] += calls
        out[f"{name}.s"] += seconds
    out.update(trace["sizes"])
    return out


def write_spans(path: Path, traces: list[dict]) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for op, trace in enumerate(traces):
            for index, (name, start, end, parent) in enumerate(trace["spans"]):
                fh.write(json.dumps({"op": op, "span": index, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            for name, (calls, seconds) in trace["kernels"].items():
                fh.write(json.dumps({"op": op, "kernel": name, "calls": calls, "s": seconds}) + "\n")
            for name, value in trace["sizes"].items():
                fh.write(json.dumps({"op": op, "size": name, "value": value}) + "\n")


# -- the run -----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file() or not DATASET.is_file():
        print(f"error: no stablemoduli source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runner = Runner()
    # Compile the package's bytecode before anything is timed.
    _, warm = runner.run(cli_request(["inputs", "--g", "0", "--n", "3"]))
    if "error" in warm:
        print(f"error: the package does not run: {warm['error']}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, runner)

    # Whole rounds until --seconds have passed.  With tracing every op runs
    # untraced and then traced; only untraced ops give end-to-end figures.
    rounds = []
    setups = []  # set-up times of the import-only processes
    start = monotonic()
    while not rounds or monotonic() - start < args.seconds:
        items = workload.round(len(rounds))
        plain, traced = [], []
        for request, _ in items:
            plain.append(runner.run(request))
            for _ in range(workload.setup_probes):
                _, result = runner.run({"kind": "import"})
                if "error" not in result:
                    setups.append(result["setup_s"])
            if args.trace:
                traced.append(runner.run(request, trace=True))
        rounds.append((items, plain, traced))
        if monotonic() >= runner.deadline:
            break

    done = {False: [], True: []}  # by traced: (wall, result) of ops that ran
    problems = []  # one list per op; empty when the op passed
    for items, plain, traced in rounds:
        for is_traced, runs in ((False, plain), (True, traced)):
            if runs:
                problems += check_ops(workload, [e for _, e in items], [r for _, r in runs])
                done[is_traced] += [(w, r) for w, r in runs if "error" not in r]
    failed = [p for p in problems if p]
    for p in failed[:3]:
        print(f"failed op: {p[:3]}", file=sys.stderr)

    # Process wall times without the untimed checks and the sampling.
    plain = [(w - r["output"].get("checks_s", 0) - r["sampling_s"], r) for w, r in done[False]]
    plain_p50 = median(r["op_s"] for _, r in plain) if plain else 0.0
    if not args.trace:
        # Op times are reported in units of the reference computation timed
        # during each op, which cancels the shared host's changing speed; the
        # same figures in seconds are per-layer metrics of the traced run.
        metrics = {
            "setup_s": median(setups + [r["setup_s"] for _, r in plain]) if plain else 0.0,
            "op_p50_ref": median(r["op_s"] / r["ref_s"] for _, r in plain) if plain else 0.0,
            "ops_per_ref": 1 / median(w / r["ref_s"] for w, r in plain) if plain else 0.0,
            "peak_rss_mb": max(r["max_rss_kb"] for _, r in plain) / 1024 if plain else 0.0,
        }
        declared = spec["end_to_end"]
    else:
        traces = [r for _, r in done[True]]
        figures = [layer_figures(r["trace"]) for r in traces]
        metrics = {
            m["name"]: median(f.get(m["name"], 0) for f in figures) if figures else 0.0
            for m in spec["per_layer"]
        }
        metrics["wall.op_p50_s"] = plain_p50
        metrics["wall.ops_per_s"] = len(plain) / sum(w for w, _ in plain) if plain else 0.0
        metrics["reference.unit_s"] = median(r["ref_s"] for _, r in plain) if plain else 0.0
        metrics["trace.op_p50_s"] = median(r["op_s"] for r in traces) if traces else 0.0
        metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - plain_p50
        out = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out, [r["trace"] for r in traces])
        print(f"spans written to {out.relative_to(ROOT)}")
        declared = spec["per_layer"]
    print(f"{args.workload}: {len(problems)} ops in {len(rounds)} rounds, {len(failed)} failed")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
