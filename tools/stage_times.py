"""In-process stage times of ``stablemoduli table --format json``, compared
between source trees.

    python3 tools/stage_times.py --src ../parent/src --src src --truncations 5,7,10,12 --runs 10
    python3 tools/stage_times.py --src src --input rows.dat --truncations 5 --runs 10

Runs the table pipeline stage by stage, graded mode, on the shipped table
or on the table file given by --input, by the functions ``cli.main`` calls:
parse_table (reading the file and parsing its text),
open_moduli_series, closed_moduli_series (the closed series as the command
line computes it; on a tree whose closed series stays packed, that leaves
its decode out), the slot reports (``build_slot_report`` on that series,
so on such a tree they read the packed ints) and the JSON text
(``cli._emit_reports``, the command line's own writer).  Each run is a
fresh interpreter that imports the package from one --src and times every
truncation once, in the order given, so the first parse is cold as in a
fresh process.  The runs alternate between
the trees, each round starting with the tree the last one ended with, so
that a drift of the host's load falls on every tree alike.  Before each
truncation the tool clears every ``lru_cache`` it finds in the package's
characters, partitions and series modules, whatever their names in that
tree.

After a truncation's stages, and after clearing those caches once more,
the run times ``cli.main(["table", "--truncation", L, "--format", "json"])``,
with ``--input`` and the file when one is given, and its output captured:
the "main" row, the command line's own route, argument parsing included.
It is kept out of the "total", which sums the stages.

Each run also times ``import stablemoduli, stablemoduli.cli`` once, before
its first truncation: the "import" row, the counterpart of perfbench's
setup_s.  It is kept out of every "total", so totals stay comparable with
those taken before the row existed.  The fresh interpreter reads its own
arguments from sys.argv and imports only gc, hashlib, io, json and sys
before the package, so the "import" and "main" rows pay for every module
the package and its command line load (argparse, subprocess and statistics
load locale, re and fractions, and are imported by the comparing process
alone).  As in perfbench, the runs may write bytecode, so after a tree's
first run the import reads it from the cache.

Prints one JSON object: the --input file (null for the shipped table);
each tree's median import seconds; for each truncation, each tree's median
seconds per stage, its median number of garbage-collector passes per stage
and generation (``gc.get_stats()`` deltas, so a pass that moves from one
stage to another shows beside the times it moves) and the sha256 of its
JSON text; and, with more than one --src, the ratio of each later tree's
median seconds to the first's, taken from the medians before they are
rounded to 0.1 ms for printing.  Exits 1 if the sha256 differs between
trees at any truncation.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import sys
from time import perf_counter


def clear_caches() -> None:
    """Clear every ``lru_cache`` of the package's characters, partitions and
    series modules, found by attribute rather than by name."""
    from stablemoduli import characters, partitions, series

    for module in (characters, partitions, series):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def collections() -> list[int]:
    """The garbage collector's passes so far, per generation."""
    return [gen["collections"] for gen in gc.get_stats()]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_main(argv: list[str]) -> str:
    """The stdout of cli.main(argv); its stderr is dropped."""
    from stablemoduli.cli import main

    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        main(argv)
        return sys.stdout.getvalue()
    finally:
        sys.stdout, sys.stderr = saved


def one_run(
    truncation: int, input_path: str | None
) -> tuple[dict[str, float], list[str], dict[str, list[int]]]:
    from pathlib import Path  # loaded by the package already

    from stablemoduli.cli import _emit_reports
    from stablemoduli.dataset import dataset_text
    from stablemoduli.exprlang import parse_table
    from stablemoduli.pipeline import (
        build_slot_report,
        closed_moduli_series,
        open_moduli_series,
        stable_slots,
    )
    from stablemoduli.plethysm import GluingMode
    from stablemoduli.series import Truncation

    clear_caches()
    times: dict[str, float] = {}
    passes: dict[str, list[int]] = {}

    def stage(name: str, work):
        before = collections()
        start = perf_counter()
        result = work()
        times[name] = perf_counter() - start
        passes[name] = [b - a for a, b in zip(before, collections())]
        return result

    if input_path is None:
        read = dataset_text
    else:
        read = lambda: Path(input_path).read_text(encoding="utf-8")  # noqa: E731
    table = stage("parse_table", lambda: parse_table(read()))
    f = stage(
        "open_moduli_series",
        lambda: open_moduli_series(table, Truncation.standard(truncation)),
    )
    closed = stage("closed_moduli_series", lambda: closed_moduli_series(f, GluingMode.GRADED))
    reports = stage(
        "slot_reports",
        lambda: [build_slot_report(closed, g, n) for g, n in stable_slots(truncation)],
    )
    # what run_table prints: the writer's text and a newline
    text = stage("json", lambda: _emit_reports(reports, "json") + "\n")
    times["total"] = sum(times.values())
    passes["total"] = [sum(gen) for gen in zip(*passes.values())]
    clear_caches()
    argv = ["table", "--truncation", str(truncation), "--format", "json"]
    if input_path is not None:
        argv += ["--input", input_path]
    out = stage("main", lambda: run_main(argv))
    return times, [sha256(text), sha256(out)], passes


def one(src: str, truncations: str, input_path: str | None) -> int:
    """The run of a fresh interpreter: print {"import": seconds, "L=..":
    [times, [sha256 of the JSON text, of cli.main's output], gc passes]}."""
    sys.path.insert(0, src)
    start = perf_counter()
    import stablemoduli.cli  # noqa: F401  (imports stablemoduli first)

    runs: dict = {"import": perf_counter() - start}
    runs.update((f"L={t}", one_run(t, input_path)) for t in map(int, truncations.split(",")))
    print(json.dumps(runs))
    return 0


def spawn(src: str, truncations: str, input_path: str | None) -> dict:
    """One fresh interpreter's run of every truncation from the tree src."""
    import subprocess

    argv = [sys.executable, __file__, "--one", "--src", src, "--truncations", truncations]
    if input_path is not None:
        argv += ["--input", input_path]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return json.loads(
        subprocess.run(argv, check=True, capture_output=True, text=True, env=env).stdout
    )


def summary(trees: list[str], results: dict[str, list[dict]]) -> dict:
    """The medians of each tree's runs, rounded to 0.1 ms as printed, and
    each later tree's ratios to the first tree's, taken before rounding so
    that a stage of well under a millisecond reads no rounding step as a
    change; beside them, per truncation, the gc passes and the sha256."""
    from statistics import median

    first = trees[0]
    imports = {src: median(run["import"] for run in results[src]) for src in trees}
    out: dict = {"import": {}}
    for src in trees:
        out["import"][src] = {"median_s": round(imports[src], 4)}
        if src != first:
            out["import"][src]["ratio"] = round(imports[src] / imports[first], 3)
    for key in results[first][0]:
        if key == "import":
            continue
        entry: dict = {}
        seconds: dict = {}
        for src in trees:
            runs = [run[key] for run in results[src]]
            stages = runs[0][0]
            seconds[src] = {s: median(t[s] for t, _, _ in runs) for s in stages}
            entry[src] = {
                "median_s": {s: round(m, 4) for s, m in seconds[src].items()},
                "gc_passes": {
                    s: [median(gens) for gens in zip(*(p[s] for _, _, p in runs))]
                    for s in stages
                },
                "sha256": sorted({sha for _, shas, _ in runs for sha in shas}),
            }
        for src in trees[1:]:
            entry[src]["ratio"] = {
                s: round(m / seconds[first][s], 3) if seconds[first][s] else None
                for s, m in seconds[src].items()
            }
        out[key] = entry
    return out


def main() -> int:
    # spawn's argv, read before argparse (and what it loads) is imported
    if sys.argv[1:2] == ["--one"]:
        return one(sys.argv[3], sys.argv[5], sys.argv[7] if len(sys.argv) > 7 else None)
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", help="a source tree; give it once per tree")
    parser.add_argument("--truncations", default="5,7,10,12")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per tree")
    parser.add_argument("--input", help="a table file to run on (default: the shipped table)")
    args = parser.parse_args()
    trees = args.src or ["src"]
    results: dict[str, list[dict]] = {src: [] for src in trees}
    order = list(trees)
    for _ in range(args.runs):
        for src in order:
            results[src].append(spawn(src, args.truncations, args.input))
        order.reverse()
    out = {"trees": trees, "input": args.input, "runs_per_tree": args.runs}
    out.update(summary(trees, results))
    print(json.dumps(out, indent=2))
    shas = [
        {sha for src in trees for sha in entry[src]["sha256"]}
        for key, entry in out.items()
        if key.startswith("L=")
    ]
    if any(len(found) != 1 for found in shas):
        print(
            "error: the JSON text differs between trees or from cli.main's output",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
