"""In-process stage times of ``stablemoduli table --format json``, compared
between source trees.

    python3 tools/stage_times.py --src ../parent/src --src src --truncations 5,7,10,12 --runs 10

Runs the table pipeline stage by stage, graded mode, on the shipped table:
parse_table (the dataset text), open_moduli_series, closed_moduli_series
(the closed series as the command line computes it), the slot reports and
the JSON text.  Each run is a fresh interpreter that imports the package
from one --src and times every truncation once, in the order given, so the
first parse is cold as in a fresh process.  The runs alternate between
the trees, each round starting with the tree the last one ended with, so
that a drift of the host's load falls on every tree alike.  The tool clears
the package's two per-process caches (characters and partitions) before
each truncation.

Each run also times ``import stablemoduli, stablemoduli.cli`` once, before
its first truncation and after the tool's own imports (argparse, json,
subprocess): the "import" row, the counterpart of perfbench's setup_s.  It is
kept out of every "total", so totals stay comparable with those taken before
the row existed.  As in perfbench, the runs may write bytecode, so after a
tree's first run the import reads it from the cache.

Prints one JSON object: each tree's median import seconds; for each
truncation, each tree's median seconds per stage and the sha256 of its JSON
text; and, with more than one --src, the ratio of each later tree's medians to
the first's.  Exits 1 if the sha256 differs between trees at any truncation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter


def one_run(truncation: int) -> tuple[dict[str, float], str]:
    from stablemoduli import characters, partitions
    from stablemoduli.dataset import dataset_text
    from stablemoduli.exprlang import parse_table
    from stablemoduli.pipeline import (
        build_slot_report,
        closed_moduli_series,
        open_moduli_series,
        stable_slots,
    )
    from stablemoduli.series import Truncation

    characters._character.cache_clear()
    partitions.partitions_of.cache_clear()
    times = {}
    start = perf_counter()
    table = parse_table(dataset_text())
    times["parse_table"] = perf_counter() - start
    start = perf_counter()
    f = open_moduli_series(table, Truncation.standard(truncation))
    times["open_moduli_series"] = perf_counter() - start
    start = perf_counter()
    closed = closed_moduli_series(f)
    times["closed_moduli_series"] = perf_counter() - start
    start = perf_counter()
    reports = [build_slot_report(closed, g, n) for g, n in stable_slots(truncation)]
    times["slot_reports"] = perf_counter() - start
    start = perf_counter()
    text = json.dumps([r.to_json_obj() for r in reports], indent=2) + "\n"
    times["json"] = perf_counter() - start
    times["total"] = sum(times.values())
    return times, hashlib.sha256(text.encode()).hexdigest()


def spawn(src: str, truncations: str) -> dict:
    """One fresh interpreter's run of every truncation from the tree src:
    {"import": seconds, "L=..": [times, sha256]}."""
    argv = [sys.executable, __file__, "--one", "--src", src, "--truncations", truncations]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return json.loads(
        subprocess.run(argv, check=True, capture_output=True, text=True, env=env).stdout
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", help="a source tree; give it once per tree")
    parser.add_argument("--truncations", default="5,7,10,12")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per tree")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    trees = args.src or ["src"]
    if args.one:
        sys.path.insert(0, trees[0])
        start = perf_counter()
        import stablemoduli.cli  # noqa: F401  (imports stablemoduli first)

        runs: dict = {"import": perf_counter() - start}
        runs.update((f"L={t}", one_run(t)) for t in map(int, args.truncations.split(",")))
        print(json.dumps(runs))
        return 0
    results: dict[str, list[dict]] = {src: [] for src in trees}
    order = list(trees)
    for _ in range(args.runs):
        for src in order:
            results[src].append(spawn(src, args.truncations))
        order.reverse()
    out: dict = {"trees": trees, "runs_per_tree": args.runs, "import": {}}
    for src in trees:
        seconds = median(run["import"] for run in results[src])
        out["import"][src] = {"median_s": round(seconds, 4)}
        if src != trees[0]:
            out["import"][src]["ratio"] = round(seconds / out["import"][trees[0]]["median_s"], 3)
    same = True
    for key in results[trees[0]][0]:
        if key == "import":
            continue
        entry: dict = {}
        for src in trees:
            runs = [run[key] for run in results[src]]
            stages = runs[0][0]
            entry[src] = {
                "median_s": {s: round(median(t[s] for t, _ in runs), 4) for s in stages},
                "sha256": sorted({sha for _, sha in runs}),
            }
        shas = {sha for src in trees for sha in entry[src]["sha256"]}
        same = same and len(shas) == 1
        first = entry[trees[0]]["median_s"]
        for src in trees[1:]:
            entry[src]["ratio"] = {
                s: round(m / first[s], 3) if first[s] else None
                for s, m in entry[src]["median_s"].items()
            }
        out[key] = entry
    print(json.dumps(out, indent=2))
    if not same:
        print("error: the JSON text differs between trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
