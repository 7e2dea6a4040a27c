"""In-process stage times of ``stablemoduli table --format json``.

    python3 tools/stage_times.py --src src --truncations 5,7,10,12 --runs 5

Imports the package from --src, so two checkouts can be timed on one host,
and runs the table pipeline stage by stage, graded mode, on the shipped
table: parse_table (the dataset text), open_moduli_series, glued_log, the
Moebius-Adams sum, the slot reports and the JSON text.  Each run starts
with the package's caches cleared, as a fresh process would.  Prints one
JSON object: the median seconds of each stage per truncation, and the
sha256 of the JSON text, which must be the same for every checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from statistics import median
from time import perf_counter


def one_run(truncation: int) -> tuple[dict[str, float], str]:
    from stablemoduli import characters, partitions
    from stablemoduli.dataset import dataset_text
    from stablemoduli.exprlang import parse_table
    from stablemoduli.pipeline import build_slot_report, open_moduli_series, stable_slots
    from stablemoduli.plethysm import glued_log, mobius_adams_sum
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
    w = glued_log(f)
    times["glued_log"] = perf_counter() - start
    start = perf_counter()
    closed = mobius_adams_sum(w)
    times["mobius_adams_sum"] = perf_counter() - start
    start = perf_counter()
    reports = [build_slot_report(closed, g, n) for g, n in stable_slots(truncation)]
    times["slot_reports"] = perf_counter() - start
    start = perf_counter()
    text = json.dumps([r.to_json_obj() for r in reports], indent=2) + "\n"
    times["json"] = perf_counter() - start
    times["total"] = sum(times.values())
    return times, hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--truncations", default="5,7,10,12")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    out = {}
    for truncation in map(int, args.truncations.split(",")):
        runs = [one_run(truncation) for _ in range(args.runs)]
        out[f"L={truncation}"] = {
            "median_s": {
                stage: round(median(times[stage] for times, _ in runs), 4)
                for stage in runs[0][0]
            },
            "sha256": runs[0][1],
        }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
