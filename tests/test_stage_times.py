"""``tools/stage_times.py`` times the route the command line runs; it must
run on the tree it ships with, so that comparisons against another tree
can run at all."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stage_times_runs_on_this_tree():
    argv = [
        sys.executable, "tools/stage_times.py",
        "--src", "src", "--src", "src", "--truncations", "3", "--runs", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)["L=3"]["src"]["median_s"]
    assert "closed_moduli_series" in stages
