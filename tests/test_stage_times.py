"""``tools/stage_times.py`` times the route the command line runs; it must
run on the tree it ships with, so that comparisons against another tree
can run at all, and on a table file other than the shipped one."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from stablemoduli.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_stage_times_runs_on_this_tree():
    argv = [
        sys.executable, "tools/stage_times.py",
        "--src", "src", "--src", "src", "--truncations", "3", "--runs", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    entry = json.loads(done.stdout)["L=3"]["src"]
    stages = entry["median_s"]
    assert "closed_moduli_series" in stages
    # the command line's own route, timed apart from the stages and their
    # total; its output has the stages' sha256, or the tool exits 1
    assert "main" in stages
    assert len(entry["sha256"]) == 1
    # collector passes per stage and generation, beside the times
    assert entry["gc_passes"].keys() == stages.keys()
    assert all(len(gens) == 3 for gens in entry["gc_passes"].values())


def test_stage_times_runs_on_a_given_table_file(tmp_path, capsys):
    path = tmp_path / "rows.dat"
    path.write_text("# two rows\nM[0,3] = s[3]\nM[1,1] = s[1]\n", encoding="utf-8")
    argv = [
        sys.executable, "tools/stage_times.py",
        "--src", "src", "--input", str(path), "--truncations", "3", "--runs", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["input"] == str(path)
    # the stages and cli.main both read the file: their JSON is the command line's
    assert main(["table", "--truncation", "3", "--format", "json", "--input", str(path)]) == 0
    printed = capsys.readouterr().out
    assert out["L=3"]["src"]["sha256"] == [hashlib.sha256(printed.encode()).hexdigest()]
