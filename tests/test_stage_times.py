"""``tools/stage_times.py`` times the route the command line runs; it must
run on the tree it ships with, so that comparisons against another tree
can run at all, and on a table file other than the shipped one."""

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

from stablemoduli.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_stage_times_runs_on_this_tree(tmp_path):
    # two copies of this tree, so each gets its own runs and the second its
    # ratios; the tool merges a tree given twice into one
    trees = []
    for name in ("a", "b"):
        copy = tmp_path / name / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(str(copy))
    argv = [
        sys.executable, "tools/stage_times.py",
        "--src", trees[0], "--src", trees[1], "--truncations", "3", "--runs", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["trees"] == trees
    entry, later = out["L=3"][trees[0]], out["L=3"][trees[1]]
    assert "ratio" not in entry and later["ratio"].keys() == later["median_s"].keys()
    assert "ratio" in out["import"][trees[1]]
    assert entry["sha256"] == later["sha256"]
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


def test_ratios_are_taken_before_rounding():
    # 0.14 ms against 0.16 ms prints as 0.1 ms against 0.2 ms, a ratio of
    # 2.0 when read off the printed medians; the ratio is 1.143
    def run(stage_s, import_s):
        return {"import": import_s, "L=3": [{"parse": stage_s}, ["sha"], {"parse": [0, 0, 0]}]}

    spec = importlib.util.spec_from_file_location("stage_times", ROOT / "tools" / "stage_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    results = {"a": [run(0.00014, 0.00301)], "b": [run(0.00016, 0.00349)]}
    out = tool.summary(["a", "b"], results)
    assert out["L=3"]["a"]["median_s"] == {"parse": 0.0001}
    assert out["L=3"]["b"]["median_s"] == {"parse": 0.0002}
    assert out["L=3"]["b"]["ratio"] == {"parse": 1.143}
    assert out["import"]["b"] == {"median_s": 0.0035, "ratio": 1.159}
