"""The benchmark tracer (``perfbench/tracer.py``) patches package functions
by the names their callers look them up under; every one must still exist,
or a traced benchmark run fails."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    targets = tracer.STAGES + tracer.KERNELS
    assert targets
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
