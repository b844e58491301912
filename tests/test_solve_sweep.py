"""Every operation of the benchmark's solve-sweep workload must pass the
benchmark's own output check.

``perfbench/workloads.py`` lists the operations and ``perfbench/checks.py``
checks the report each one writes.  This test loads both by path (it only
reads them), runs the operations in this process at one seed, as
``perfbench/child.py`` does in its own interpreter, and checks every report,
so a solver change that would fail the benchmark fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from polyhelix import classify
from polyhelix.cli import dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OPERATIONS = _load("workloads").operations("solve-sweep", SEED)


@pytest.fixture(scope="module")
def checker():
    return _load("checks").Checker()


@pytest.mark.parametrize("op", OPERATIONS, ids=[op["id"] for op in OPERATIONS])
def test_operation_passes_the_benchmark_check(tmp_path, checker, op):
    out = tmp_path / "report.json"
    if "argv" in op:
        assert dispatch(op["argv"] + ["--out", str(out)]) == 0
    else:
        report = classify.negative_K_scan(**op["scan"])
        out.write_text(json.dumps(report.to_json_dict(), sort_keys=True))
    assert checker.check(op["check"], out) is None


@pytest.mark.parametrize("r", range(2, 9))
def test_negative_scan_passes_the_benchmark_check(tmp_path, checker, r):
    out = tmp_path / "scan.json"
    out.write_text(json.dumps(classify.negative_K_scan(r, -1.0).to_json_dict(), sort_keys=True))
    assert checker.check({"kind": "negative", "order": r}, out) is None
