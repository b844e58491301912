"""One benchmark pass: run a list of operations in this fresh interpreter.

Usage: python3 perfbench/child.py OPS_JSON RESULT_JSON

OPS_JSON holds ``{"trace_run_id": str | null, "ops": [...]}``.  An operation
is either ``{"argv": [...]}``, handed to ``polyhelix.cli.dispatch``, or
``{"scan": {...}}``, the keyword arguments of ``classify.negative_K_scan``
(which has no subcommand), whose report is written to ``op["out"]`` as JSON.
The package is imported before the clock starts; the pass's wall time runs
from the first operation's start to the last one's end.  With a trace run id
the spans recorder wraps the package first and its spans go into the result.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path


def run_op(op: dict, cli, classify) -> dict:
    try:
        if "argv" in op:
            return {"code": cli.dispatch(op["argv"]), "error": None}
        report = classify.negative_K_scan(**op["scan"])
        Path(op["out"]).write_text(json.dumps(report.to_json_dict(), sort_keys=True))
        return {"code": 0, "error": None}
    except Exception as error:  # a raising operation is a failed one, not an abort
        return {"code": None, "error": f"{type(error).__name__}: {error}"}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    import mpmath
    import numpy
    import polyhelix
    import polyhelix.classify
    import polyhelix.cli

    source = (Path.cwd() / "src" / "polyhelix").resolve()
    if Path(polyhelix.__file__).resolve().parent != source:
        sys.stderr.write(f"polyhelix imported from {polyhelix.__file__}, not {source}\n")
        return 2
    recorder = None
    if spec["trace_run_id"] is not None:
        import spans

        recorder = spans.Recorder(spec["trace_run_id"])
        spans.install(recorder)

    outcomes = []
    start = time.perf_counter_ns()
    for op in spec["ops"]:
        outcomes.append(run_op(op, polyhelix.cli, polyhelix.classify))
    end = time.perf_counter_ns()

    result = {
        "start_ns": start,
        "end_ns": end,
        "outcomes": outcomes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
        },
        "trace": recorder.dump() if recorder is not None else None,
    }
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
