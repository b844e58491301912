"""Self-test of the benchmark's output checks.

Usage, from the repository root:  python3 perfbench/selftest.py [--seed N]

Runs one real pass of three operations (``reproduce``, a pattern-{2}
``classify`` and a ``tau`` derivation), confirms that all three pass their
checks, then corrupts one output at a time (a root, a rendered polynomial, a
criterion verdict) and confirms that exactly that operation is counted as
failed.  Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def corrupt_root(body: dict) -> None:
    body["payload"]["solutions"][0]["curvatures"][0] *= 1.001


def corrupt_polynomial(body: dict) -> None:
    equation = body["payload"]["equations"][0]
    equation["factored"] = equation["factored"].replace(" + ", " - ", 1)


def corrupt_verdict(body: dict) -> None:
    body["payload"]["criteria"][7]["passed"] = False


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the output checks")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "polyhelix" / "cli.py").is_file():
        sys.stderr.write("run from the repository root\n")
        return 2

    ops = [
        workloads.operations("reproduce", args.seed)[0],
        next(op for op in workloads.operations("solve-sweep", args.seed)
             if op["check"] == {"kind": "isolated", "system": "3/2", "k1_squared": 2}),
        next(op for op in workloads.operations("derive-sweep", args.seed)
             if op["check"]["system"] == "3/"),
    ]
    corruptions = {0: corrupt_verdict, 1: corrupt_root, 2: corrupt_polynomial}
    work = root / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    checker = run.checks.Checker()
    ok = True
    try:
        prepared, result, code = run.execute_pass(
            root, run.child_environment(root), work, ops, None, run.RUN_LIMIT_S)
        if result is None:
            print(f"FAIL: pass child exited {code}")
            return 1
        failures = run.evaluate_pass(prepared, result, checker)
        print(f"{'ok  ' if not failures else 'FAIL'} unmodified outputs: {failures or 'all pass'}")
        ok = not failures
        for index, corrupt in corruptions.items():
            path = Path(prepared[index]["out"])
            original = path.read_text()
            body = json.loads(original)
            corrupt(body)
            path.write_text(json.dumps(body))
            failures = run.evaluate_pass(prepared, result, checker)
            path.write_text(original)
            caught = [op_id for op_id, _ in failures] == [prepared[index]["id"]]
            ok = ok and caught
            print(f"{'ok  ' if caught else 'FAIL'} {corrupt.__name__} on {prepared[index]['id']}: "
                  f"counted failures {failures}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
