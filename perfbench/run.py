"""polyhelix benchmark harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload {reproduce,solve-sweep,derive-sweep} \
        --seed N --seconds S --trace {0,1}

A closed loop with one client: passes run one after another, each in a fresh
interpreter (``child.py``) with BLAS/OpenMP threads pinned to 1, each running
the workload's operations one at a time through ``polyhelix.cli.dispatch``
(or ``classify.negative_K_scan``).  Passes start until the next one would end
after ``--seconds``.  Every operation's output is checked (``checks.py``);
a raise, a non-zero exit or a failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics: then passes alternate untraced and traced, and the
traced ones wrap the package's layers from outside (``spans.py``).  The last
line of standard output is the JSON result; the lines above it give every
metric with its unit, quartiles and the machine the run was made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # before the passes, and as many again after them
RUN_LIMIT_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
NOISE_NOTE = (
    "shared 2-core machine: other tenants cannot be excluded; its speed was "
    "seen to swing by up to 40% over phases of about 10 s, and run-to-run "
    "wall_s spread was 6-22% depending on the workload"
)


def child_environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("POLYHELIX_SEED", None)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def setup_probe(root: Path, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    polyhelix.cli.  The child reads the clock itself: waiting on it with a
    timeout polls in steps of up to 50 ms.  Both ends use CLOCK_MONOTONIC
    (``time.monotonic_ns`` on Linux), which all processes share."""
    started = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-c", "import time, polyhelix.cli; print(time.monotonic_ns())"],
        cwd=root, env=env, check=True, timeout=60, capture_output=True, text=True,
    ).stdout
    return (int(done) - started) / 1e9


def execute_pass(root: Path, env: dict, work: Path, ops: list[dict],
                 trace_run_id: str | None, timeout: float) -> tuple[list[dict], dict | None, object]:
    """Run one pass in a child interpreter; outputs go under ``work``.
    Returns the operations with their output paths, the child's result (None
    if it wrote none) and its exit code."""
    work.mkdir(parents=True)
    prepared = []
    for index, op in enumerate(ops):
        out = str(work / f"op{index:03d}.json")
        op = {**op, "out": out}
        if "argv" in op:
            op["argv"] = op["argv"] + ["--out", out]
        prepared.append(op)
    ops_path, result_path = work / "ops.json", work / "result.json"
    ops_path.write_text(json.dumps({"trace_run_id": trace_run_id, "ops": prepared}))
    try:
        code = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ops_path), str(result_path)],
            cwd=root, env=env, stdout=sys.stderr.fileno(), timeout=timeout,
        ).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    result = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else None
    return prepared, result, code


def evaluate_pass(prepared: list[dict], result: dict, checker: checks.Checker) -> list[tuple[str, str]]:
    """(operation id, reason) for every operation that raised, exited
    non-zero or failed its output check."""
    failures = []
    for op, outcome in zip(prepared, result["outcomes"]):
        if outcome["error"] is not None:
            reason = f"raised {outcome['error']}"
        elif outcome["code"] != 0:
            reason = f"exit {outcome['code']}"
        else:
            reason = checker.check(op["check"], Path(op["out"]))
        if reason is not None:
            failures.append((op["id"], reason))
    return failures


def run_pass(root: Path, env: dict, work: Path, ops: list[dict],
             trace_run_id: str | None, timeout: float, checker: checks.Checker) -> dict:
    """Run and check one pass, then remove its outputs."""
    prepared, result, code = execute_pass(root, env, work, ops, trace_run_id, timeout)
    if result is None:
        shutil.rmtree(work)
        return {"failures": [(op["id"], f"pass child exited {code}") for op in ops],
                "attempted": len(ops), "broken": True}
    failures = evaluate_pass(prepared, result, checker)
    shutil.rmtree(work)
    summary = {
        "failures": failures,
        "attempted": len(ops),
        "broken": False,
        "wall_s": (result["end_ns"] - result["start_ns"]) / 1e9,
        "peak_rss_mib": result["maxrss_kib"] / 1024.0,
        "versions": result["versions"],
        "layers": None,
    }
    if result["trace"] is not None:
        times = spans.self_times(result["trace"]["spans"], result["start_ns"], result["end_ns"])
        summary["layers"] = {**times, "counts": result["trace"]["counts"]}
    return summary


def layer_value(name: str, layers: dict, plain_wall_s: float) -> float:
    """One per-layer metric of BENCHMARK.json from a traced pass, given the
    median wall time of the run's untraced passes."""
    spans_by_name = layers["layers"]
    counts = layers["counts"]

    def field(span: str, key: str) -> float:
        return spans_by_name.get(span, {}).get(key, 0)

    if name in counts:
        return counts[name]
    if name == "classify.root_yield":
        starts = counts["classify.newton_starts"]
        return counts["classify.roots"] / starts if starts else 0.0
    if name == "odelab.rk4_step_us":
        steps = counts["odelab.rk4_steps"]
        return field("odelab.integrate_frenet", "self_ns") / 1e3 / steps if steps else 0.0
    if name == "trace.overhead_share":
        return (layers["wall_ns"] / 1e9 - plain_wall_s) / plain_wall_s
    if name == "trace.wall_s":
        return layers["wall_ns"] / 1e9
    if name == "trace.unwrapped_s":
        return layers["unwrapped_ns"] / 1e9
    if name.startswith("acceptance.") and name.endswith("_s"):
        return field(name[: -len("_s")], "total_ns") / 1e9
    if name.endswith(".calls"):
        return field(name[: -len(".calls")], "calls")
    if name.endswith(".self_s"):
        return field(name[: -len(".self_s")], "self_ns") / 1e9
    raise ValueError(f"no measurement for per-layer metric {name!r}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "pinned_threads": 1,
        "note": NOISE_NOTE,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyhelix" / "cli.py").is_file():
        sys.stderr.write(f"no polyhelix source under {root / 'src'}; run from the repository root\n")
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text())
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    began = time.monotonic()
    env = child_environment(root)
    checker = checks.Checker()
    ops = workloads.operations(args.workload, args.seed)
    work = root / ".perfbench" / f"run-{os.getpid()}"

    # probes on both sides of the passes, because the machine's speed drifts
    # over tens of seconds
    setup = [setup_probe(root, env) for _ in range(SETUP_PROBES)]
    loop_start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        run_id = f"{args.workload}-seed{args.seed}-pass{len(passes)}" if traced else None
        remaining = RUN_LIMIT_S - (time.monotonic() - began)
        started = time.monotonic()
        summary = run_pass(root, env, work / f"pass{len(passes)}", ops, run_id, remaining, checker)
        summary["traced"], summary["seconds"] = traced, time.monotonic() - started
        passes.append(summary)
        if summary["broken"]:
            break
        # start another pass only if one like it, judged by the last of its
        # kind, would still end within --seconds
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        estimate = ([p["seconds"] for p in passes if p["traced"] == next_traced]
                    or [summary["seconds"]])[-1]
        if len(passes) >= 1 + args.trace and time.monotonic() - loop_start + estimate > args.seconds:
            break
    shutil.rmtree(work, ignore_errors=True)
    setup += [setup_probe(root, env) for _ in range(SETUP_PROBES)]

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for op_id, reason in failures:
        print(f"FAILED {op_id}: {reason}")
    good = [p for p in passes if not p["broken"]]
    plain = [p for p in good if not p["traced"]]
    traced_passes = [p for p in good if p["traced"]]
    if not plain or (args.trace and not traced_passes):
        sys.stderr.write("no pass completed; no metrics to report\n")
        return 1

    walls = [p["wall_s"] for p in plain]
    spread = {"wall_s": quartiles(walls), "setup_s": quartiles(setup),
              "peak_rss_mib": quartiles([p["peak_rss_mib"] for p in plain])}
    measured: dict[str, float] = {}
    if args.trace:
        plain_wall = statistics.median(walls)
        for metric in wanted:
            values = [layer_value(metric["name"], p["layers"], plain_wall)
                      for p in traced_passes]
            # counts repeat exactly from pass to pass; keep them whole
            same = len(set(values)) == 1
            measured[metric["name"]] = values[0] if same else statistics.median(values)
    else:
        for metric in wanted:
            measured[metric["name"]] = spread[metric["name"]][1]

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds} s, {mode}): "
          f"{len(plain)} untraced and {len(traced_passes)} traced passes")
    print(f"  fail_share {len(failures) / attempted:.6g} share "
          f"({len(failures)} failed of {attempted} operations attempted)")
    for metric in wanted:
        line = f"  {metric['name']} {measured[metric['name']]!r} {metric['unit']}"
        if metric["name"] in spread:
            q1, median, q3 = spread[metric["name"]]
            count = len(setup) if metric["name"] == "setup_s" else len(plain)
            line += f"  (median of {count}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced_passes)},
        "pass_walls_s": {"untraced": walls, "traced": [p["wall_s"] for p in traced_passes]},
        "setup_probes_s": setup,
        "quartiles": spread,
        "fail_share": len(failures) / attempted,
        "attempted": attempted,
        "machine": machine(),
        "versions": good[0]["versions"],
        "metrics": measured,
    }
    line = json.dumps({"record": record})
    print(line)
    with open(root / ".perfbench" / "results.jsonl", "a") as handle:
        handle.write(line + "\n")
    units = {metric["name"]: metric["unit"] for metric in wanted}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
