"""Span recorder for the traced benchmark pass, and the self-time arithmetic.

The recorder wraps public functions of the ``polyhelix`` modules from the
outside; no file of the package changes.  Each wrapped call appends one span
``[span_id, parent_id, name, start_ns, end_ns]`` to an in-memory list, and the
child process writes the list out, tagged with its run id, when the pass ends.
Work counts (Newton starts, RK4 steps, report bytes) are taken at the same
boundaries from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

MODULES = ("ratpoly", "frenet", "classify", "spherecurves", "odelab", "acceptance", "cli")


# Counters and computed span names receive the call's bound arguments.

def _count_solve(counts, arguments, report):
    counts["classify.newton_starts"] += report.starts
    counts["classify.roots"] += len(report.solutions)


def _count_rk4(counts, arguments, samples):
    # integrate_frenet runs RK4 over the span at step h and again at h/2 for
    # its error estimate: 3 x steps in all.
    span, h = arguments["span"], arguments["h"]
    counts["odelab.rk4_steps"] += 3 * int(round((span[1] - span[0]) / h))


def _count_report(counts, arguments, code):
    argv = arguments["argv"]
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.report_bytes"] += os.path.getsize(path)


def _criterion_span(arguments):
    return f"acceptance.c{arguments['criterion'].number:02d}"


# (module, attribute or Class.attribute, span name or name-from-arguments, counter)
TARGETS = (
    ("ratpoly", "CurvaturePolynomial.__mul__", "ratpoly.mul", None),
    ("ratpoly", "CurvaturePolynomial.__add__", "ratpoly.add", None),
    ("ratpoly", "CurvaturePolynomial.substitute", "ratpoly.substitute", None),
    ("ratpoly", "CurvaturePolynomial.substitute_zero", "ratpoly.substitute", None),
    ("ratpoly", "CurvaturePolynomial.factor_monomial_gcd", "ratpoly.factor_gcd", None),
    ("ratpoly", "CurvaturePolynomial.differentiate", "ratpoly.differentiate", None),
    ("ratpoly", "CurvaturePolynomial.render", "ratpoly.render", None),
    ("ratpoly", "CurvaturePolynomial.render_latex", "ratpoly.render", None),
    ("frenet", "frenet_derivative", "frenet.frenet_derivative", None),
    ("frenet", "tau_space_form", "frenet.tau_space_form", None),
    ("frenet", "constraint_system", "frenet.constraint_system", None),
    ("classify", "solve_helix", "classify.solve_helix", _count_solve),
    ("classify", "CompiledSystem.__init__", "classify.compile", None),
    ("classify", "CompiledSystem.residuals", "classify.residuals", None),
    ("classify", "CompiledSystem.jacobians", "classify.jacobians", None),
    ("classify", "negative_K_scan", "classify.negative_K_scan", None),
    ("spherecurves", "first_variation", "spherecurves.first_variation", None),
    ("spherecurves", "BumpPerturbation.jet", "spherecurves.bump_jet", None),
    ("spherecurves", "intrinsic_tau_residual", "spherecurves.intrinsic_tau_residual", None),
    ("spherecurves", "geodesic_curvatures", "spherecurves.geodesic_curvatures", None),
    ("spherecurves", "tri_hyperbola_family", "spherecurves.tri_hyperbola_family", None),
    ("odelab", "integrate_frenet", "odelab.integrate_frenet", _count_rk4),
    ("odelab", "central_difference", "odelab.central_difference", None),
    ("odelab", "fornberg_weights", "odelab.fornberg_weights", None),
    ("odelab", "conservation_monitor_tri", "odelab.monitor", None),
    ("odelab", "conservation_monitor_four", "odelab.monitor", None),
    ("odelab", "conjecture_scan", "odelab.conjecture_scan", None),
    ("odelab", "flat_tangent_chain", "odelab.flat_tangent_chain", None),
    ("acceptance", "run_criterion", _criterion_span, None),
    ("cli", "dispatch", "cli.dispatch", _count_report),
)

COUNTS = ("classify.newton_starts", "classify.roots", "odelab.rk4_steps", "cli.report_bytes")


class Recorder:
    """In-memory spans of one pass; single-threaded, strictly nested."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        signature = inspect.signature(fn)

        def arguments(args, kwargs) -> dict:
            return signature.bind(*args, **kwargs).arguments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [
                len(spans),
                stack[-1] if stack else None,
                name if isinstance(name, str) else name(arguments(args, kwargs)),
                clock(),
                0,
            ]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, arguments(args, kwargs), result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}


def install(recorder: Recorder) -> None:
    """Wrap every target wherever a ``polyhelix`` module or class binds it,
    aliases such as ``__rmul__`` and ``classify.constraint_system`` included.
    A target that no longer exists raises, so a rename cannot silently drop
    a layer from the trace."""
    for name in MODULES:
        importlib.import_module(f"polyhelix.{name}")
    namespaces = [
        module for key, module in sys.modules.items()
        if key == "polyhelix" or key.startswith("polyhelix.")
    ]
    for module_name, path, span_name, counter in TARGETS:
        owner = sys.modules[f"polyhelix.{module_name}"]
        *classes, attribute = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[attribute]
        wrapper = recorder.wrap(span_name, original, counter)
        holders = [owner] if classes else namespaces
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)


def self_times(spans: list[list], start_ns: int, end_ns: int) -> dict:
    """Per-name call counts, self and inclusive times (ns), plus the time of
    the pass outside every span.  A span's self time is its duration minus
    the durations of its direct children; the self times of all spans plus
    the unwrapped remainder add up to the pass's wall time exactly."""
    child_ns = [0] * len(spans)
    for span_id, parent, _name, start, end in spans:
        if end < start:
            raise ValueError(f"span {span_id} ends before it starts")
        if parent is None:
            if start < start_ns or end > end_ns:
                raise ValueError(f"root span {span_id} lies outside the pass")
            continue
        _, _, _, p_start, p_end = spans[parent]
        if start < p_start or end > p_end:
            raise ValueError(f"span {span_id} is not nested in its parent {parent}")
        child_ns[parent] += end - start
    layers: dict[str, dict] = {}
    covered = 0
    for (span_id, parent, name, start, end), inner in zip(spans, child_ns):
        entry = layers.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - inner
        entry["total_ns"] += end - start
        if parent is None:
            covered += end - start
    wall = end_ns - start_ns
    unwrapped = wall - covered
    if unwrapped < 0:
        raise ValueError("root spans overlap")
    if sum(e["self_ns"] for e in layers.values()) + unwrapped != wall:
        raise ValueError("self times and remainder do not add up to the wall time")
    return {"layers": layers, "unwrapped_ns": unwrapped, "wall_ns": wall}
