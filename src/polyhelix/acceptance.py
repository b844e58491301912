"""Registry of the pass/fail criteria that certify this package.

Every criterion is a self-contained runner returning a verdict and a short
detail line.  The command line ``reproduce`` subcommand and the acceptance
test suite both execute this registry, so they always certify the same
statements at the same tolerances.

The golden polynomial forms frozen below were cross-checked against an
independent symbolic oracle before freezing; the numerical constants come
from the closed-form solution curves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import classify, frenet, odelab, spherecurves
from .ratpoly import CurvaturePolynomial as Poly, ambient, kvar


def _squares(*idx: int) -> Poly:
    total = Poly.zero()
    for i in idx:
        total = total + kvar(i) ** 2
    return total


def _product(*idx: int) -> Poly:
    out = Poly.constant(1)
    for i in idx:
        out = out * kvar(i)
    return out


# -- criterion runners -------------------------------------------------------

def _golden_expansions() -> dict[tuple[int, int], dict[int, Poly]]:
    """The seven distinct covariant tangent derivative expansions, keyed by
    (derivative order, curvature truncation)."""
    k1, k2, k3, k4, k5 = (kvar(i) for i in range(1, 6))
    shared = {
        (2, 4): {1: -(k1**2), 3: _product(1, 2)},
        (3, 4): {2: -k1 * _squares(1, 2), 4: _product(1, 2, 3)},
        (4, 4): {
            1: k1**2 * _squares(1, 2),
            3: -_product(1, 2) * _squares(1, 2, 3),
            5: _product(1, 2, 3, 4),
        },
        (5, 4): {
            2: k1 * (_squares(1, 2) ** 2 + _product(2, 3) ** 2),
            4: -_product(1, 2, 3) * _squares(1, 2, 3, 4),
        },
        (5, 6): {
            2: k1 * (_squares(1, 2) ** 2 + _product(2, 3) ** 2),
            4: -_product(1, 2, 3) * _squares(1, 2, 3, 4),
            6: _product(1, 2, 3, 4, 5),
        },
        (6, 6): {
            1: -(k1**2) * (_squares(1, 2) ** 2 + _product(2, 3) ** 2),
            3: _product(1, 2)
            * (
                _squares(1, 2) ** 2
                + k3**2 * (k1**2 + 2 * k2**2 + k3**2 + k4**2)
            ),
            5: -_product(1, 2, 3, 4) * _squares(1, 2, 3, 4, 5),
            7: _product(1, 2, 3, 4, 5, 6),
        },
        (7, 6): {
            2: -k1
            * (
                _squares(1, 2) ** 3
                + _product(2, 3) ** 2 * (2 * k1**2 + 2 * k2**2 + k3**2 + k4**2)
            ),
            4: _product(1, 2, 3)
            * (
                _squares(1, 2) ** 2
                + _squares(3, 4) ** 2
                + _product(1, 3) ** 2
                + 2 * _product(2, 3) ** 2
                + k4**2 * (_squares(1, 2) + k5**2)
            ),
            6: -_product(1, 2, 3, 4, 5) * _squares(1, 2, 3, 4, 5, 6),
        },
    }
    return shared


def _run_expansions() -> tuple[bool, str]:
    golden = _golden_expansions()
    for (order, truncation), frames in golden.items():
        value = frenet.iterated_derivative(order, truncation)
        if value.frames() != sorted(frames):
            return False, f"order {order} produced frames {value.frames()}"
        for frame, poly in frames.items():
            if value.coefficient(frame) != poly:
                return False, f"order {order} frame {frame} differs"
    return True, f"{len(golden)} expansions exact"


def _golden_systems() -> dict[int, list[tuple[Poly, Poly]]]:
    """Expected (monomial gcd, factored polynomial) pairs for the order-three
    and order-four helix constraint systems."""
    k1, k2, k3, k4, k5 = (kvar(i) for i in range(1, 6))
    K = ambient()
    return {
        3: [
            (
                k1,
                _squares(1, 2) ** 2
                + _product(2, 3) ** 2
                - K * (2 * k1**2 + k2**2),
            ),
            (-_product(1, 2, 3), _squares(1, 2, 3, 4) - K),
        ],
        4: [
            (
                -k1,
                _squares(1, 2) ** 3
                + _product(2, 3) ** 2 * (2 * k1**2 + 2 * k2**2 + k3**2 + k4**2)
                - K * (_squares(1, 2) ** 2 + _product(2, 3) ** 2)
                - 2 * K * k1**2 * _squares(1, 2),
            ),
            (
                _product(1, 2, 3),
                _squares(1, 2) ** 2
                + _squares(3, 4) ** 2
                + _product(1, 3) ** 2
                + 2 * _product(2, 3) ** 2
                + k4**2 * (_squares(1, 2) + k5**2)
                - K * (2 * k1**2 + k2**2 + k3**2 + k4**2),
            ),
            (-_product(1, 2, 3, 4, 5), _squares(1, 2, 3, 4, 5, 6) - K),
        ],
    }


def _run_systems() -> tuple[bool, str]:
    for order, expected in _golden_systems().items():
        system = frenet.constraint_system(order)
        if len(system.equations) != len(expected):
            return False, f"order {order}: {len(system.equations)} equations"
        for eq, (gcd, factored) in zip(system.equations, expected):
            if eq.gcd != gcd:
                return False, f"order {order} frame {eq.frame}: gcd differs"
            if eq.factored != factored:
                return False, f"order {order} frame {eq.frame}: factored differs"
            if not eq.check_split():
                return False, f"order {order} frame {eq.frame}: raw != gcd*factored"
    return True, "order-3 and order-4 systems exact, splits verified"


def _run_top_equation() -> tuple[bool, str]:
    for r in range(2, 7):
        system = frenet.constraint_system(r)
        top = system.equations[-1]
        expected = _squares(*range(1, 2 * r - 1)) - ambient()
        if top.frame != 2 * r - 2 or top.factored != expected:
            return False, f"order {r} top equation differs"
    return True, "top equation is sum of squared curvatures minus K for r=2..6"


def _run_biharmonic() -> tuple[bool, str]:
    tol = spherecurves.TOLERANCES["equation_residual"]
    worst = spherecurves.equation_residual(spherecurves.biharmonic_circle(), 2)
    worst = max(worst, spherecurves.equation_residual(spherecurves.great_circle(), 2))
    for a2, b2 in ((1.5, 0.5), (1.2, 0.8), (1.75, 0.25)):
        curve = spherecurves.biharmonic_two_freq(a2, b2)
        worst = max(worst, spherecurves.equation_residual(curve, 2))
    if worst >= tol:
        return False, f"max residual {worst:.3e} >= {tol}"
    return True, f"max residual {worst:.3e} over circle, great circle, 3 two-frequency curves"


def _run_triharmonic() -> tuple[bool, str]:
    planar = spherecurves.intrinsic_tau_residual(spherecurves.tri_planar(), 3)
    if planar >= spherecurves.TOLERANCES["tension_residual"]:
        return False, f"planar curve residual {planar:.3e}"
    family = spherecurves.tri_hyperbola_family(32)
    if len(family) < 16:
        return False, f"only {len(family)} admissible family samples"
    worst_tau = max(s.tau3_residual for s in family)
    worst_quartic = max(s.quartic_residual for s in family)
    worst_lambda = max(s.lambda_residual for s in family)
    if worst_tau >= spherecurves.TOLERANCES["tension_residual"]:
        return False, f"family tension residual {worst_tau:.3e}"
    if worst_quartic >= spherecurves.TOLERANCES["quartic_residual"]:
        return False, f"family quartic residual {worst_quartic:.3e}"
    if worst_lambda >= spherecurves.TOLERANCES["multiplier_residual"]:
        return False, f"family multiplier residual {worst_lambda:.3e}"
    return True, (
        f"planar {planar:.1e}; {len(family)} family samples, "
        f"tension <= {worst_tau:.1e}, quartic <= {worst_quartic:.1e}, "
        f"multiplier <= {worst_lambda:.1e}"
    )


def _run_fourharmonic() -> tuple[bool, str]:
    curve = spherecurves.four_planar()
    ode = spherecurves.equation_residual(curve, 4)
    tau = spherecurves.intrinsic_tau_residual(curve, 4)
    control = spherecurves.equation_residual(spherecurves.biharmonic_circle(), 4)
    if ode >= spherecurves.TOLERANCES["fourth_order_residual"]:
        return False, f"solution curve residual {ode:.3e}"
    if tau >= spherecurves.TOLERANCES["tension_residual"]:
        return False, f"solution tension residual {tau:.3e}"
    if control <= 0.1:
        return False, f"control curve residual {control:.3e} not > 0.1"
    return True, f"solution {ode:.1e} / {tau:.1e}, control curve fails at {control:.3f}"


def _run_curvature_values() -> tuple[bool, str]:
    expected = (
        (spherecurves.biharmonic_circle(), 1.0),
        (spherecurves.tri_planar(), math.sqrt(2.0)),
        (spherecurves.four_planar(), math.sqrt(3.0)),
    )
    for curve, k1 in expected:
        got = spherecurves.geodesic_curvatures(curve, 1)[0]
        if abs(got - k1) >= 1e-10:
            return False, f"k1 = {got!r}, expected {k1!r}"
    return True, "k1 values 1, sqrt2, sqrt3 to 1e-10"


def _run_first_variation(seed: int) -> tuple[bool, str]:
    certified = (
        (spherecurves.biharmonic_circle(), 2),
        (spherecurves.biharmonic_two_freq(), 2),
        (spherecurves.tri_planar(), 3),
        (spherecurves.tri_hyperbola_curve(2.0), 3),
        (spherecurves.four_planar(), 4),
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for curve, order in certified:
        bumps = [spherecurves.random_bump(curve.dimension, rng) for _ in range(10)]
        for value in map(abs, spherecurves.first_variation(curve, order, bumps)):
            worst = max(worst, value)
            if value > 1e-5:
                return False, f"order-{order} variation {value:.3e} > 1e-5"
    mismatched = 0.0
    curve = spherecurves.tri_planar()
    bumps = [spherecurves.random_bump(curve.dimension, rng) for _ in range(10)]
    for value in spherecurves.first_variation(curve, 2, bumps):
        mismatched = max(mismatched, abs(value))
    if mismatched <= 1e-3:
        return False, f"wrong-order variation only {mismatched:.3e}"
    return True, (
        f"50 matched-order bumps <= {worst:.1e}; "
        f"wrong-order control reaches {mismatched:.2e}"
    )


def _run_negative_curvature() -> tuple[bool, str]:
    counts = []
    for r in (3, 4):
        report = classify.negative_K_scan(r, -1.0).to_json_dict()
        proper = report["proper_solutions"]
        if proper:
            return False, f"order {r} found {proper} proper solutions at K=-1"
        if not report["witness"]:
            return False, f"order {r} emitted no infeasibility certificate"
        counts.append(len(report["patterns"]))
    return True, (
        f"orders 3 and 4: zero proper solutions over {counts[0]} and "
        f"{counts[1]} zero patterns, certificates emitted"
    )


def _run_conservation() -> tuple[bool, str]:
    curve = spherecurves.tri_planar()
    samples = odelab.sample_trig_curve(curve, (0.0, curve.period()), 513)
    tri_report = odelab.conservation_monitor_tri(samples, 1.0)
    if tri_report.drift >= 1e-6:
        return False, f"closed-form drift {tri_report.drift:.3e}"

    profile = odelab.parse_profile("k1=1/s,k2=2/s")
    trajectory = odelab.integrate_frenet(profile, 3, (1.0, 3.0), 1e-3)
    flat_report = odelab.conservation_monitor_tri(trajectory, 0.0)
    if abs(flat_report.empirical_constant) >= 1e-5:
        return False, f"flat constant {flat_report.empirical_constant:.3e}"

    s = np.linspace(1.0, 3.0, 201)
    law = odelab.curvature_ode_residual(profile, 0.0, s)
    if law >= 1e-13:
        return False, f"square-sum-five law residual {law:.3e}"
    short = odelab.parse_profile(f"k1=1/s,k2={math.sqrt(3.0)!r}/s")
    values = odelab.curvature_ode_values(short, 0.0, s)
    shape = float(np.abs(values - 1.0 / s**4).max())
    if shape >= 1e-12:
        return False, f"square-sum-four residual shape off by {shape:.3e}"
    return True, (
        f"drift {tri_report.drift:.1e}, flat constant "
        f"{flat_report.empirical_constant:.1e}, law {law:.1e}, "
        f"shape defect {shape:.1e}"
    )


def _run_conjecture() -> tuple[bool, str]:
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    rows = odelab.conjecture_scan(3, 1.0, grid, (1.0, 3.0))
    best = min(rows, key=lambda row: row.law_residual)
    if best.beta != 2.0:
        return False, f"order-3 scan minimum at beta={best.beta}"
    table = odelab.conjecture_scan(4, 1.0, [0.0, 1.0, 2.0], (1.0, 3.0))
    if len(table) != 3:
        return False, "order-4 scan did not emit its table"
    powers = {power for row in table for power, _ in row.scaling}
    return True, (
        f"order-3 minimum at beta^2 = {best.beta**2:g}; order-4 table emitted "
        f"({len(table)} rows, all scaling terms at power {sorted(powers)})"
    )


def _run_integrator() -> tuple[bool, str]:
    profile = odelab.parse_profile("k1=1")
    exact = np.array([math.sin(10.0), 1.0 - math.cos(10.0)])

    def endpoint_error(h: float) -> float:
        samples = odelab.integrate_frenet(profile, 2, (0.0, 10.0), h)
        return float(np.linalg.norm(samples.positions[-1] - exact))

    ratio = endpoint_error(1e-2) / endpoint_error(5e-3)
    if ratio < 8.0:
        return False, f"halving ratio {ratio:.2f} < 8"
    helix = odelab.parse_profile("k1=0.6,k2=0.4,k3=0.3")
    long_run = odelab.integrate_frenet(helix, 4, (0.0, 100.0), 1e-2)
    defect = long_run.gram_defect()
    if defect >= 1e-8:
        return False, f"frame defect {defect:.3e} over span 100"
    return True, f"halving ratio {ratio:.1f}, span-100 frame defect {defect:.1e}"


# -- registry ----------------------------------------------------------------

@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    tags: tuple[str, ...]
    limit_seconds: float
    runner: Callable[..., tuple[bool, str]]
    needs_seed: bool = False


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    tags: tuple[str, ...]
    passed: bool
    detail: str
    elapsed: float
    limit_seconds: float

    @property
    def within_limit(self) -> bool:
        return self.elapsed <= self.limit_seconds

    @property
    def ok(self) -> bool:
        return self.passed and self.within_limit

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        note = "" if self.within_limit else f" [over {self.limit_seconds:g}s limit]"
        return (
            f"[{status}] {self.number:2d} {self.name}: {self.detail} "
            f"({self.elapsed:.2f}s{note})"
        )

    def to_json_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "tags": list(self.tags),
            "passed": self.ok,
            "detail": self.detail,
            "limit_seconds": self.limit_seconds,
        }


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "frame derivative expansions", ("symbolic",), 1.0, _run_expansions),
    Criterion(2, "helix constraint systems", ("symbolic",), 1.0, _run_systems),
    Criterion(3, "top equation curvature sum", ("symbolic",), 10.0, _run_top_equation),
    Criterion(4, "biharmonic sphere curves", ("numeric", "sphere"), 1.0, _run_biharmonic),
    Criterion(5, "triharmonic sphere curves", ("numeric", "sphere"), 5.0, _run_triharmonic),
    Criterion(6, "fourharmonic sphere curve", ("numeric", "sphere"), 2.0, _run_fourharmonic),
    Criterion(7, "geodesic curvature values", ("numeric", "sphere"), 1.0, _run_curvature_values),
    Criterion(8, "variational stationarity", ("numeric", "variational"), 30.0, _run_first_variation, True),
    Criterion(9, "negative curvature rigidity", ("numeric", "classify"), 10.0, _run_negative_curvature),
    Criterion(10, "conservation laws", ("numeric", "conservation"), 10.0, _run_conservation),
    Criterion(11, "inverse power profile scan", ("numeric", "conjecture"), 30.0, _run_conjecture),
    Criterion(12, "integrator order", ("numeric", "integrator"), 5.0, _run_integrator),
)


def select_criteria(only: str | None) -> list[Criterion]:
    """Criteria whose tag, number or name matches the filter (all when None)."""
    if only is None:
        return list(CRITERIA)
    needle = only.strip().lower()
    chosen = [
        c
        for c in CRITERIA
        if needle in c.tags or needle == str(c.number) or needle in c.name
    ]
    if not chosen:
        raise ValueError(f"no acceptance criteria match {only!r}")
    return chosen


def run_criterion(criterion: Criterion, seed: int = 42) -> CriterionResult:
    start = time.perf_counter()
    try:
        if criterion.needs_seed:
            passed, detail = criterion.runner(seed)
        else:
            passed, detail = criterion.runner()
    except Exception as error:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(error).__name__}: {error}"
    elapsed = time.perf_counter() - start
    return CriterionResult(
        number=criterion.number,
        name=criterion.name,
        tags=criterion.tags,
        passed=passed,
        detail=detail,
        elapsed=elapsed,
        limit_seconds=criterion.limit_seconds,
    )


def run_all(only: str | None = None, seed: int = 42) -> list[CriterionResult]:
    return [run_criterion(c, seed) for c in select_criteria(only)]


def summary_lines(results: Sequence[CriterionResult]) -> list[str]:
    lines = [r.line() for r in results]
    good = sum(r.ok for r in results)
    lines.append(f"{good}/{len(results)} criteria passed")
    return lines
