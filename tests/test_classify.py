"""Tests for the solution-tuple classification module.

Closed-form anchor values used below (circle k1^2 = 2K, the two-curvature
family quadratic, the exact family point (2 - sqrt(2), 2*sqrt(2) - 2)) were
derived independently by brute-force residual checks before being frozen.
"""

import math

import numpy as np
import pytest

from polyhelix.classify import (
    MAX_TRIALS,
    CompiledSystem,
    HelixSpec,
    canonical_pattern,
    negative_K_scan,
    render_squares,
    solve_helix,
    squared_form,
    sum_of_squares_check,
    triharmonic_case_analysis,
)
from polyhelix.frenet import constraint_system
from polyhelix.ratpoly import AMBIENT, CurvaturePolynomial as Poly, ambient, kvar


def family_residual(x1: float, x2: float, K: float = 1.0) -> float:
    return abs((x1 + x2) ** 2 - K * (2 * x1 + x2))


# -- squared-variable rewrite ------------------------------------------------

def test_squared_form_basics():
    p = (kvar(1) ** 2 + kvar(2) ** 2) ** 2 - ambient() * kvar(2) ** 2
    q = squared_form(p)
    assert q == (kvar(1) + kvar(2)) ** 2 - ambient() * kvar(2)


def test_squared_form_rejects_odd_exponents():
    with pytest.raises(ValueError):
        squared_form(kvar(1) ** 3)


def test_render_squares_naming():
    p = squared_form(kvar(2) ** 2 * ambient() + kvar(2) ** 2 * kvar(3) ** 2)
    assert render_squares(p) == "x2*x3 + K*x2"


# -- basic containers --------------------------------------------------------

def test_helix_spec_validation():
    with pytest.raises(ValueError):
        HelixSpec(3, 1.0, (1.0, 2.0))
    spec = HelixSpec(2, 1.0, (0.5, 0.5))
    assert spec.is_proper()
    assert spec.curvature_square_sum() == pytest.approx(0.5)
    assert not HelixSpec(2, 1.0, (0.0, 1.0)).is_proper()


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_helix(7, 1.0)
    with pytest.raises(ValueError):
        solve_helix(3, 1.0, tol=0.0)


@pytest.mark.parametrize("trials", [0, -5])
def test_solver_needs_a_trial(trials):
    with pytest.raises(ValueError, match=f"at least 1 multistart trial, got {trials}"):
        solve_helix(3, 1.0, trials=trials)


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 7**10])
def test_solver_caps_trials_before_allocating(trials):
    with pytest.raises(ValueError, match=f"at most {MAX_TRIALS} multistart trials, got {trials}"):
        solve_helix(6, 1.0, trials=trials)


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
def test_solver_needs_a_finite_K(K):
    with pytest.raises(ValueError, match=f"K must be finite, got {K}"):
        solve_helix(3, K)


# -- multistart solver -------------------------------------------------------

def test_circle_solution_order_three():
    report = solve_helix(3, 1.0, {2, 3, 4}, trials=200)
    assert len(report.solutions) == 1
    sol = report.solutions[0]
    assert sol.spec.curvatures[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert sol.spec.curvatures[1:] == (0.0, 0.0, 0.0)
    assert sol.residual < 1e-10
    assert sol.raw_residual < 1e-9
    assert not report.underdetermined


def test_two_curvature_family_is_sampled():
    report = solve_helix(3, 1.0, {3, 4}, trials=400)
    assert report.underdetermined
    assert len(report.solutions) >= 10
    x1s = []
    for sol in report.solutions:
        x1, x2 = sol.spec.squared()[:2]
        assert family_residual(x1, x2) < 1e-9
        x1s.append(x1)
    assert max(x1s) - min(x1s) > 0.5  # points spread along the family


def test_family_contains_known_exact_point():
    # (x1, x2) = (2 - sqrt 2, 2 sqrt 2 - 2) lies on the family exactly
    x1, x2 = 2.0 - math.sqrt(2.0), 2.0 * math.sqrt(2.0) - 2.0
    assert family_residual(x1, x2) < 1e-13


def test_order_two_solutions_fill_the_circle():
    report = solve_helix(2, 1.0, trials=300)
    assert report.underdetermined
    assert len(report.solutions) >= 5
    for sol in report.solutions:
        x1, x2 = sol.spec.squared()
        assert abs(x1 + x2 - 1.0) < 1e-9


def test_full_order_three_system_has_no_proper_solutions():
    report = solve_helix(3, 1.0, trials=600)
    assert report.proper_solutions() == []


@pytest.mark.parametrize("pattern", [
    (), (1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (2, 4),
    (1, 3), (1, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4),
])
def test_every_solution_satisfies_raw_system(pattern):
    report = solve_helix(3, 1.0, pattern, trials=80)
    for sol in report.solutions:
        assert sol.residual < report.tol
        assert sol.raw_residual < 10 * report.tol


def test_reports_are_reproducible():
    a = solve_helix(3, 1.0, {3, 4}, trials=150).to_json_dict()
    b = solve_helix(3, 1.0, {3, 4}, trials=150).to_json_dict()
    assert a == b


# -- compiled monomial table -------------------------------------------------

@pytest.mark.parametrize("r, pattern", [(2, ()), (3, ()), (4, {3}), (5, ())])
def test_compiled_table_matches_polynomial_evaluation(r, pattern):
    compiled = CompiledSystem(constraint_system(r, pattern))
    n, d = len(compiled.x_equations), compiled.dimension
    assert compiled.exps.shape == (len(compiled.coeffs), d + 1)
    assert compiled.coeffs.shape[1] == n + n * d
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 3.0, (5, d))
    F = compiled.residuals(X, 1.5)
    J = compiled.jacobians(X, 1.5)
    assert F.shape == (5, n) and J.shape == (5, n, d)
    for b, x in enumerate(X):
        assign = {AMBIENT: 1.5, **dict(zip(compiled.unknowns, x))}
        for i, eq in enumerate(compiled.x_equations):
            assert F[b, i] == pytest.approx(eq.evaluate(assign), rel=1e-12, abs=1e-12)
            for j, v in enumerate(compiled.unknowns):
                expected = eq.differentiate(v).evaluate(assign)
                assert J[b, i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- unit-|K| rescaling ------------------------------------------------------

@pytest.mark.parametrize(
    "r, pattern, K, ratio",
    [(3, {2, 3, 4}, 1e7, 2), (3, {2, 3, 4}, 1e300, 2), (4, {2}, 1e8, 3), (3, {2, 3, 4}, 1e-300, 2)],
)
def test_isolated_root_survives_any_magnitude_of_K(r, pattern, K, ratio):
    report = solve_helix(r, K, pattern, trials=50)
    (root,) = report.proper_solutions()
    assert root.spec.K == K
    assert root.spec.curvatures[0] ** 2 == pytest.approx(ratio * K, rel=1e-12)
    assert root.residual < report.tol


def test_roots_scale_exactly_with_K():
    unit = solve_helix(3, 1.0, {3, 4}, trials=150)
    scaled = solve_helix(3, 4.0, {3, 4}, trials=150)
    assert [s.residual for s in scaled.solutions] == [s.residual for s in unit.solutions]
    assert [s.spec.curvatures for s in scaled.solutions] == [
        tuple(2.0 * k for k in s.spec.curvatures) for s in unit.solutions
    ]
    negative = solve_helix(3, -4.0, trials=50)
    assert negative.certificates == solve_helix(3, -1.0, trials=50).certificates


def test_scaling_coherence_circle():
    at_one = solve_helix(3, 1.0, {2, 3, 4}, trials=100)
    at_four = solve_helix(3, 4.0, {2, 3, 4}, trials=100)
    k1 = at_one.solutions[0].spec.curvatures[0]
    k4 = at_four.solutions[0].spec.curvatures[0]
    assert k4 == pytest.approx(2.0 * k1, abs=1e-8)


def test_negative_K_report_carries_certificates():
    report = solve_helix(3, -1.0, trials=200)
    assert report.solutions == ()
    assert report.certificates
    top = [c for c in report.certificates if c["K_multiplier"] == "1"]
    assert top and "x1 + x2 + x3 + x4 - K = 0" == top[0]["equation"]
    assert "negative" in top[0]["reason"]


# -- sum-of-squares identity --------------------------------------------------

def test_sum_of_squares_check_accepts_known_solution():
    root_half = math.sqrt(0.5)
    assert sum_of_squares_check(HelixSpec(2, 1.0, (root_half, root_half)))


def test_sum_of_squares_check_rejects_wrong_sum():
    assert not sum_of_squares_check(HelixSpec(3, 1.0, (1.0, 0.5, 0.5, 0.5)))


def test_sum_of_squares_check_requires_nonzero_curvatures():
    with pytest.raises(ValueError):
        sum_of_squares_check(HelixSpec(2, 1.0, (1.0, 0.0)))


def test_sum_of_squares_check_on_solver_output():
    report = solve_helix(2, 1.0, trials=300)
    interior = [
        s.spec for s in report.solutions if all(k > 0 for k in s.spec.curvatures)
    ]
    assert interior
    for spec in interior:
        assert sum_of_squares_check(spec, tol=1e-8)


# -- order-three case analysis ------------------------------------------------

def test_case_analysis_circle_case():
    report = triharmonic_case_analysis(1.0)
    case = report.case(1)
    assert case.status == "solved"
    assert case.solutions[0].curvatures == pytest.approx(
        (math.sqrt(2.0), 0.0, 0.0, 0.0), abs=1e-12
    )


def test_case_analysis_family_case():
    report = triharmonic_case_analysis(1.0)
    case = report.case(2)
    assert case.status == "family"
    assert len(case.solutions) == 64
    for spec in case.solutions:
        x1, x2 = spec.squared()[:2]
        assert x1 > 0 and x2 > 0
        assert family_residual(x1, x2) < 1e-12


def test_case_analysis_infeasible_cases():
    report = triharmonic_case_analysis(1.0)
    case3, case4 = report.case(3), report.case(4)
    assert case3.status == "infeasible"
    assert case3.certificate == "x2*x3 + K*x2 = 0"
    assert case4.status == "infeasible"
    assert case4.certificate == "x1*x3 + x1*x4 + K*x1 + x2*x4 = 0"
    assert any("contradiction" in line for line in case3.derivation)


def test_case_analysis_merged_cases():
    report = triharmonic_case_analysis(1.0)
    assert report.case(5).merged_into == 1
    assert report.case(5).status == report.case(1).status
    assert report.case(6).merged_into == 2
    assert len(report.case(6).solutions) == len(report.case(2).solutions)


def test_case_analysis_covers_every_pattern():
    report = triharmonic_case_analysis(1.0)
    assert len(report.pattern_map) == 8
    assert set(report.pattern_map.values()) == {1, 2, 3, 4, 5, 6}


def test_case_analysis_scaling():
    at_one = triharmonic_case_analysis(1.0)
    at_four = triharmonic_case_analysis(4.0)
    for c1, c4 in zip(at_one.case(2).solutions, at_four.case(2).solutions):
        for a, b in zip(c1.curvatures, c4.curvatures):
            assert b == pytest.approx(2.0 * a, abs=1e-12)


def test_case_analysis_nonpositive_K_is_empty():
    report = triharmonic_case_analysis(-1.0)
    for case in report.cases:
        assert case.status == "infeasible"
        assert case.solutions == ()


# -- negative curvature rigidity ----------------------------------------------

def test_canonical_pattern_upward_closure():
    assert canonical_pattern((), 4) == ()
    assert canonical_pattern({2}, 4) == (2, 3, 4)
    assert canonical_pattern({3, 1}, 4) == (1, 2, 3, 4)


def test_negative_scan_argument_validation():
    with pytest.raises(ValueError):
        negative_K_scan(3, 1.0)
    with pytest.raises(ValueError):
        negative_K_scan(3, -1.0, trials=10)


@pytest.mark.parametrize("r", [3, 4])
def test_negative_scan_finds_no_proper_solutions(r):
    report = negative_K_scan(r, -1.0, trials=1000)
    assert report.proper_solution_count() == 0
    assert len(report.reports) == 2 * r - 1
    assert sum(report.merged_counts) == 2 ** (2 * r - 2)
    assert "no solution" in report.witness
    # the unrestricted pattern carries the sum-of-squares certificate
    full = [rep for rep in report.reports if rep.zero_pattern == ()]
    assert full and any(c["K_multiplier"] == "1" for c in full[0].certificates)
