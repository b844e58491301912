"""Tests for the solution-tuple classification module.

Closed-form anchor values used below (circle k1^2 = 2K, the two-curvature
family quadratic, the exact family point (2 - sqrt(2), 2*sqrt(2) - 2)) were
derived independently by brute-force residual checks before being frozen.
The case analysis by zero pattern is stated as exact ring identities: the
circle and family equations for every derivable order, at order three a
multiplier that certifies the remaining patterns empty, and for orders 3..8
the positive combination of frames 2 and 4 that leaves every system keeping
k3 free without a root with k1 > 0.  At K > 0 every other canonical system
of orders 2..8 is a closed form (circle, arc or order-two segment); its
reported points are checked as exact roots, and the reference Newton loop
below, which still runs here, must find no root with k1 > 0 off that set.
Orders 9 and 10 are checked on their full, circle and arc systems.
"""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from polyhelix import classify
from polyhelix.classify import (
    CLOSED_FORM_POINTS,
    ClosedForm,
    CompiledSystem,
    canonical_pattern,
    negative_K_scan,
    render_squares,
    solve_helix,
)
from polyhelix.frenet import (
    MAX_TENSION_ORDER,
    ConstraintEquation,
    ConstraintSystem,
    constraint_system,
)
from polyhelix.ratpoly import AMBIENT, CurvaturePolynomial as Poly, Monomial, ambient, kvar

# the per-pattern tests decide every canonical system up to this order;
# above it, up to MAX_TENSION_ORDER, only the full, circle and arc systems
# are checked, which keeps them within tier-1's time
EXHAUSTIVE_ORDER = 8


def evaluate(poly: Poly, point: dict[int, float]) -> float:
    """``poly`` in floats at ``point`` (variable id to value): the oracle for
    the compiled tables and for the raw systems."""
    return sum(
        float(coeff) * math.prod(point[v] ** e for v, e in mono.exps)
        for mono, coeff in poly.terms()
    )


def family_residual(x1: float, x2: float, K: float = 1.0) -> float:
    return abs((x1 + x2) ** 2 - K * (2 * x1 + x2))


def exact_value(poly: Poly, point: dict[int, Fraction]) -> Fraction:
    """``poly`` at ``point`` in exact arithmetic, term by term."""
    return sum(
        coeff * math.prod(point[v] ** e for v, e in mono.exps) for mono, coeff in poly.terms()
    )


def on_exact_set(report, ks, tol: float = 1e-8) -> bool:
    """Whether curvatures ``ks`` at ``report.K`` lie on the report's closed
    form, to ``tol`` in the squared curvatures of the unit system."""
    r, kind = report.order, report.exact_set.kind
    x = [k * k / report.K for k in ks]
    if any(x[2:]) or (kind == "circle" and x[1]):
        return False
    if kind == "circle":
        return abs(x[0] - (r - 1)) < tol
    if kind == "segment":
        return 0 < x[0] <= 1 + tol and abs(x[0] + x[1] - 1) < tol
    t = x[0] + x[1]
    return 1 < t <= r - 1 + tol and abs(x[0] - t * (t - 1) / (r - 2)) < tol


# -- squared-variable rewrite ------------------------------------------------

def test_squared_form_basics():
    p = (kvar(1) ** 2 + kvar(2) ** 2) ** 2 - ambient() * kvar(2) ** 2
    q = p.squared_form()
    assert q == (kvar(1) + kvar(2)) ** 2 - ambient() * kvar(2)


def test_squared_form_rejects_odd_exponents():
    with pytest.raises(ValueError):
        (kvar(1) ** 3).squared_form()


def test_render_squares_naming():
    p = (kvar(2) ** 2 * ambient() + kvar(2) ** 2 * kvar(3) ** 2).squared_form()
    assert render_squares(p) == "x2*x3 + K*x2"


# -- basic containers --------------------------------------------------------

def test_solver_argument_validation():
    too_high = MAX_TENSION_ORDER + 1
    with pytest.raises(ValueError, match=f"between 2 and {MAX_TENSION_ORDER}, got {too_high}"):
        solve_helix(too_high, 1.0)
    with pytest.raises(ValueError, match="got 1"):
        solve_helix(1, 1.0)


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
def test_solver_needs_a_finite_K(K):
    with pytest.raises(ValueError, match=f"K must be finite, got {K}"):
        solve_helix(3, K)


# -- the exact solver -------------------------------------------------------

def test_circle_solution_order_three():
    report = solve_helix(3, 1.0, {2, 3, 4})
    assert len(report.solutions) == 1
    sol = report.solutions[0]
    assert sol.curvatures[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert sol.curvatures[1:] == (0.0, 0.0, 0.0)
    assert sol.residual < 1e-10
    assert not report.underdetermined


@pytest.mark.parametrize("r", range(2, EXHAUSTIVE_ORDER + 1))
def test_planar_circle_at_every_order(r):
    # with k2 = 0 only k1 is left: the planar circle k1^2 = (r - 1) K
    report = solve_helix(r, 1.0, {2})
    (root,) = report.proper_solutions()
    assert root.curvatures[0] ** 2 == pytest.approx(r - 1, rel=1e-12)
    assert root.curvatures[1:] == (0.0,) * (2 * r - 3)


def test_two_curvature_family_is_sampled():
    # the solver reports the family exactly; the reference Newton loop
    # samples it, and every one of its roots with k1 > 0 lies on that arc
    report = solve_helix(3, 1.0, {3, 4})
    assert report.underdetermined
    assert report.exact_set.kind == "arc"
    found = reference_curvatures(3, 1.0, (3, 4), trials=400)
    proper = found[found[:, 0] > 0]
    assert len(proper) >= 10
    x1s = []
    for ks in proper:
        x1, x2 = (k * k for k in ks[:2])
        assert family_residual(x1, x2) < 1e-9
        assert on_exact_set(report, ks)
        x1s.append(x1)
    assert max(x1s) - min(x1s) > 0.5  # points spread along the family


def test_family_contains_known_exact_point():
    # (x1, x2) = (2 - sqrt 2, 2 sqrt 2 - 2) lies on the family exactly
    x1, x2 = 2.0 - math.sqrt(2.0), 2.0 * math.sqrt(2.0) - 2.0
    assert family_residual(x1, x2) < 1e-13


def test_order_two_solutions_fill_the_circle():
    report = solve_helix(2, 1.0)
    assert report.underdetermined
    assert len(report.solutions) >= 5
    for sol in report.solutions:
        x1, x2 = (k * k for k in sol.curvatures)
        assert abs(x1 + x2 - 1.0) < 1e-9


def test_full_order_three_system_has_no_proper_solutions():
    report = solve_helix(3, 1.0)
    assert report.proper_solutions() == []


@pytest.mark.parametrize("r, zeros", [(3, {3, 4}), (2, set()), (3, set()), (4, {2})])
def test_flat_ambient_reports_the_geodesic(r, zeros):
    # at K = 0 the only nonnegative root is x = 0, on the corner of the orthant;
    # the exact decision reports it once and runs no start
    report = solve_helix(r, 0.0, zeros)
    assert [s.curvatures for s in report.solutions] == [(0.0,) * (2 * r - 2)]
    assert report.solutions[0].residual == 0.0
    assert report.proper_solutions() == []
    assert report.starts == 0


@pytest.mark.parametrize("pattern", [
    (), (1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (2, 4),
    (1, 3), (1, 4), (2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4),
])
def test_every_solution_satisfies_raw_system(pattern):
    report = solve_helix(3, 1.0, pattern)
    raw = [eq.raw for eq in constraint_system(3, set(pattern)).equations]
    for sol in report.solutions:
        assert sol.residual < 1e-10
        point = {AMBIENT: report.K, **dict(enumerate(sol.curvatures, 1))}
        assert max((abs(evaluate(eq, point)) for eq in raw), default=0.0) < 1e-9


def test_reports_are_reproducible():
    a = solve_helix(3, 1.0, {3, 4}).to_json_dict()
    b = solve_helix(3, 1.0, {3, 4}).to_json_dict()
    assert a == b


# -- exact evaluation --------------------------------------------------------

@pytest.mark.parametrize("r, pattern", [(2, ()), (3, ()), (4, {3}), (5, ())])
def test_compiled_table_matches_polynomial_evaluation(r, pattern):
    # the exact residuals and Jacobians at rational points equal each squared
    # equation, and its partial derivatives, evaluated term by term
    compiled = CompiledSystem(constraint_system(r, pattern))
    unknowns = compiled.unknowns
    assert [eq.factored.squared_form() for eq in constraint_system(r, pattern).equations] == (
        compiled.x_equations
    )
    K = Fraction(3, 2)
    points = [
        tuple(Fraction(3 * i + j, 4 + i) for j in range(len(unknowns))) for i in range(3)
    ] + [(0,) * len(unknowns)]
    F = compiled.residuals(points, K)
    J = compiled.jacobians(points, K)
    assert len(F) == len(J) == len(points)
    for point, values, rows in zip(points, F, J):
        assign = {AMBIENT: K, **dict(zip(unknowns, point))}
        assert values == tuple(exact_value(eq, assign) for eq in compiled.x_equations)
        assert rows == tuple(
            tuple(exact_value(eq.differentiate(v), assign) for v in unknowns)
            for eq in compiled.x_equations
        )
    assert any(any(values) for values in F)


# -- reference Newton loop --------------------------------------------------

CURVATURE_TOL = 1e-12
# the oracle's starts: a grid of this many points per unknown, jittered; two
# roots closer than DEDUP_TOL in max-norm are one, and a coordinate below
# SNAP_TOL is snapped to 0 where the point stays a root
GRID_POINTS_PER_DIM = 7
DEDUP_TOL = 1e-8
SNAP_TOL = 1e-12


def monomial_table(polys: list[Poly], columns: tuple[int, ...]):
    """One float table for ``polys``: the distinct monomials as rows of
    exponents over ``columns``, and one coefficient column per polynomial."""
    rows: dict[Monomial, int] = {}
    for poly in polys:
        for mono, _ in poly.terms():
            rows.setdefault(mono, len(rows))
    exps = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for mono, row in rows.items():
        for vid, e in mono.exps:
            exps[row, columns.index(vid)] = e
    coeffs = np.zeros((len(rows), len(polys)))
    for k, poly in enumerate(polys):
        for mono, coeff in poly.terms():
            coeffs[rows[mono], k] = float(coeff)
    return exps, coeffs


def reference_curvatures(r, K, pattern, trials, seed=42, tol=1e-10):
    """A multistart solve as a fixed 60-iteration Newton loop over every
    start, with minimum-norm steps ``-pinv(J) F`` and the power table built
    by ``**``: the oracle the exact answers are checked against.  The starts
    fill a jittered grid over ``[0, hi]^d``; converged nonnegative points are
    snapped, sorted and deduplicated.  Returns the curvature rows of the
    accepted roots."""
    system = constraint_system(r, set(pattern))
    x_equations = [eq.factored.squared_form() for eq in system.equations]
    unknowns = tuple(sorted(set().union(*(p.variables() for p in x_equations)) - {AMBIENT}))
    n, d = len(x_equations), len(unknowns)
    polys = x_equations + [p.differentiate(v) for p in x_equations for v in unknowns]
    exps, coeffs = monomial_table(polys, (AMBIENT,) + unknowns)
    scale = abs(K) or 1.0
    unit_K = K / scale

    def table(X):
        full = np.hstack([np.full((len(X), 1), unit_K), X])
        return (full[:, None, :] ** exps).prod(axis=2)

    def residuals(X):
        return table(X) @ coeffs[:, :n]

    def jacobians(X):
        return (table(X) @ coeffs[:, n:]).reshape(len(X), n, d)

    hi = 4.0 * abs(unit_K) + 4.0
    axis = np.linspace(0.0, hi, GRID_POINTS_PER_DIM)
    grid_size = GRID_POINTS_PER_DIM**d
    rng = np.random.default_rng(seed)
    if grid_size <= trials:
        flat = np.arange(grid_size)
    else:
        flat = np.sort(rng.choice(grid_size, size=trials, replace=False))
    X = axis[np.stack(np.unravel_index(flat, (GRID_POINTS_PER_DIM,) * d), axis=1)]
    jitter = hi / (GRID_POINTS_PER_DIM - 1) / 8.0
    X = np.clip(X + rng.uniform(-jitter, jitter, X.shape), 0.0, hi)
    for _ in range(60):
        with np.errstate(all="ignore"):
            step = -np.einsum("bij,bj->bi", np.linalg.pinv(jacobians(X)), residuals(X))
        X_new = X + np.clip(step, -2.0 * hi, 2.0 * hi)
        X = np.where(np.isfinite(X_new).all(axis=1)[:, None], X_new, X)
        X = np.clip(X, -hi, 1e7)

    converged = np.abs(residuals(X)).max(axis=1) < tol
    candidates = np.clip(X[converged & (X > -DEDUP_TOL).all(axis=1)], 0.0, None)
    if K == 0:
        candidates = np.vstack([np.zeros(d), candidates])
    snapped = np.where(candidates < SNAP_TOL, 0.0, candidates)
    keeps_root = np.abs(residuals(snapped)).max(axis=1) < tol
    candidates = np.where(keeps_root[:, None], snapped, candidates)
    candidates = candidates[np.lexsort(candidates.T[::-1])]
    accepted = []
    for x in candidates[np.abs(residuals(candidates)).max(axis=1) < tol]:
        if all(np.abs(x - y).max() > DEDUP_TOL for y in accepted):
            accepted.append(x)
    curvatures = np.zeros((len(accepted), 2 * r - 2))
    if accepted:
        curvatures[:, np.subtract(unknowns, 1)] = np.sqrt(accepted) * math.sqrt(scale)
    return curvatures


REFERENCE_CASES = [(r, pattern, 1.0) for r in (3, 4, 5) for pattern in ((), (2,), (3,))]
# every answer is exact, and the reference Newton loop must find nothing
# else
REFERENCE_CASES += [(3, (3, 4), 0.0), (3, (), -1.0), (4, (), -1.0)]
REFERENCE_CASES += [(6, (3,), 1.0), (6, (3,), 0.0), (3, (), 0.0)]


@pytest.mark.parametrize(
    "r, pattern, K",
    REFERENCE_CASES,
    ids=[f"r{r}-zeros{''.join(map(str, p))}-K{K:g}" for r, p, K in REFERENCE_CASES],
)
def test_solver_matches_the_fixed_iteration_reference(r, pattern, K):
    report = solve_helix(r, K, pattern)
    want = reference_curvatures(r, K, pattern, trials=300)
    if report.underdetermined:
        # an arc: the solver reports fixed exact points, not Newton's, so
        # each reference root with k1 > 0 must lie on the arc
        assert all(on_exact_set(report, ks) for ks in want if ks[0] > 0)
        return
    got = np.array([s.curvatures for s in report.solutions]).reshape(-1, 2 * r - 2)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=CURVATURE_TOL)


# -- unit-|K| rescaling ------------------------------------------------------

@pytest.mark.parametrize(
    "r, pattern, K, ratio",
    [(3, {2, 3, 4}, 1e7, 2), (3, {2, 3, 4}, 1e300, 2), (4, {2}, 1e8, 3), (3, {2, 3, 4}, 1e-300, 2)],
)
def test_isolated_root_survives_any_magnitude_of_K(r, pattern, K, ratio):
    report = solve_helix(r, K, pattern)
    (root,) = report.proper_solutions()
    assert report.K == K
    assert root.curvatures[0] ** 2 == pytest.approx(ratio * K, rel=1e-12)
    assert root.residual < 1e-10


def test_roots_scale_exactly_with_K():
    unit = solve_helix(3, 1.0, {3, 4})
    scaled = solve_helix(3, 4.0, {3, 4})
    assert [s.residual for s in scaled.solutions] == [s.residual for s in unit.solutions]
    assert [s.curvatures for s in scaled.solutions] == [
        tuple(2.0 * k for k in s.curvatures) for s in unit.solutions
    ]
    negative = solve_helix(3, -4.0)
    assert negative.certificates == solve_helix(3, -1.0).certificates


def test_scaling_coherence_circle():
    at_one = solve_helix(3, 1.0, {2, 3, 4})
    at_four = solve_helix(3, 4.0, {2, 3, 4})
    k1 = at_one.solutions[0].curvatures[0]
    k4 = at_four.solutions[0].curvatures[0]
    assert k4 == pytest.approx(2.0 * k1, abs=1e-8)


def test_negative_K_report_carries_certificates():
    report = solve_helix(3, -1.0)
    assert report.solutions == ()
    assert report.certificates
    top = [c for c in report.certificates if c["K_multiplier"] == "1"]
    assert top and "x1 + x2 + x3 + x4 - K = 0" == top[0]["equation"]
    assert "negative" in top[0]["reason"]


# -- the case analysis by zero pattern, as exact identities -------------------

def _x_system(r: int, zeros: set[int]) -> list[Poly]:
    return [eq.factored.squared_form() for eq in constraint_system(r, zeros).equations]


def _circle(r: int) -> Poly:
    return kvar(1) - (r - 1) * ambient()


def _family(r: int) -> Poly:
    s = kvar(1) + kvar(2)
    return s ** (r - 3) * (s**2 - ambient() * ((r - 1) * kvar(1) + kvar(2)))


def _tri_certificate(system: list[Poly]) -> Poly:
    """-E1 + (x1 + x2) * Etop for an order-three system; with only positive
    coefficients it is positive for K > 0 and proper curvatures, so the
    equations cannot vanish together."""
    E1, Etop = system
    cert = -E1 + (kvar(1) + kvar(2)) * Etop
    assert not cert.is_zero() and all(c > 0 for _, c in cert.terms())
    return cert


def test_case_analysis_circle_case():
    # with k2 = 0 only k1 is left: the planar circle x1 = (r - 1) K
    for r in range(2, MAX_TENSION_ORDER + 1):
        assert _x_system(r, {2}) == [_circle(r)]


def test_case_analysis_family_case():
    # with k3 = 0: (x1 + x2)^(r-3) ((x1 + x2)^2 - K ((r - 1) x1 + x2)); a
    # proper helix has x1 + x2 > 0, so it lies on the quadric factor
    for r in range(3, MAX_TENSION_ORDER + 1):
        assert _x_system(r, {3}) == [_family(r)]


def test_case_analysis_infeasible_cases():
    full = _x_system(3, set())
    assert full[1] == kvar(1) + kvar(2) + kvar(3) + kvar(4) - ambient()
    assert render_squares(_tri_certificate(full)) == "x1*x3 + x1*x4 + K*x1 + x2*x4"
    assert render_squares(_tri_certificate(_x_system(3, {4}))) == "x1*x3 + K*x1"


def test_case_analysis_merged_cases():
    # a zero pattern derives the same system as its upward closure: the
    # merge negative_K_scan counts, for all 340 patterns of r = 2..5
    for r in range(2, 6):
        m = 2 * r - 2
        for bits in itertools.product((False, True), repeat=m):
            zeros = {i + 1 for i, z in enumerate(bits) if z}
            closure = constraint_system(r, set(canonical_pattern(zeros, m)))
            assert constraint_system(r, zeros).equations == closure.equations


def test_case_analysis_covers_every_pattern():
    # order three: each of the 16 zero patterns derives the geodesic (no
    # equation), the circle, the family, or a system certified empty
    outcomes = collections.Counter()
    for bits in itertools.product((False, True), repeat=4):
        system = _x_system(3, {i + 1 for i, z in enumerate(bits) if z})
        if not system:
            outcomes["geodesic"] += 1
        elif system == [_circle(3)]:
            outcomes["circle"] += 1
        elif system == [_family(3)]:
            outcomes["family"] += 1
        else:
            _tri_certificate(system)
            outcomes["certified"] += 1
    assert outcomes == {"geodesic": 8, "circle": 4, "family": 2, "certified": 2}


def test_case_analysis_scaling():
    # the family equation is homogeneous of weight r - 1 in (x, K), so its
    # points at K = 4 are those at K = 1 with every curvature doubled
    x1, x2, K = kvar(1), kvar(2), ambient()
    for r in range(3, MAX_TENSION_ORDER + 1):
        (family,) = _x_system(r, {3})
        scaled = family.substitute(1, 4 * x1).substitute(2, 4 * x2).substitute(AMBIENT, 4 * K)
        assert scaled == 4 ** (r - 1) * family


def test_case_analysis_nonpositive_K_is_empty():
    # the circle and family equations read P - K*Q with P, Q nonnegative and
    # P = 0 only at x = 0, so for K <= 0 neither has a proper solution
    for r in range(2, MAX_TENSION_ORDER + 1):
        (circle,) = _x_system(r, {2})
        assert classify._nonnegative_split(circle) == (kvar(1), Poly.constant(r - 1))
    for r in range(3, MAX_TENSION_ORDER + 1):
        (family,) = _x_system(r, {3})
        P, _ = classify._nonnegative_split(family)
        assert P == (kvar(1) + kvar(2)) ** (r - 1)


# -- negative curvature rigidity ----------------------------------------------

def test_canonical_pattern_upward_closure():
    assert canonical_pattern((), 4) == ()
    assert canonical_pattern({2}, 4) == (2, 3, 4)
    assert canonical_pattern({3, 1}, 4) == (1, 2, 3, 4)


def test_negative_scan_argument_validation():
    for K in (0.0, 1.0, math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError, match="finite K < 0"):
            negative_K_scan(3, K)


def _enumerated_merges(r: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every zero pattern of order r grouped by its upward closure, shortest
    closure first."""
    m = 2 * r - 2
    groups: dict[tuple[int, ...], int] = {}
    for bits in itertools.product((False, True), repeat=m):
        closure = canonical_pattern([i + 1 for i, z in enumerate(bits) if z], m)
        groups[closure] = groups.get(closure, 0) + 1
    closures = sorted(groups, key=len)
    return closures, [groups[c] for c in closures]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_negative_scan_merges_match_enumeration(r):
    report = negative_K_scan(r, -1.0)
    closures, counts = _enumerated_merges(r)
    assert [tuple(p["zero_pattern"]) for p in report.patterns] == closures
    assert [p["merged_pattern_count"] for p in report.patterns] == counts


@pytest.mark.parametrize("r", [3, 4])
def test_negative_scan_finds_no_proper_solutions(r):
    report = negative_K_scan(r, -1.0)
    payload = report.to_json_dict()
    assert payload["proper_solutions"] == 0
    assert len(payload["patterns"]) == 2 * r - 1
    assert sum(p["merged_pattern_count"] for p in payload["patterns"]) == 2 ** (2 * r - 2)
    assert "no root" in report.witness
    # the unrestricted pattern carries the sum-of-squares certificate
    full = [p for p in report.patterns if p["zero_pattern"] == []]
    assert full and any(c["K_multiplier"] == "1" for c in full[0]["infeasibility_certificates"])


def _rootless(r: int) -> set[tuple[int, ...]]:
    """The canonical systems of order r with no root at K < 0: the full
    system, pattern {2r - 2} and the circle pattern {2..2r - 2}."""
    m = 2 * r - 2
    return {(), (m,), tuple(range(2, m + 1))}


@pytest.mark.parametrize("r", range(2, 9))
def test_negative_scan_decides_every_system_exactly(r, monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("the K < 0 decision must not sample or compile")

    monkeypatch.setattr(classify, "solve_helix", sampled)
    monkeypatch.setattr(classify, "CompiledSystem", sampled)
    m = 2 * r - 2
    report = negative_K_scan(r, -1.0)
    assert len(report.patterns) == 2 * r - 1
    assert sum(p["merged_pattern_count"] for p in report.patterns) == 2**m
    for entry in report.patterns:
        roots = [s["curvatures"] for s in entry["solutions"]]
        if tuple(entry["zero_pattern"]) in _rootless(r):
            assert roots == []
        else:
            assert roots == [[0.0] * m]
        if len(entry["zero_pattern"]) < m:
            assert entry["infeasibility_certificates"]


def _decide(equations, K=-1.0):
    """The exact verdict on bare equations, numbered as frames 1, 2, ..."""
    return classify._nonpositive_K_decision(enumerate(equations, 1), K)[0]


@pytest.mark.parametrize(
    "equation",
    [
        kvar(1) - kvar(2),                      # mixed signs: no split
        kvar(1) * kvar(2),                      # a lone product would need a branch
        kvar(1) - ambient() ** 2,               # K^2 does not split as P - K*Q
    ],
    ids=["mixed-sign", "product", "K-squared"],
)
def test_negative_decision_refuses_undecided_systems(equation):
    with pytest.raises(ValueError, match="undecided"):
        _decide([equation])


def test_negative_decision_forcing():
    # x1, x2^2 and x3 force every unknown to 0, which kills the mixed terms
    x1, x2, x3, K = kvar(1), kvar(2), kvar(3), ambient()
    assert _decide([x1 - K * x1 * x2, x2**2 + x1 * x3, x3 + x2 * x3])
    # a constant term (here |K| from the K multiplier 1) leaves no root
    assert not _decide([x1, x1 * x2 - K])
    # x2 appears only beside the forced x1, so it stays free: undecided
    with pytest.raises(ValueError, match="forces x2 to 0"):
        _decide([x1 + x1 * x2])


def test_flat_decision_reads_only_the_K_free_part():
    # x1 - K*x2 forces both unknowns at K < 0; at K = 0 it leaves x2 free
    x1, x2, K = kvar(1), kvar(2), ambient()
    assert _decide([x1 - K * x2], -1.0)
    with pytest.raises(ValueError, match="forces x2 to 0"):
        _decide([x1 - K * x2], 0.0)
    # the constant -K, the only obstruction at K < 0, is gone at K = 0
    assert not _decide([x1 - K], -1.0)
    assert _decide([x1 - K], 0.0)
    equations = [(4, x1 - K)]
    assert classify._nonpositive_K_decision(equations, 0.0) == (True, [])
    (cert,) = classify._nonpositive_K_decision(equations, -1.0)[1]
    assert (cert["frame"], cert["equation"]) == (4, "x1 - K = 0")


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_negative_decision_agrees_with_newton(r):
    # the reference Newton loop at K = -1 never finds a root the exact
    # decision rules out; where only x = 0 solves a system it may miss the
    # geodesic on the corner of the orthant, but it finds nothing else; with
    # k1 = 0 no equation is left, so no Newton runs there
    report = negative_K_scan(r, -1.0)
    for entry in (p for p in report.patterns if 1 not in p["zero_pattern"]):
        found = reference_curvatures(r, -1.0, entry["zero_pattern"], trials=100).tolist()
        if entry["solutions"]:
            assert all(ks == [0.0] * (2 * r - 2) for ks in found)
        else:
            assert found == []


def _refuse(*args, **kwargs):
    raise AssertionError("the K <= 0 decision and the certificate must not compile")


@pytest.mark.parametrize("r", range(2, EXHAUSTIVE_ORDER + 1))
def test_solver_decides_nonpositive_K_exactly(r, monkeypatch):
    # every canonical pattern: the scan's roots and certificates at K = -1,
    # only the geodesic and no certificate at K = 0; nothing is compiled
    monkeypatch.setattr(classify, "CompiledSystem", _refuse)
    m = 2 * r - 2
    for entry in negative_K_scan(r, -1.0).patterns:
        pattern = entry["zero_pattern"]
        negative = solve_helix(r, -1.0, pattern)
        assert [s.to_json_dict() for s in negative.solutions] == entry["solutions"]
        assert list(negative.certificates) == entry["infeasibility_certificates"]
        flat = solve_helix(r, 0.0, pattern)
        assert [s.curvatures for s in flat.solutions] == [(0.0,) * m]
        assert flat.certificates == ()
        for report in (negative, flat):
            assert (report.starts, report.underdetermined) == (0, False)


@pytest.mark.parametrize("r", range(2, 6))
def test_solver_reports_the_compiled_unknowns_at_nonpositive_K(r):
    m = 2 * r - 2
    for pattern in [()] + [canonical_pattern({t}, m) for t in range(1, m + 1)]:
        compiled = CompiledSystem(constraint_system(r, set(pattern)))
        for K in (-1.0, 0.0):
            assert solve_helix(r, K, pattern).unknowns == compiled.unknowns


# -- the frame-2/frame-4 certificate at K > 0 ---------------------------------

def _x_equations(r: int, pattern) -> dict[int, Poly]:
    system = constraint_system(r, set(pattern))
    return {eq.frame: eq.factored.squared_form() for eq in system.equations}


def _k3_free(r: int) -> list[tuple[int, ...]]:
    """The canonical systems of order r that keep k3 free: the full system
    and every pattern {t..2r-2} with t >= 4."""
    m = 2 * r - 2
    return [()] + [canonical_pattern({t}, m) for t in range(4, m + 1)]


@pytest.mark.parametrize("r", range(3, EXHAUSTIVE_ORDER + 1))
def test_every_k3_free_system_is_certified(r):
    for pattern in _k3_free(r):
        equations = _x_equations(r, pattern)
        cert = classify._positive_combination(r, equations)
        (P2, Q2), (P4, Q4) = (classify._nonnegative_split(equations[f]) for f in (2, 4))
        assert (cert.order, cert.frames, cert.multipliers) == (r, (2, 4), (-Q4, Q2))
        N = cert.combination
        assert N == P4 * Q2 - P2 * Q4
        assert AMBIENT not in N.variables()
        assert all(c > 0 for _, c in N.terms())
        assert dict(N.terms())[Monomial([(1, 2 * r - 4)])] == 1
        assert cert.x1_power == 2 * r - 4


def test_the_certificate_scans_N_for_x1_once(monkeypatch):
    # the x1 power found when the certificate is accepted is kept, so the
    # JSON reason and the text reason read it without scanning N again
    scans = []
    scan = classify._x1_powers
    monkeypatch.setattr(classify, "_x1_powers", lambda poly: scans.append(len(poly)) or scan(poly))
    report = solve_helix(3, 1.0)
    (cert,) = report.certificates
    assert "among them x1^2;" in report.to_json_dict()["infeasibility_certificates"][0]["reason"]
    assert "among them x1^2;" in cert.reason
    assert scans == [len(cert.combination)]


@pytest.mark.parametrize("r", range(2, EXHAUSTIVE_ORDER + 1))
def test_systems_that_force_k3_get_no_certificate(r):
    # {1..} has no equation, {2..} is the circle and {3..} the family; the
    # order-two systems have no frame 4
    m = 2 * r - 2
    patterns = [canonical_pattern({t}, m) for t in (1, 2, 3) if t <= m]
    for pattern in patterns + ([()] if r == 2 else []):
        assert classify._positive_combination(r, _x_equations(r, pattern)) is None


_x1, _x2, _K = kvar(1), kvar(2), ambient()


@pytest.mark.parametrize(
    "equations",
    [
        {2: _x1 - _K},                          # no frame 4
        {2: _x1 - _x2, 4: _x1 - _K},            # F2 has no nonnegative split
        {2: _x1 - _K, 4: _x2 - _K},             # N = x2 - x1
        {2: _x2 - _K, 4: _x1 * _x2 + _x2 - _K},  # N = x1*x2, no term in x1 alone
        {2: _x1 - _K, 4: _x1 - _K},             # N = 0
    ],
    ids=["missing-frame", "no-split", "negative", "no-x1-term", "zero"],
)
def test_a_failed_check_leaves_the_certificate_undecided(equations):
    assert classify._positive_combination(3, equations) is None


def test_a_combination_that_holds_K_is_undecided(monkeypatch):
    # a split that is not P - K*Q leaves K in N; here only that check fails
    monkeypatch.setattr(classify, "_nonnegative_split", lambda f: (f, Poly.constant(1)))
    equations = {2: _x1, 4: _x1**2 + _x1 + _K}
    assert -equations[2] + equations[4] == _x1**2 + _K
    assert classify._positive_combination(3, equations) is None


@pytest.mark.parametrize("r", range(3, EXHAUSTIVE_ORDER + 1))
def test_solver_decides_k3_free_systems_exactly(r, monkeypatch):
    # every certified pattern at K = 1: no root, the one certificate, no
    # start, and the curvatures the equations hold as the unknowns
    monkeypatch.setattr(classify, "CompiledSystem", _refuse)
    for pattern in _k3_free(r):
        report = solve_helix(r, 1.0, pattern)
        equations = _x_equations(r, pattern)
        cert = classify._positive_combination(r, equations)
        assert report.solutions == ()
        assert report.certificates == (cert,)
        assert (report.starts, report.underdetermined) == (0, False)
        held = set().union(*(eq.variables() for eq in equations.values())) - {AMBIENT}
        assert report.unknowns == tuple(sorted(held))


def test_an_undecided_certificate_raises_at_positive_K(monkeypatch):
    # every split fails, so the full order-three system has no certificate:
    # two equations and no closed form
    monkeypatch.setattr(classify, "_nonnegative_split", lambda factored: None)
    with pytest.raises(ValueError, match="undecided at K > 0: 2 equations and no positive"):
        solve_helix(3, 1.0)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_certified_systems_have_no_proper_newton_root(r):
    # the reference Newton loop at K = 1 on the full, {4..} and {5..}
    # patterns; it may stop at points with k1 = 0, which the truncation rule
    # makes the geodesic, but never at one with k1 > 0
    m = 2 * r - 2
    for pattern in [()] + [canonical_pattern({t}, m) for t in (4, 5) if t <= m]:
        found = reference_curvatures(r, 1.0, pattern, trials=100)
        assert not (found[:, 0] > 0).any()


# -- the closed forms at K > 0 ------------------------------------------------

def _canonical(r: int) -> list[tuple[int, ...]]:
    m = 2 * r - 2
    return [()] + [canonical_pattern({t}, m) for t in range(1, m + 1)]


@pytest.mark.parametrize("r", range(2, EXHAUSTIVE_ORDER + 1))
def test_every_canonical_system_is_decided_without_newton(r):
    # at K = 1: the circle {2..}, the arc {3..} (r >= 3) or the segment (the
    # full order-two system); every other system is certified or the geodesic
    m = 2 * r - 2
    expected = dict.fromkeys(_canonical(r))
    expected[canonical_pattern({2}, m)] = "circle"
    expected[canonical_pattern({3}, m) if r >= 3 else ()] = "arc" if r >= 3 else "segment"
    kinds = {}
    for pattern in _canonical(r):
        report = solve_helix(r, 1.0, pattern)
        assert report.starts == 0
        kinds[pattern] = report.exact_set and report.exact_set.kind
        assert report.underdetermined == (kinds[pattern] in ("arc", "segment"))
    assert kinds == expected


@pytest.mark.parametrize("K", [1.0, 4.0])
@pytest.mark.parametrize("r", range(2, EXHAUSTIVE_ORDER + 1))
def test_every_reported_point_is_an_exact_root(r, K):
    # each point, rebuilt from its t, makes the squared equation exactly 0,
    # and its curvatures are the square roots scaled by sqrt(K)
    m = 2 * r - 2
    for pattern in _canonical(r):
        report = solve_helix(r, K, pattern)
        closed = report.exact_set
        if closed is None:
            continue
        (x_eq,) = _x_system(r, set(pattern))
        count = 1 if closed.kind == "circle" else CLOSED_FORM_POINTS
        assert len(report.solutions) == len(closed.points) == len(closed.t_values) == count
        for t, solution in zip(closed.t_values, report.solutions):
            if closed.kind == "circle":
                assert t == r - 1
                point = {1: t}
            elif closed.kind == "arc":
                assert 1 < t <= r - 1
                point = {1: t * (t - 1) / (r - 2), 2: t - t * (t - 1) / (r - 2)}
            else:
                assert 0 < t <= 1
                point = {1: t, 2: 1 - t}
            values = {AMBIENT: Fraction(1), **dict.fromkeys(range(1, m + 1), Fraction(0)), **point}
            assert tuple(values[v] for v in report.unknowns) in closed.points
            assert exact_value(x_eq, values) == 0
            assert values[1] > 0 and all(x >= 0 for x in values.values())
            assert solution.curvatures == tuple(
                math.sqrt(values[v]) * math.sqrt(K) for v in range(1, m + 1)
            )
            assert solution.residual == 0.0
        assert closed.t_values == tuple(sorted(closed.t_values))


@pytest.mark.parametrize(
    "r, pattern, equation",
    [
        (3, {2}, _x1 - 3 * _K),                        # the circle is x1 - 2K
        (3, {3}, _family(3) + _x1 * _x2),
        (5, {3}, _family(4)),                          # another order's arc
        (2, set(), _x1 + 2 * _x2 - _K),
        (4, {4}, _x1 - 3 * _K),                        # no closed form for {4..}
    ],
    ids=["circle", "arc", "arc-order", "segment", "pattern"],
)
def test_a_mismatched_equation_leaves_the_closed_form_undecided(r, pattern, equation):
    assert classify._closed_form(r, frozenset(pattern), equation) is None


def test_a_mismatched_system_is_undecided_at_positive_K(monkeypatch):
    # k1^2 - 3K in place of the order-three circle k1^2 - 2K matches no
    # closed form, and nothing guesses its root
    crafted = kvar(1) ** 2 - 3 * ambient()
    system = ConstraintSystem(
        3, frozenset({2}), (ConstraintEquation(2, crafted, Poly.constant(1), crafted),)
    )
    monkeypatch.setattr(classify, "constraint_system", lambda r, zeros: system)
    with pytest.raises(ValueError, match=r"undecided at K > 0: x1 - 3\*K = 0 is no closed form"):
        solve_helix(3, 1.0, {2})


def test_a_point_that_is_no_exact_root_is_undecided(monkeypatch):
    # a closed form whose point misses its equation is refused, not reported
    def shifted(order, pattern, x_eq):
        return ClosedForm("circle", x_eq, "x1 = t", "t = 2*K", (Fraction(2),), ((Fraction(3),),))

    monkeypatch.setattr(classify, "_closed_form", shifted)
    with pytest.raises(ValueError, match="undecided at K > 0: a point of the circle is no exact root"):
        solve_helix(3, 1.0, {2})


NEWTON_ON_CLOSED_FORMS = (
    [(2, ())] + [(r, (2,)) for r in range(2, 9)] + [(r, (3,)) for r in range(3, 9)]
)


@pytest.mark.parametrize(
    "r, pattern",
    NEWTON_ON_CLOSED_FORMS,
    ids=[f"r{r}-zeros{''.join(map(str, p))}" for r, p in NEWTON_ON_CLOSED_FORMS],
)
def test_newton_roots_lie_on_the_exact_set(r, pattern):
    # the reference Newton loop at K = 1 finds roots with k1 > 0, and each
    # lies on the reported closed form; a root with k1 = 0 is the geodesic
    report = solve_helix(r, 1.0, pattern)
    found = reference_curvatures(r, 1.0, pattern, trials=100)
    proper = found[found[:, 0] > 0]
    assert len(proper)
    assert all(on_exact_set(report, ks) for ks in proper)


# -- orders above the exhaustive range ------------------------------------------

HIGH_ORDERS = range(EXHAUSTIVE_ORDER + 1, MAX_TENSION_ORDER + 1)


@pytest.mark.parametrize("r, terms", [(9, 7373), (10, 22803)])
def test_high_order_full_system_is_certified(r, terms):
    # at K = 1: N holds no K, every coefficient is positive and x1^(2r-4)
    # has coefficient 1, so the full system has no root
    report = solve_helix(r, 1.0)
    (cert,) = report.certificates
    N = cert.combination
    assert (report.solutions, cert.frames, len(N)) == ((), (2, 4), terms)
    assert AMBIENT not in N.variables()
    assert all(c > 0 for _, c in N.terms())
    assert N.coefficient(Monomial([(1, 2 * r - 4)])) == 1


@pytest.mark.parametrize("r", HIGH_ORDERS)
def test_high_order_circle_and_arc_points_are_exact_roots(r):
    # --zeros 2 gives the circle and --zeros 3 the arc, at K = 1
    m = 2 * r - 2
    for zeros, kind in (({2}, "circle"), ({3}, "arc")):
        report = solve_helix(r, 1.0, zeros)
        closed = report.exact_set
        assert closed.kind == kind
        assert len(report.solutions) == len(closed.points) == (1 if kind == "circle" else CLOSED_FORM_POINTS)
        (x_eq,) = _x_system(r, zeros)
        for point, solution in zip(closed.points, report.solutions):
            values = {AMBIENT: Fraction(1), **dict.fromkeys(range(1, m + 1), Fraction(0))}
            values.update(zip(report.unknowns, point))
            assert exact_value(x_eq, values) == 0 and values[1] > 0
            assert on_exact_set(report, solution.curvatures)


@pytest.mark.parametrize("r", HIGH_ORDERS)
def test_high_order_full_system_at_nonpositive_K(r):
    # no root at K = -1, with one certificate per equation; only the
    # geodesic at K = 0
    frames = [eq.frame for eq in constraint_system(r, set()).equations]
    negative = solve_helix(r, -1.0)
    assert negative.solutions == ()
    assert [c["frame"] for c in negative.certificates] == frames
    flat = solve_helix(r, 0.0)
    assert [s.curvatures for s in flat.solutions] == [(0.0,) * (2 * r - 2)]
    assert flat.certificates == ()


# -- every input is answered ---------------------------------------------------

@pytest.mark.parametrize("K", [1.0, 1e-300, 1e300, 0.0, -1.0])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_every_zero_pattern_is_answered(r, K):
    # each subset of 1..2r-2, canonical or not, gets an exact answer: no
    # supported input is left undecided
    m = 2 * r - 2
    for size in range(m + 1):
        for pattern in itertools.combinations(range(1, m + 1), size):
            report = solve_helix(r, K, pattern)
            assert report.starts == 0
            for solution in report.solutions:
                assert all(math.isfinite(k) and k >= 0 for k in solution.curvatures)
