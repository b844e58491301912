"""Classification of constant-curvature solution tuples.

The helix constraint systems produced by :mod:`polyhelix.frenet` are even in
every geodesic curvature, so they are solved here in the squared variables
``x_j = k_j^2``.  That removes all sign ambiguity, makes the systems low
degree, and lets nonnegativity stand in for realness of the curvatures.

Three workflows live here: a deterministic multistart Newton solver over the
squared variables, an exact case-by-case analysis of the order-three system
with machine-checked infeasibility certificates, and a rigidity scan showing
that negative ambient curvature admits no proper solutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .frenet import ConstraintSystem, constraint_system, curvature_sum_poly
from .ratpoly import (
    AMBIENT,
    CurvaturePolynomial as Poly,
    Monomial,
    ambient,
    kvar,
)

DEDUP_TOL = 1e-8
SNAP_TOL = 1e-12
GRID_POINTS_PER_DIM = 7
# Each Newton iteration holds a power table of trials x monomials floats; at
# r = 6 (282 monomials) the cap keeps it near 110 MiB, where the full 7^10
# start grid would need hundreds of GiB.
MAX_TRIALS = 50_000


def _square_name(vid: int) -> str:
    return "K" if vid == AMBIENT else f"x{vid}"


def render_squares(poly: Poly) -> str:
    """Render an x-space polynomial with ``x1, x2, ...`` variable names so it
    is not mistaken for a polynomial in the curvatures themselves."""
    return poly.render(_square_name)


def squared_form(poly: Poly) -> Poly:
    """Rewrite an everywhere-even polynomial in the curvatures as a polynomial
    in the squared curvatures (ambient curvature exponents are kept as-is)."""
    terms = {}
    for mono, coeff in poly.terms():
        halved = []
        for vid, e in mono.exps:
            if vid == AMBIENT:
                halved.append((vid, e))
            else:
                if e % 2:
                    raise ValueError(
                        f"odd exponent {e} for k{vid}; not expressible in squares"
                    )
                halved.append((vid, e // 2))
        terms[Monomial(halved)] = coeff
    return Poly(terms)


# -- compiled evaluation -----------------------------------------------------

class CompiledSystem:
    """A factored constraint system compiled to numpy, in squared variables.

    Columns are ``[K, x_{j1}, ..., x_{jd}]`` where the ``j``s are the
    curvature indices that actually appear in the equations.  One monomial
    table serves the ``n`` equations and their ``n * d`` partial derivatives:
    ``exps`` holds the distinct monomials (one row each, one exponent per
    column) and ``coeffs`` has one column per polynomial, the equations first,
    then the Jacobian entries row by row.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.x_equations = [squared_form(eq.factored) for eq in system.equations]
        self.raw_equations = [eq.raw for eq in system.equations]
        unknowns: set[int] = set()
        for p in self.x_equations:
            unknowns |= p.variables() - {AMBIENT}
        self.unknowns: tuple[int, ...] = tuple(sorted(unknowns))
        self.columns = (AMBIENT,) + self.unknowns
        polys = self.x_equations + [
            p.differentiate(v) for p in self.x_equations for v in self.unknowns
        ]
        rows: dict[Monomial, int] = {}
        for poly in polys:
            for mono, _ in poly.terms():
                rows.setdefault(mono, len(rows))
        col_index = {v: i for i, v in enumerate(self.columns)}
        self.exps = np.zeros((len(rows), len(self.columns)), dtype=np.int64)
        for mono, row in rows.items():
            for vid, e in mono.exps:
                self.exps[row, col_index[vid]] = e
        self.coeffs = np.zeros((len(rows), len(polys)))
        for k, poly in enumerate(polys):
            for mono, coeff in poly.terms():
                self.coeffs[rows[mono], k] = float(coeff)

    @property
    def dimension(self) -> int:
        return len(self.unknowns)

    def _powers(self, X: np.ndarray, K: float) -> np.ndarray:
        """The power table: every monomial at every point, ``(points, rows)``.
        Multiplying in one column at a time gives the same products as
        ``(full[:, None, :] ** exps).prod(axis=2)`` without its 3-d temporary."""
        full = np.hstack([np.full((X.shape[0], 1), K), X])
        powers = np.ones((X.shape[0], len(self.exps)))
        for values, exps in zip(full.T, self.exps.T):
            powers *= values[:, None] ** exps
        return powers

    def residuals(self, X: np.ndarray, K: float) -> np.ndarray:
        return self._powers(X, K) @ self.coeffs[:, : len(self.x_equations)]

    def jacobians(self, X: np.ndarray, K: float) -> np.ndarray:
        n = len(self.x_equations)
        J = self._powers(X, K) @ self.coeffs[:, n:]
        return J.reshape(X.shape[0], n, self.dimension)

    def raw_residual(self, x: Sequence[float], K: float) -> float:
        assign = {AMBIENT: K}
        for j in range(1, self.system.order * 2 - 1):
            assign[j] = 0.0
        for v, value in zip(self.unknowns, x):
            assign[v] = math.sqrt(max(value, 0.0))
        return max(
            (abs(p.evaluate(assign)) for p in self.raw_equations), default=0.0
        )


# -- solution containers -----------------------------------------------------

@dataclass(frozen=True)
class HelixSpec:
    """A candidate helix: order, ambient curvature and the full tuple of
    geodesic curvatures (length ``2r - 2``, conventionally nonnegative)."""

    order: int
    K: float
    curvatures: tuple[float, ...]

    def __post_init__(self):
        if len(self.curvatures) != 2 * self.order - 2:
            raise ValueError(
                f"order {self.order} needs {2 * self.order - 2} curvatures, "
                f"got {len(self.curvatures)}"
            )

    def is_proper(self) -> bool:
        return self.curvatures[0] > 0

    def squared(self) -> tuple[float, ...]:
        return tuple(k * k for k in self.curvatures)

    def curvature_square_sum(self) -> float:
        return sum(k * k for k in self.curvatures)


@dataclass(frozen=True)
class Solution:
    spec: HelixSpec
    residual: float
    raw_residual: float
    jacobian_rank: int

    def to_json_dict(self) -> dict:
        return {
            "curvatures": list(self.spec.curvatures),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class SolutionReport:
    """Output of the multistart solver: deduplicated roots plus the metadata
    needed to reproduce them."""

    order: int
    K: float
    zero_pattern: tuple[int, ...]
    unknowns: tuple[int, ...]
    solutions: tuple[Solution, ...]
    certificates: tuple[dict, ...]
    seed: int
    starts: int
    tol: float
    underdetermined: bool

    def proper_solutions(self) -> list[Solution]:
        return [s for s in self.solutions if s.spec.is_proper()]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "K": self.K,
            "zero_pattern": list(self.zero_pattern),
            "solutions": [s.to_json_dict() for s in self.solutions],
            "infeasibility_certificates": list(self.certificates),
            "search": {
                "seed": self.seed,
                "starts": self.starts,
                "tol": self.tol,
                "unknowns": [f"k{v}" for v in self.unknowns],
                "underdetermined": self.underdetermined,
            },
        }


def _nonnegative_split(factored: Poly) -> tuple[Poly, Poly] | None:
    """Write a factored equation as ``P - K*Q`` with ``P``, ``Q`` having only
    nonnegative coefficients, or return None if it does not split that way."""
    p_terms = {}
    q_terms = {}
    for mono, coeff in factored.terms():
        e = mono.exponent(AMBIENT)
        if e == 0:
            p_terms[mono] = coeff
        elif e == 1:
            reduced = Monomial((v, x) for v, x in mono.exps if v != AMBIENT)
            q_terms[reduced] = -coeff
        else:
            return None
    P, Q = Poly(p_terms), Poly(q_terms)
    if any(c < 0 for _, c in P.terms()) or any(c < 0 for _, c in Q.terms()):
        return None
    return P, Q


def _negative_K_certificates(compiled: CompiledSystem) -> list[dict]:
    """For K < 0 every surviving equation is a sum of nonnegative terms, and
    the top-frame equation even contains the strictly positive constant -K."""
    certs: list[dict] = []
    for eq, x_eq in zip(compiled.system.equations, compiled.x_equations):
        split = _nonnegative_split(x_eq)
        if split is None:
            continue
        P, Q = split
        reason = (
            "with K < 0 the equation reads P + |K|*Q = 0 where P and Q have "
            "only nonnegative coefficients; every term must vanish"
        )
        if Q == 1:
            reason = (
                "sum of squared curvatures cannot equal the negative number K; "
                "with K < 0 the left side is at least |K| > 0"
            )
        certs.append(
            {
                "frame": eq.frame,
                "equation": render_squares(x_eq) + " = 0",
                "nonnegative_part": render_squares(P),
                "K_multiplier": render_squares(Q),
                "reason": reason,
            }
        )
    return certs


def solve_helix(
    r: int,
    K: float,
    zero_pattern: Iterable[int] = (),
    tol: float = 1e-10,
    trials: int = 1000,
    seed: int = 42,
) -> SolutionReport:
    """Find all distinct nonnegative roots of the order-``r`` constraint
    system by damped Newton iteration from a deterministic multistart grid
    over the squared curvatures.

    Every x-space system is weighted-homogeneous in ``(x_j, K)``, so the
    search runs at the unit ambient curvature ``K/|K|`` (``K = 0`` as it is)
    and each curvature is then scaled by ``sqrt(|K|)``.  ``tol`` and the
    reported residuals refer to that unit-``|K|`` system, which keeps them
    meaningful for any magnitude of ``K``.

    Pseudoinverse Newton steps handle underdetermined systems, in which case
    the converged points sample the solution family.  An empty solution list
    is a valid outcome and, for ``K < 0``, comes with analytic certificates.
    """
    if not 2 <= r <= 6:
        raise ValueError("order must be between 2 and 6")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(K):
        raise ValueError(f"ambient curvature K must be finite, got {K}")
    if trials < 1:
        raise ValueError(f"need at least 1 multistart trial, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} multistart trials, got {trials}")
    pattern = tuple(sorted(set(zero_pattern)))
    system = constraint_system(r, set(pattern))
    compiled = CompiledSystem(system)
    certificates = _negative_K_certificates(compiled) if K < 0 else []

    m = 2 * r - 2
    if not system.equations:
        # every tension component vanished identically: only the geodesic
        geodesic = HelixSpec(r, K, (0.0,) * m)
        sol = Solution(geodesic, 0.0, 0.0, 0)
        return SolutionReport(
            r, K, pattern, (), (sol,), tuple(certificates), seed, 0, tol, False
        )

    scale = abs(K) or 1.0
    unit_K = K / scale
    d = compiled.dimension
    hi = 4.0 * abs(unit_K) + 4.0
    axis = np.linspace(0.0, hi, GRID_POINTS_PER_DIM)
    grid_size = GRID_POINTS_PER_DIM**d
    rng = np.random.default_rng(seed)
    if grid_size <= trials:
        flat = np.arange(grid_size)
    else:
        flat = np.sort(rng.choice(grid_size, size=trials, replace=False))
    starts = axis[np.stack(np.unravel_index(flat, (GRID_POINTS_PER_DIM,) * d), axis=1)]
    jitter_scale = hi / (GRID_POINTS_PER_DIM - 1) / 8.0
    starts = starts + rng.uniform(-jitter_scale, jitter_scale, starts.shape)
    starts = np.clip(starts, 0.0, hi)

    X = starts.copy()
    step_cap = 2.0 * hi
    for _ in range(60):
        F = compiled.residuals(X, unit_K)
        J = compiled.jacobians(X, unit_K)
        with np.errstate(all="ignore"):
            step = -np.einsum("bij,bj->bi", np.linalg.pinv(J), F)
        step = np.clip(step, -step_cap, step_cap)
        X_new = X + step
        ok = np.isfinite(X_new).all(axis=1)
        X = np.where(ok[:, None], X_new, X)
        X = np.clip(X, -hi, 1e7)

    F = compiled.residuals(X, unit_K)
    converged = np.abs(F).max(axis=1) < tol
    nonneg = (X > -DEDUP_TOL).all(axis=1)
    candidates = np.clip(X[converged & nonneg], 0.0, None)
    # values that converged to numerical zero are snapped to exact zero when
    # that preserves convergence, so geodesic components are reported as 0.0
    # rather than sqrt(roundoff); sorting after the snap keeps roundoff in
    # those components from deciding the order of the roots
    snapped = np.where(candidates < SNAP_TOL, 0.0, candidates)
    keeps_root = np.abs(compiled.residuals(snapped, unit_K)).max(axis=1) < tol
    candidates = np.where(keeps_root[:, None], snapped, candidates)
    candidates = candidates[np.lexsort(candidates.T[::-1])]
    worst = np.abs(compiled.residuals(candidates, unit_K)).max(axis=1)
    accepted: list[int] = []
    for i in np.flatnonzero(worst < tol):
        if all(np.abs(candidates[i] - candidates[j]).max() > DEDUP_TOL for j in accepted):
            accepted.append(i)

    roots = candidates[accepted]
    ranks = np.linalg.matrix_rank(compiled.jacobians(roots, unit_K))
    curvatures = np.zeros((len(roots), m))
    curvatures[:, np.subtract(compiled.unknowns, 1)] = np.sqrt(roots) * math.sqrt(scale)
    solutions = [
        Solution(
            HelixSpec(r, K, tuple(ks)), float(res), compiled.raw_residual(x, unit_K), int(rank)
        )
        for ks, x, res, rank in zip(curvatures.tolist(), roots, worst[accepted], ranks)
    ]

    return SolutionReport(
        r,
        K,
        pattern,
        compiled.unknowns,
        tuple(solutions),
        tuple(certificates),
        seed,
        len(starts),
        tol,
        any(s.jacobian_rank < d for s in solutions),
    )


def sum_of_squares_check(spec: HelixSpec, tol: float = 1e-10) -> bool:
    """True iff the curvature squares sum to K and the full factored system
    is satisfied to the same tolerance.  Requires all curvatures nonzero."""
    if any(k == 0 for k in spec.curvatures):
        raise ValueError("sum-of-squares check needs all curvatures nonzero")
    if abs(spec.curvature_square_sum() - spec.K) >= tol:
        return False
    compiled = CompiledSystem(constraint_system(spec.order))
    x = np.array([[spec.squared()[v - 1] for v in compiled.unknowns]])
    return float(np.abs(compiled.residuals(x, spec.K)).max()) < tol


# -- order-three case analysis ----------------------------------------------

@dataclass(frozen=True)
class TriCase:
    """One branch of the order-three case analysis."""

    index: int
    nonzero: tuple[int, ...]       # curvature indices assumed nonzero
    forced_zero: tuple[int, ...]   # curvature indices set to zero
    status: str                    # "solved" | "family" | "infeasible"
    solutions: tuple[HelixSpec, ...] = ()
    certificate: str | None = None
    derivation: tuple[str, ...] = ()
    merged_into: int | None = None
    note: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "case": self.index,
            "nonzero": [f"k{i}" for i in self.nonzero],
            "forced_zero": [f"k{i}" for i in self.forced_zero],
            "status": self.status,
            "solutions": [list(s.curvatures) for s in self.solutions],
            "certificate": self.certificate,
            "derivation": list(self.derivation),
            "merged_into": self.merged_into,
            "note": self.note,
        }


@dataclass(frozen=True)
class TriCaseReport:
    K: float
    cases: tuple[TriCase, ...]
    pattern_map: dict[tuple[bool, bool, bool], int]

    def case(self, index: int) -> TriCase:
        return self.cases[index - 1]

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "cases": [c.to_json_dict() for c in self.cases],
            "pattern_coverage": {
                "".join("1" if b else "0" for b in key): case
                for key, case in sorted(self.pattern_map.items())
            },
        }


def _tri_family_samples(K: float, count: int = 64) -> list[HelixSpec]:
    """Sample the one-parameter branch of two-curvature solutions: for
    ``x1`` in ``(0, 2K)`` take the positive root of the family quadratic."""
    out = []
    for i in range(1, count + 1):
        x1 = 2.0 * K * i / (count + 1)
        x2 = 0.5 * ((K - 2.0 * x1) + math.sqrt(K * K + 4.0 * K * x1))
        out.append(HelixSpec(3, K, (math.sqrt(x1), math.sqrt(x2), 0.0, 0.0)))
    return out


def _positivity_certificate(cert: Poly, positive_vars: set[int]) -> None:
    """Assert that the certificate is a nonempty sum of positive-coefficient
    terms in variables known positive, so it cannot vanish."""
    if cert.is_zero():
        raise AssertionError("empty certificate")
    for mono, coeff in cert.terms():
        if coeff <= 0:
            raise AssertionError(f"non-positive coefficient in {cert.render()}")
        if not mono.variables() <= positive_vars | {AMBIENT}:
            raise AssertionError(f"certificate uses a variable of unknown sign")


def triharmonic_case_analysis(K: float, family_samples: int = 64) -> TriCaseReport:
    """Full case-by-case treatment of the order-three constraint system on a
    round sphere (K > 0), with exact elimination identities checked in the
    polynomial ring.  Nonpositive K is reported as empty in every case.

    Case layout (which of ``k_2, k_3, k_4`` vanish):

    1. only ``k_1`` nonzero: the circle ``k_1^2 = 2K``.
    2. ``k_1, k_2`` nonzero: a one-parameter family.
    3. ``k_1, k_2, k_3`` nonzero: infeasible with certificate.
    4. all nonzero: infeasible with certificate.
    5. ``k_2 = 0`` but ``k_3`` nonzero: the truncation rule removes ``k_3``,
       merging into case 1.
    6. ``k_3 = 0`` but ``k_4`` nonzero: ``k_4`` drops out, merging into case 2.
    """
    spherical = K > 0

    # the squared curvatures x_i = k_i^2 keep the ids of the curvature ring
    x1, x2, x3, x4 = (kvar(i) for i in range(1, 5))

    # exact x-space forms of the two full-system equations
    full = constraint_system(3)
    E1 = squared_form(full.equations[0].factored)
    Etop = squared_form(full.equations[1].factored)
    assert Etop == x1 + x2 + x3 + x4 - ambient()

    Kp = ambient()
    cases: list[TriCase] = []

    # case 1: circle
    circle_eq = squared_form(constraint_system(3, {2, 3, 4}).equations[0].factored)
    assert circle_eq == x1 - 2 * Kp
    if spherical:
        sol = (HelixSpec(3, K, (math.sqrt(2.0 * K), 0.0, 0.0, 0.0)),)
        cases.append(
            TriCase(1, (1,), (2, 3, 4), "solved", sol,
                    derivation=(f"{render_squares(circle_eq)} = 0", "x1 = 2K"))
        )
    else:
        cases.append(
            TriCase(1, (1,), (2, 3, 4), "infeasible",
                    certificate=render_squares(circle_eq) + " = 0",
                    note="x1 = 2K is nonpositive, so no proper solution")
        )

    # case 2: two-curvature family
    family_eq = squared_form(constraint_system(3, {3, 4}).equations[0].factored)
    assert family_eq == (x1 + x2) ** 2 - Kp * (2 * x1 + x2)
    if spherical:
        samples = _tri_family_samples(K, family_samples)
        cases.append(
            TriCase(2, (1, 2), (3, 4), "family", tuple(samples),
                    derivation=(f"{render_squares(family_eq)} = 0",
                                "x2 = ((K - 2*x1) + sqrt(K^2 + 4*K*x1))/2 for x1 in (0, 2K)"))
        )
    else:
        cases.append(
            TriCase(2, (1, 2), (3, 4), "infeasible",
                    certificate=render_squares(family_eq) + " = 0",
                    note="for K <= 0 every term is nonnegative; x1 = x2 = 0 forced")
        )

    # case 3: three curvatures; eliminate x3 by the top equation, divide by
    # x1 > 0, then substitute back -- all steps exact in the ring
    E1_case3 = E1.substitute_zero({4})
    Etop_case3 = Etop.substitute_zero({4})
    s1 = E1_case3.substitute(3, Kp - x1 - x2)
    assert s1 == x1 * (x1 + x2 - 2 * Kp)
    cert3 = E1_case3.substitute(1, 2 * Kp - x2)
    assert cert3 == Kp * x2 + x2 * x3
    if spherical:
        _positivity_certificate(cert3, {2, 3})
        status3, note3 = "infeasible", None
    else:
        status3, note3 = "infeasible", "already empty via the sum equation for K <= 0"
    cases.append(
        TriCase(3, (1, 2, 3), (4,), status3,
                certificate=render_squares(cert3) + " = 0",
                derivation=(
                    f"substitute x3 = K - x1 - x2 into {render_squares(E1_case3)} = 0:",
                    f"  {render_squares(s1)} = 0",
                    "divide by x1 > 0: x1 + x2 = 2K",
                    f"substitute x1 = 2K - x2 back: {render_squares(cert3)} = 0",
                    "every term is positive, a contradiction",
                ),
                note=note3)
    )

    # case 4: all four curvatures; the certificate is an exact ideal member:
    # cert = -E1 + (x1 + x2) * Etop
    inter = E1.substitute(3, Kp - x1 - x2 - x4)
    assert inter == x1 * (x1 + x2) - x2 * x4 - 2 * Kp * x1
    cert4 = x1 * (Kp + x3 + x4) + x2 * x4
    assert cert4 == -E1 + (x1 + x2) * Etop
    if spherical:
        _positivity_certificate(cert4, {1, 2, 3, 4})
    cases.append(
        TriCase(4, (1, 2, 3, 4), (), "infeasible",
                certificate=render_squares(cert4) + " = 0",
                derivation=(
                    "substitute x3 = K - x1 - x2 - x4 into the first equation:",
                    f"  {render_squares(inter)} = 0",
                    f"rewrite with the sum equation: {render_squares(cert4)} = 0",
                    "every term is positive, a contradiction",
                ))
    )

    # case 5: k2 = 0 with k3 assumed nonzero; the recursion never lets k3
    # enter the system, so this is case 1 again
    reduced5 = constraint_system(3, {2})
    assert squared_form(reduced5.equations[0].factored) == circle_eq
    cases.append(
        TriCase(5, (1, 3), (2, 4), cases[0].status, cases[0].solutions,
                certificate=cases[0].certificate, merged_into=1,
                note="once k2 = 0 the curvatures k3, k4 drop out of the system")
    )

    # case 6: k3 = 0 with k4 assumed nonzero; k4 never appears, so this is
    # the case-2 family with an inert k4
    reduced6 = constraint_system(3, {3})
    assert squared_form(reduced6.equations[0].factored) == family_eq
    cases.append(
        TriCase(6, (1, 2, 4), (3,), cases[1].status, cases[1].solutions,
                certificate=cases[1].certificate, merged_into=2,
                note="once k3 = 0 the curvature k4 drops out of the system")
    )

    pattern_map = {
        (False, False, False): 1,
        (False, False, True): 1,
        (False, True, False): 5,
        (False, True, True): 5,
        (True, False, False): 2,
        (True, False, True): 6,
        (True, True, False): 3,
        (True, True, True): 4,
    }
    return TriCaseReport(K, tuple(cases), pattern_map)


# -- negative curvature rigidity ---------------------------------------------

@dataclass(frozen=True)
class NegativeKReport:
    order: int
    K: float
    trials: int
    reports: tuple[SolutionReport, ...]
    merged_counts: tuple[int, ...]
    witness: str

    def proper_solution_count(self) -> int:
        return sum(len(rep.proper_solutions()) for rep in self.reports)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "K": self.K,
            "trials": self.trials,
            "proper_solutions": self.proper_solution_count(),
            "witness": self.witness,
            "patterns": [
                {
                    "zero_pattern": list(rep.zero_pattern),
                    "merged_pattern_count": count,
                    "solutions": [s.to_json_dict() for s in rep.solutions],
                    "infeasibility_certificates": list(rep.certificates),
                }
                for rep, count in zip(self.reports, self.merged_counts)
            ],
        }


def canonical_pattern(pattern: Iterable[int], m: int) -> tuple[int, ...]:
    """Truncation rule: once some ``k_t`` vanishes, all later curvatures drop
    out of the system, so a pattern is equivalent to its upward closure."""
    s = set(pattern)
    if not s:
        return ()
    t = min(s)
    return tuple(range(t, m + 1))


def negative_K_scan(
    r: int, K: float, trials: int = 1000, seed: int = 42
) -> NegativeKReport:
    """Solve every zero-pattern of the order-``r`` system at negative ambient
    curvature and certify that only geodesics remain.

    All ``2^(2r-2)`` patterns collapse to ``2r - 1`` distinct systems under
    the truncation rule; the multistart budget is split across those.
    """
    if K >= 0:
        raise ValueError("rigidity scan requires K < 0")
    if trials < 1000:
        raise ValueError("need at least 1000 multistart trials")
    m = 2 * r - 2
    groups: dict[tuple[int, ...], int] = {}
    for bits in itertools.product((False, True), repeat=m):
        pattern = tuple(i + 1 for i, z in enumerate(bits) if z)
        groups[canonical_pattern(pattern, m)] = (
            groups.get(canonical_pattern(pattern, m), 0) + 1
        )
    canonicals = sorted(groups, key=len)
    per = trials // len(canonicals)
    extra = trials - per * len(canonicals)
    reports = []
    counts = []
    for i, pattern in enumerate(canonicals):
        budget = per + (1 if i < extra else 0)
        reports.append(solve_helix(r, K, pattern, trials=budget, seed=seed + i))
        counts.append(groups[pattern])
    witness_poly = squared_form(curvature_sum_poly(r))
    witness = (
        f"{render_squares(witness_poly)} = 0 has no solution with nonnegative x_j "
        f"when K = {K} < 0; with any k_t = 0 the surviving equations are "
        "sums of nonnegative terms forcing the leading curvature to zero"
    )
    return NegativeKReport(r, K, trials, tuple(reports), tuple(counts), witness)
