"""Classification of constant-curvature solution tuples.

The helix constraint systems produced by :mod:`polyhelix.frenet` are even in
every geodesic curvature, so they are solved here in the squared variables
``x_j = k_j^2``.  That removes all sign ambiguity, makes the systems low
degree, and lets nonnegativity stand in for realness of the curvatures.

At ``K <= 0`` each system is decided exactly: no root, or only the
geodesic.  At ``K > 0`` a system that keeps ``k3`` free is decided exactly
too when frames 2 and 4 combine into a polynomial with only positive
coefficients (:class:`PositiveCombination`); then no root has ``k1 > 0``.
Each remaining system of orders 2..10 is one equation with a closed form
(:class:`ClosedForm`): pattern ``{2}`` is the planar circle
``x1 = (r - 1) K``, pattern ``{3}`` for ``r >= 3`` the arc
``(x1 + x2)^2 = K ((r - 1) x1 + x2)`` and the full order-two system the
segment ``x1 + x2 = K``.  So every canonical system of orders 2..10 (the
one bound, :func:`polyhelix.frenet.check_tension_order`) is decided
exactly, each decision checking itself, and nothing is sampled; a system
that none of these checks decides raises ``ValueError`` (the command line
exits 2).  The module imports no numpy.  :func:`solve_helix` takes one zero
pattern; :func:`negative_K_scan` decides every pattern of one order at
``K < 0``.  A pattern is equivalent to its upward closure
(:func:`canonical_pattern`), so order ``r`` has ``2r - 1`` distinct
systems.  The tests check the identities behind the closed forms and the
certificates for every pattern of orders 2..8, and the full, circle and
arc systems of orders 9 and 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .frenet import ConstraintSystem, check_tension_order, constraint_system
from .ratpoly import AMBIENT, CurvaturePolynomial as Poly, Monomial, ambient, kvar


def render_squares(poly: Poly) -> str:
    """Render an x-space polynomial with ``x1, x2, ...`` variable names so it
    is not mistaken for a polynomial in the curvatures themselves."""
    # in the text form the only lowercase k are the curvature names k1, k2,
    # ...: coefficients are digits and "/", and K is uppercase
    return poly.render().replace("k", "x")


_K_MONO = Monomial([(AMBIENT, 1)])
_ONE = Monomial()


def _unknowns(x_equations: Iterable[Poly]) -> tuple[int, ...]:
    """The curvature indices that appear in squared equations, ascending."""
    return tuple(sorted(set().union(*(p.variables() for p in x_equations)) - {AMBIENT}))


# -- exact evaluation --------------------------------------------------------

class CompiledSystem:
    """A constraint system in the squared variables, evaluated exactly.

    ``x_equations`` holds the squared factored equations and ``unknowns`` the
    curvature indices they hold, ascending.  :meth:`residuals` and
    :meth:`jacobians` evaluate the equations and their partial derivatives
    at rational points, each point a tuple over the unknowns, by
    substitution: ``K`` once per polynomial, then each unknown.  A point is a
    root exactly when its residuals are all 0; the closed forms of
    :func:`_exact_decision` check their points this way.
    """

    def __init__(self, system: ConstraintSystem):
        self.x_equations = [eq.factored.squared_form() for eq in system.equations]
        self.unknowns = _unknowns(self.x_equations)

    def _values(self, polys: list[Poly], points, K) -> list[tuple]:
        """Each polynomial at each point, one tuple per point."""
        at_K = [p.substitute(AMBIENT, Poly.constant(K)) for p in polys]
        rows = []
        for point in points:
            row = []
            for value in at_K:
                for vid, x in zip(self.unknowns, point):
                    value = value.substitute(vid, Poly.constant(x))
                row.append(value.coefficient(_ONE))
            rows.append(tuple(row))
        return rows

    def residuals(self, points, K) -> list[tuple]:
        """The equations at each point: one value per equation."""
        return self._values(self.x_equations, points, K)

    def jacobians(self, points, K) -> list[tuple]:
        """The partial derivatives at each point: one row per equation, one
        entry per unknown."""
        d = len(self.unknowns)
        polys = [p.differentiate(v) for p in self.x_equations for v in self.unknowns]
        return [
            tuple(row[i : i + d] for i in range(0, len(row), d))
            for row in self._values(polys, points, K)
        ]


# -- solution containers -----------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """One root: the full tuple of geodesic curvatures (length ``2r - 2``,
    nonnegative) and the residual of the unit system there."""

    curvatures: tuple[float, ...]
    residual: float

    def is_proper(self) -> bool:
        return self.curvatures[0] > 0

    def to_json_dict(self) -> dict:
        return {
            "curvatures": list(self.curvatures),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class SolutionReport:
    """Output of :func:`solve_helix`: the exact roots of one system, a
    function of its order, ``K`` and zero pattern alone.  A certificate is a
    rendered dict at ``K < 0`` and a :class:`PositiveCombination` at
    ``K > 0``, rendered only by :meth:`to_json_dict`; ``exact_set`` names a
    :class:`ClosedForm`."""

    order: int
    K: float
    zero_pattern: tuple[int, ...]
    unknowns: tuple[int, ...]
    solutions: tuple[Solution, ...]
    certificates: tuple[dict | PositiveCombination, ...]
    underdetermined: bool
    exact_set: ClosedForm | None = None
    # always 0 and not in the payload; perfbench/spans.py reads it until ROADMAP item 1
    starts: int = 0

    def proper_solutions(self) -> list[Solution]:
        return [s for s in self.solutions if s.is_proper()]

    def to_json_dict(self) -> dict:
        payload = {
            "order": self.order,
            "K": self.K,
            "zero_pattern": list(self.zero_pattern),
            "solutions": [s.to_json_dict() for s in self.solutions],
            "infeasibility_certificates": [
                c if isinstance(c, dict) else c.to_json_dict() for c in self.certificates
            ],
            "search": {
                "unknowns": [f"k{v}" for v in self.unknowns],
                "underdetermined": self.underdetermined,
            },
        }
        if self.exact_set is not None:
            payload["exact_set"] = self.exact_set.to_json_dict()
        return payload


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
            q_terms[mono - _K_MONO] = -coeff
        else:
            return None
    P, Q = Poly(p_terms), Poly(q_terms)
    if any(c < 0 for _, c in P.terms()) or any(c < 0 for _, c in Q.terms()):
        return None
    return P, Q


def _nonpositive_K_decision(
    equations: Iterable[tuple[int, Poly]], K: float
) -> tuple[bool, list[dict]]:
    """Decide ``(frame, squared equation)`` pairs exactly at ``K <= 0``:
    whether only ``x = 0`` solves them (True) or nothing with every
    ``x_j >= 0`` does (False), with one certificate per equation at ``K < 0``.

    Each equation splits once as ``P - K*Q`` with ``P``, ``Q`` nonnegative, so
    every term of ``P`` must vanish, and at ``K < 0`` every term of ``Q`` too:
    a constant term leaves no root, and a power of one ``x_j`` forces
    ``x_j = 0``.  Setting an unknown to 0 only deletes terms, so no second
    pass forces more.  A missing split, or an unknown that no power of it
    alone forces (a term in several unknowns would need a branch), raises."""
    constant = False
    forced: set[int] = set()
    unknowns: set[int] = set()
    certificates: list[dict] = []
    for frame, x_eq in equations:
        split = _nonnegative_split(x_eq)
        if split is None:
            raise ValueError(f"undecided at K <= 0: {render_squares(x_eq)} has no nonnegative split")
        P, Q = split
        unknowns |= x_eq.variables() - {AMBIENT}
        for part in split if K < 0 else (P,):
            for mono, _ in part.terms():
                # P and Q hold no K: a term is the constant, a power of one
                # unknown or a product of several, which forces none alone
                if not mono:
                    constant = True
                elif (vid := mono.sole_variable()) is not None:
                    forced.add(vid)
        if K < 0:
            reason = (
                "sum of squared curvatures cannot equal the negative number K; "
                "with K < 0 the left side is at least |K| > 0"
                if Q == 1 else
                "with K < 0 the equation reads P + |K|*Q = 0 where P and Q have "
                "only nonnegative coefficients; every term must vanish"
            )
            certificates.append({
                "frame": frame,
                "equation": render_squares(x_eq) + " = 0",
                "nonnegative_part": render_squares(P),
                "K_multiplier": render_squares(Q),
                "reason": reason,
            })
    if constant:
        return False, certificates
    unforced = unknowns - forced
    if unforced:
        left = ", ".join(f"x{v}" for v in sorted(unforced))
        raise ValueError(f"undecided at K <= 0: no power of one unknown forces {left} to 0")
    return True, certificates


@dataclass(frozen=True)
class PositiveCombination:
    """An exact proof that no root of a system has ``k1 > 0``.

    Frames 2 and 4 split as ``F2 = P2 - K*Q2`` and ``F4 = P4 - K*Q4`` with
    nonnegative parts (:func:`_nonnegative_split`), so the combination
    ``N = -Q4*F2 + Q2*F4 = P4*Q2 - P2*Q4`` holds no K and vanishes on every
    root, at every K.  Every coefficient of N is positive and one term is a
    power of ``x1`` alone, so N is positive wherever ``x1 > 0`` and every
    ``x_j >= 0``: each root has ``k1 = 0``, which the truncation rule makes
    the geodesic (pattern ``{1}``).  ``multipliers`` pairs with ``frames``,
    and ``x1_power`` is the least power of ``x1`` alone in N."""

    order: int
    frames: tuple[int, int]
    multipliers: tuple[Poly, Poly]
    combination: Poly
    x1_power: int

    @property
    def reason(self) -> str:
        a, b = self.frames
        N = self.combination
        return (
            f"N = -Q{b}*F{a} + Q{a}*F{b}, with Q{a} and Q{b} the K multipliers of "
            f"F{a} and F{b}, contains no K and has {len(N)} terms, all positive, among "
            f"them x1^{self.x1_power}; N > 0 wherever x1 > 0 and every x_j >= 0, "
            "so every root has k1 = 0, the geodesic"
        )

    def to_json_dict(self) -> dict:
        return {
            "frames": list(self.frames),
            "multipliers": [render_squares(m) for m in self.multipliers],
            "combination": render_squares(self.combination),
            "reason": self.reason,
        }


def _x1_powers(poly: Poly) -> list[int]:
    """The exponents ``e > 0`` of the terms ``c * x1^e`` of ``poly``."""
    return [mono.exponent(1) for mono, _ in poly.terms() if mono.sole_variable() == 1]


def _positive_combination(order: int, equations: dict[int, Poly]) -> PositiveCombination | None:
    """The certificate for squared equations keyed by frame, built and
    checked exactly, or None when it is undecided: frame 2 or 4 is missing,
    one of them has no nonnegative split, or N holds K, has a coefficient
    that is not positive, or has no term in ``x1`` alone."""
    if 2 not in equations or 4 not in equations:
        return None
    splits = [_nonnegative_split(equations[frame]) for frame in (2, 4)]
    if None in splits:
        return None
    (_, Q2), (_, Q4) = splits
    N = -Q4 * equations[2] + Q2 * equations[4]
    if any(c <= 0 or mono.exponent(AMBIENT) for mono, c in N.terms()):
        return None
    powers = _x1_powers(N)
    return PositiveCombination(order, (2, 4), (-Q4, Q2), N, min(powers)) if powers else None


# the points a closed-form arc or segment reports: t at this many even steps
# across its range
CLOSED_FORM_POINTS = 8


@dataclass(frozen=True)
class ClosedForm:
    """The exact root set of a one-equation system at ``K > 0``.

    The squared equation equals an expected factor exactly.  ``circle``:
    ``x1 - (r - 1) K``, one root at ``t = x1 = (r - 1) K``.  ``arc``
    (pattern ``{3}``, ``r >= 3``): ``T^(r - 3) (T^2 - K ((r - 1) x1 + x2))``
    with ``T = t = x1 + x2``, so ``x1 = t (t - K) / ((r - 2) K)`` and
    ``x2 = t - x1``; ``x1 > 0`` needs ``t > K``, ``x2 >= 0`` needs
    ``t <= (r - 1) K``, where the arc meets the circle.  ``segment`` (the
    full order-two system): ``x1 + x2 - K`` with ``t = x1`` in ``(0, K]``.
    ``points`` holds ``x`` over the unknowns at ``K = 1``, one row per
    ``t / K`` in ``t_values``, each an exact root by substitution."""

    kind: str
    factor: Poly
    parametrization: str
    t_range: str
    t_values: tuple[Fraction, ...]
    points: tuple[tuple[Fraction, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "equation": render_squares(self.factor) + " = 0",
            "parametrization": self.parametrization,
            "t_range": self.t_range,
            "t_over_K": [str(t) for t in self.t_values],
        }


def _closed_form(order: int, pattern: frozenset[int], x_eq: Poly) -> ClosedForm | None:
    """The closed form of a system's one squared equation, or None when the
    equation is not the factor that ``(order, pattern)`` leads to expect."""
    r = order
    x1, x2, K = kvar(1), kvar(2), ambient()
    least = min(pattern, default=None)
    steps = [Fraction(j, CLOSED_FORM_POINTS) for j in range(1, CLOSED_FORM_POINTS + 1)]
    if least == 2:
        kind = "circle"
        factor = expected = x1 - (r - 1) * K
        parametrization = "x1 = t"
        t_range = f"t = {render_squares((r - 1) * K)}"
        t_values = (Fraction(r - 1),)
        points = ((Fraction(r - 1),),)
    elif least == 3 and r >= 3:
        kind = "arc"
        T = x1 + x2
        factor = T**2 - K * ((r - 1) * x1 + x2)
        expected = T ** (r - 3) * factor
        denominator = "K" if r == 3 else f"({r - 2}*K)"
        parametrization = f"t = x1 + x2, x1 = t*(t - K)/{denominator}, x2 = t - x1"
        t_range = f"K < t <= {render_squares((r - 1) * K)}"
        t_values = tuple(1 + (r - 2) * s for s in steps)
        points = tuple((t * (t - 1) / (r - 2), t - t * (t - 1) / (r - 2)) for t in t_values)
    elif least is None and r == 2:
        kind = "segment"
        factor = expected = x1 + x2 - K
        parametrization = "t = x1, x2 = K - t"
        t_range = "0 < t <= K"
        t_values = tuple(steps)
        points = tuple((t, 1 - t) for t in t_values)
    else:
        return None
    if x_eq != expected:
        return None
    return ClosedForm(kind, factor, parametrization, t_range, t_values, points)


def _exact_decision(
    system: ConstraintSystem, K: float
) -> tuple[tuple[int, ...], tuple[Solution, ...], list, ClosedForm | None]:
    """Decide a system exactly: its unknowns, its roots, its certificates
    and its closed form.

    At ``K <= 0``, or with no equation (every tension component vanished
    identically), the roots are none or only the geodesic
    (:func:`_nonpositive_K_decision`), with certificates at ``K < 0``.  At
    ``K > 0`` the answer is no root, with one :class:`PositiveCombination`;
    failing that, the points of a :class:`ClosedForm`, each checked as an
    exact root by :class:`CompiledSystem` and each curvature scaled by
    ``sqrt(K)``.  At orders 2..10 that decides every canonical system (the
    tests run every pattern at orders 2..8); a system that neither decides
    raises ``ValueError``, as an undecided one does at ``K <= 0``."""
    equations = [(eq.frame, eq.factored.squared_form()) for eq in system.equations]
    unknowns = _unknowns(x for _, x in equations)
    if K > 0 and equations:
        certificate = _positive_combination(system.order, dict(equations))
        if certificate is not None:
            return unknowns, (), [certificate], None
        if len(equations) != 1:
            raise ValueError(
                f"undecided at K > 0: {len(equations)} equations and no positive "
                "combination of frames 2 and 4"
            )
        x_eq = equations[0][1]
        closed = _closed_form(system.order, system.zero_pattern, x_eq)
        if closed is None:
            raise ValueError(
                f"undecided at K > 0: {render_squares(x_eq)} = 0 is no closed form "
                f"of order {system.order}"
            )
        if any(any(row) for row in CompiledSystem(system).residuals(closed.points, 1)):
            raise ValueError(f"undecided at K > 0: a point of the {closed.kind} is no exact root")
        roots = []
        for point in closed.points:
            curvatures = [0.0] * (2 * system.order - 2)
            for vid, x in zip(unknowns, point):
                curvatures[vid - 1] = math.sqrt(x) * math.sqrt(K)
            roots.append(Solution(tuple(curvatures), 0.0))
        return unknowns, tuple(roots), [], closed
    geodesic, certificates = _nonpositive_K_decision(equations, K)
    roots = (Solution((0.0,) * (2 * system.order - 2), 0.0),) if geodesic else ()
    return unknowns, roots, certificates, None


def solve_helix(r: int, K: float, zero_pattern: Iterable[int] = ()) -> SolutionReport:
    """Decide the order-``r`` constraint system with the given zero pattern
    exactly, over the squared curvatures, and report its nonnegative roots.

    The answer is :func:`_exact_decision`'s: at ``K <= 0``, and for a
    system with no equation, no root or only the geodesic, with the
    certificates at ``K < 0``; at ``K > 0``, no root for a system with a
    :class:`PositiveCombination`, reported as its one certificate, and
    otherwise the points of a :class:`ClosedForm` (the circle, the arc or
    the order-two segment), named by ``exact_set``.  Roots carry residual 0,
    and the arc and the segment are ``underdetermined``.  For orders 2..10
    (:func:`polyhelix.frenet.check_tension_order`, checked first) that is
    every canonical system; a system that none of these checks decides
    raises ``ValueError``.  Nothing is sampled.
    """
    check_tension_order(r)
    if not math.isfinite(K):
        raise ValueError(f"ambient curvature K must be finite, got {K}")
    pattern = tuple(sorted(set(zero_pattern)))
    system = constraint_system(r, set(pattern))
    unknowns, solutions, certificates, closed = _exact_decision(system, K)
    underdetermined = closed is not None and closed.kind != "circle"
    return SolutionReport(
        r, K, pattern, unknowns, solutions, tuple(certificates), underdetermined, closed
    )


# -- negative curvature rigidity ---------------------------------------------

@dataclass(frozen=True)
class NegativeKReport:
    """The exact decisions at ``K < 0`` for the canonical systems of one
    order: one JSON entry each, with its roots (none, or the geodesic)."""

    order: int
    K: float
    patterns: tuple[dict, ...]
    witness: str

    def to_json_dict(self) -> dict:
        proper = sum(s["curvatures"][0] > 0 for p in self.patterns for s in p["solutions"])
        return {
            "order": self.order,
            "K": self.K,
            "proper_solutions": proper,
            "witness": self.witness,
            "patterns": list(self.patterns),
        }


def canonical_pattern(pattern: Iterable[int], m: int) -> tuple[int, ...]:
    """Truncation rule: once some ``k_t`` vanishes, all later curvatures drop
    out of the system, so a pattern is equivalent to its upward closure."""
    s = set(pattern)
    if not s:
        return ()
    t = min(s)
    return tuple(range(t, m + 1))


def negative_K_scan(r: int, K: float, trials: int = 1000, seed: int = 42) -> NegativeKReport:
    """Decide every zero pattern of order ``r`` at ``K < 0`` exactly
    (:func:`_exact_decision`); nothing is sampled, so ``trials`` and
    ``seed`` are ignored (the benchmark's scan passes them until ROADMAP
    item 1).  The ``2^(2r-2)`` patterns collapse to ``2r - 1``
    systems under the truncation rule: the full one, and ``t..2r-2``, which
    merges the ``2^(2r-2-t)`` patterns whose least zero index is ``t``."""
    if not (math.isfinite(K) and K < 0):
        raise ValueError(f"rigidity scan requires a finite K < 0, got {K}")
    m = 2 * r - 2
    patterns = [()] + [canonical_pattern({t}, m) for t in range(m, 0, -1)]
    counts = [1] + [2 ** (m - t) for t in range(m, 0, -1)]
    entries = []
    for pattern, count in zip(patterns, counts):
        _, solutions, certificates, _ = _exact_decision(constraint_system(r, set(pattern)), K)
        entries.append({
            "zero_pattern": list(pattern),
            "merged_pattern_count": count,
            "solutions": [s.to_json_dict() for s in solutions],
            "infeasibility_certificates": certificates,
        })
    rootless = ", ".join(str(e["zero_pattern"]) for e in entries if not e["solutions"])
    witness = (
        f"with K = {K} < 0 and x_j >= 0 every term must vanish: patterns {rootless} "
        "keep a positive constant (no root), every other one forces x = 0 (the geodesic)"
    )
    return NegativeKReport(r, K, tuple(entries), witness)
