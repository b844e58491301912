"""Tests for closed-form trigonometric sphere curves.

Expected values were independently derived before being frozen here: frame
coefficients and tension norms against a high-precision Gram-matrix oracle,
ODE residuals by hand evaluation of the collapsed trigonometric terms (kept
below as oracles for the generic tension residual), and the two-frequency
family against its quadratic closed form.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhelix import acceptance, spherecurves
from polyhelix.classify import solve_helix
from polyhelix.cli import VERIFY_CURVES, dispatch
from polyhelix.frenet import MAX_TENSION_ORDER
from polyhelix.spherecurves import (
    BumpPerturbation,
    FrameDegeneracyError,
    MAX_PASS_NODES,
    QuadraticSurd,
    TrigCurve,
    _CovariantAlgebra,
    _tension,
    _jet_rsqrt,
    _projected_jet,
    biharmonic_two_freq,
    covariant_jets,
    equation_residual,
    family_quartic_residual,
    first_variation,
    geodesic_curvatures,
    intrinsic_tau_residual,
    planar_circle,
    random_bump,
    tension_at,
    tri_hyperbola_curve,
    tri_hyperbola_family,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def numpy_bump(dimension: int, rng: np.random.Generator) -> BumpPerturbation:
    """A bump drawn from a numpy generator, as :func:`random_bump` drew it
    before it took the standard library's: the tests keep their bumps."""
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    return BumpPerturbation(
        start=float(rng.uniform(*spherecurves.BUMP_STARTS)),
        width=float(rng.uniform(*spherecurves.BUMP_WIDTHS)),
        direction=tuple(direction),
    )


def arclength_two_block(x: float, y: float) -> TrigCurve | None:
    """Two-block arclength curve with weights forced by the constraints,
    solved exactly from the binary values of ``x`` and ``y`` (float weights
    would miss unit speed by a rounding error), or None when the weights
    leave (0, 1)."""
    if abs(x - y) < 1e-6:
        return None
    x, y = Fraction(x), Fraction(y)
    a1sq = (1 - y) / (x - y)
    if not 0.02 < a1sq < 0.98:
        return None
    return TrigCurve(((x, a1sq), (y, 1 - a1sq)))


def exact_density(curve: TrigCurve, r: int) -> float:
    """``|nabla^(r-1) gamma'|^2``, the order-``r`` density, from the exact
    covariant algebra, rounded to a float; on the unit sphere it needs only
    ``|gamma| = 1``, not an arclength parametrization."""
    alg = _CovariantAlgebra(curve, r)
    top = alg.chain(r - 1)[-1]
    return float(alg.inner(top, top))


def sampled_density_defect(curve: TrigCurve, r: int) -> float:
    """Largest gap between the exact density and ``covariant_jets`` on
    sampled jets, relative to ``1 + |density|``.  The density does not depend
    on ``s``, so the samples lie in a fixed window: over a long period (a
    slow block) the phases of the fast block would lose all their digits."""
    density = exact_density(curve, r)
    s = np.linspace(0.0, 2.0 * math.pi, 17)
    jet = [curve.derivative(l)(s) for l in range(r + 1)]
    top = covariant_jets(jet, 1, r - 1)[-1]
    sampled = np.einsum("...i,...i->...", top, top)
    return float(np.abs(sampled - density).max()) / (1.0 + abs(density))


def inner_exact(curve: TrigCurve, p: int, q: int):
    """``<gamma^(p), gamma^(q)>`` exactly, one block sum per pair: the oracle
    of the covariant algebra's Gram matrix."""
    c = (1, 0, -1, 0)[(p - q) % 4]
    total = Fraction(0)
    if c:
        half = (p + q) // 2  # p-q even implies p+q even
        for x, w in curve.blocks:
            total += math.prod([x] * half, start=w)
        total *= c
    if p == 0 and q == 0:
        total += curve.constant_weight
    return total


def solve_tri_hyperbola(samples: int) -> list[tuple[float, float, float, float]]:
    """Float oracle of the family sweep: for ``y = 4 i / samples`` solve the
    family quadratic for ``x`` on the admissible branch in doubles, recover
    the weights, and keep the entries whose weights lie strictly inside
    (0, 1), as ``(x, y, alpha_1^2, alpha_3^2)`` sorted by ``y``."""
    out = []
    for i in range(1, samples + 1):
        y = 4.0 * i / samples
        disc = 5.0 * y * y - 8.0 * y + 4.0
        if disc < 0:
            continue
        x = 0.5 * (4.0 - 3.0 * y + math.sqrt(disc))
        if x <= 1e-12 or abs(x - y) <= 1e-9:
            continue
        a1sq = (1.0 - y) / (x - y)
        a3sq = 1.0 - a1sq
        if not (1e-12 < a1sq < 1.0 - 1e-12):
            continue
        out.append((x, y, a1sq, a3sq))
    return out


def solve_lambda(x, y, a1sq, a3sq):
    """Hand-derived multiplier balancing the first stationarity equation of
    the family: the oracle of ``FamilySample.lagrange_multiplier``."""
    return -(
        x**3 * (1.0 - 2.0 * a1sq) - 2.0 * x**2 + 3.0 * x - 2.0 * x * y**2 * a3sq
    )


def lambda_system_residual(x, y, a1sq, a3sq, lam):
    """Hand-derived residuals of the four stationarity/constraint equations
    of the two-frequency ansatz: two multiplier equations, arclength, unit
    sphere.  Each argument may be a float or exact (``Fraction`` or
    ``QuadraticSurd``)."""
    if float(x) <= 0 or float(y) <= 0:
        raise ValueError("both squared frequencies must be positive")
    r1 = x * x * x * (1 - 2 * a1sq) - 2 * x * x + 3 * x - 2 * x * y * y * a3sq + lam
    r2 = y * y * y * (1 - 2 * a3sq) - 2 * y * y + 3 * y - 2 * y * x * x * a1sq + lam
    r3 = x * a1sq + y * a3sq - 1
    r4 = a1sq + a3sq - 1
    return (r1, r2, r3, r4)


def highest_order_group(r: int) -> tuple[TrigCurve, list[BumpPerturbation]]:
    """The r-planar curve and three sin^10 bumps: sharp enough for orders up
    to 10."""
    curve = planar_circle(r)
    rng = np.random.default_rng(r)
    return curve, [
        replace(numpy_bump(curve.dimension, rng), sharpness=5) for _ in range(3)
    ]


def lone_energy(curve: TrigCurve, bump: BumpPerturbation, r: int, t, panels: int):
    """Order-``r`` energy of the projected curve ``gamma + t beta`` over one
    bump's support by ``panels`` equal 24-node Gauss-Legendre panels: the
    one-bump pass that ``first_variation`` evaluates in batches."""
    lo, hi = bump.start, bump.start + bump.width
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (hi - lo) / panels
    s = (lo + half * np.arange(1, 2 * panels, 2))[:, None] + half * nodes
    beta_jet = bump.jet(s, r)
    jet = [curve.derivative(l)(s) + t * beta_jet[l] for l in range(r + 1)]
    top = covariant_jets(_projected_jet(jet, r), 1, r - 1)[-1]
    density = np.einsum("...i,...i->...", top, top)
    return half * np.sum(density @ weights)


def lone_first_variation(curve: TrigCurve, r: int, bump: BumpPerturbation):
    """Oracle for ``first_variation``: one bump's complex-step derivative by
    the doubling loop, one :func:`lone_energy` pass per level from 8 to 512
    panels, stopping once two levels agree to ``QUAD_TOL``.  Returns the
    value and the number of levels evaluated."""
    h = 1e-30
    previous = math.inf
    for levels, panels in enumerate((8, 16, 32, 64, 128, 256, 512), 1):
        current = float(lone_energy(curve, bump, r, 1j * h, panels).imag) / h
        if abs(current - previous) <= spherecurves.QUAD_TOL * (1.0 + abs(current)):
            break
        previous = current
    return current, levels


def tension_route(curve: TrigCurve, r: int, bump: BumpPerturbation) -> float:
    """The first variation as ``2 (-1)^r int <tau_r, beta> ds`` over the
    bump's support, by 32 equal 24-node Gauss-Legendre panels: no complex
    step and no derivative of the bump."""
    panels = 32
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 * bump.width / panels
    s = (bump.start + half * np.arange(1, 2 * panels, 2))[:, None] + half * nodes
    density = np.einsum("...i,...i->...", tension_at(curve, r, s), bump.jet(s, 0)[0])
    return 2.0 * (-1) ** r * half * float(np.sum(density @ weights))


@pytest.fixture
def passes(monkeypatch):
    """``(bumps, panels)`` of every quadrature pass ``first_variation`` makes."""
    recorded = []
    evaluate = spherecurves._energy_pass

    def spy(curve, bumps, r, t, panels):
        recorded.append((list(bumps), panels))
        return evaluate(curve, bumps, r, t, panels)

    monkeypatch.setattr(spherecurves, "_energy_pass", spy)
    return recorded


def batched_against_lone(curve, r, bumps, passes) -> list[tuple[int, int]]:
    """Check one ``first_variation`` call bump by bump against
    :func:`lone_first_variation`: the same value bit for bit, after the same
    number of levels.  Returns each bump's (batched, lone) level count."""
    passes.clear()
    values = first_variation(curve, r, bumps)
    counts = []
    for bump, value in zip(bumps, values):
        want, levels = lone_first_variation(curve, r, bump)
        assert value.hex() == want.hex()
        batched = sum(any(b is bump for b in chunk) for chunk, _ in passes)
        counts.append((batched, levels))
    assert len(values) == len(bumps)
    assert all(batched == lone for batched, lone in counts)
    return counts


# -- construction ------------------------------------------------------------

class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrigCurve(((1, Fraction(1, 2)),), Fraction(1, 4))

    def test_weights_must_sum_to_one_exactly_up_to_rounding(self):
        # unit speed exactly, but |gamma|^2 is 1 + 1e-10: a float check within
        # 1e-9 accepted it, and its order-2 tension residual read 9e-11
        w2 = Fraction(1, 2) + Fraction(1e-10)
        x2 = Fraction(1, 4) / w2
        with pytest.raises(ValueError, match="squared weights sum to 1.0000000001"):
            TrigCurve(((Fraction(3, 2), Fraction(1, 2)), (x2, w2)))

    def test_frequencies_must_be_distinct(self):
        with pytest.raises(ValueError):
            TrigCurve(((2, Fraction(1, 2)), (2, Fraction(1, 2))))
        for twin in (Fraction(2), QuadraticSurd(2, 0, 1, 3)):
            with pytest.raises(ValueError, match="pairwise distinct"):
                TrigCurve(((QuadraticSurd(2, 0, 1, 2), Fraction(1, 2)), (twin, Fraction(1, 2))))
            with pytest.raises(ValueError, match="pairwise distinct"):
                TrigCurve(((2.0, Fraction(1, 2)), (twin, Fraction(1, 2))))
        # distinctness is exact: frequencies 1e-13 apart are two blocks
        near = Fraction(2) + Fraction(1, 10**13)
        assert TrigCurve(((2, Fraction(1, 2)), (near, Fraction(1, 2)))).dimension == 4

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            TrigCurve(((0, 1),))

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            TrigCurve(())

    def test_dimension_counts_constant_axis(self):
        assert planar_circle(1).dimension == 2
        assert planar_circle(2).dimension == 3
        assert biharmonic_two_freq().dimension == 4
        assert planar_circle(3).dimension == 3

    def test_named_curves_are_arclength(self):
        for curve in (
            planar_circle(1),
            planar_circle(2),
            biharmonic_two_freq(),
            planar_circle(3),
            planar_circle(4),
            tri_hyperbola_curve(2),
        ):
            assert abs(curve.moment(1) - 1.0) < 1e-12

    def test_point_lies_on_unit_sphere(self):
        for curve in (planar_circle(2), biharmonic_two_freq(), planar_circle(4)):
            s = np.linspace(0.0, 7.0, 11)
            radii = np.linalg.norm(curve(s), axis=-1)
            assert np.abs(radii - 1.0).max() < 1e-12


class TestPlanarCircle:
    @pytest.mark.parametrize("r, blocks, constant_weight", [
        (1, ((1, 1),), 0),
        (2, ((2, Fraction(1, 2)),), Fraction(1, 2)),
        (3, ((3, Fraction(1, 3)),), Fraction(2, 3)),
        (4, ((4, Fraction(1, 4)),), Fraction(3, 4)),
    ])
    def test_low_orders_are_the_great_biharmonic_tri_and_four_circles(
        self, r, blocks, constant_weight
    ):
        assert planar_circle(r) == TrigCurve(blocks, constant_weight)

    @pytest.mark.parametrize("r", range(2, 11))
    def test_first_curvature_squared_is_the_classified_circle(self, r):
        # k1^2 = (r - 1) K at K = 1: the circle root of the {2..} system
        (k1,) = geodesic_curvatures(planar_circle(r), 1)
        assert k1**2 == pytest.approx(r - 1, rel=1e-12, abs=0)
        (root,) = solve_helix(r, 1.0, {2}).solutions
        assert k1**2 == pytest.approx(root.curvatures[0] ** 2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("r", [0, -3, True, 2.0, Fraction(3), "3"])
    def test_order_must_be_an_integer_from_one(self, r):
        with pytest.raises(ValueError, match="planar circle order"):
            planar_circle(r)


# -- derivative evaluators ---------------------------------------------------

class TestDerivatives:
    def test_derivative_norm_matches_moment(self):
        curve = biharmonic_two_freq(Fraction(5, 4), Fraction(3, 4))
        s = np.linspace(0.0, 5.0, 13)
        for l in range(1, 6):
            norms_sq = np.einsum("...i,...i->...", *[curve.derivative(l)(s)] * 2)
            assert np.abs(norms_sq - curve.moment(l)).max() < 1e-10

    def test_great_circle_second_derivative_is_minus_point(self):
        curve = planar_circle(1)
        s = np.linspace(0.0, 6.0, 7)
        assert np.abs(curve.derivative(2)(s) + curve(s)).max() < 1e-14

    def test_biharmonic_circle_acceleration_norm(self):
        assert abs(planar_circle(2).moment(2) - 2.0) < 1e-15

    def test_finite_difference_agrees_with_closed_form(self):
        curve = tri_hyperbola_curve(Fraction(5, 2))
        h = 1e-5
        s = np.array([0.3, 1.7])
        fd = (curve(s + h) - curve(s - h)) / (2.0 * h)
        assert np.abs(fd - curve.derivative(1)(s)).max() < 1e-8


# -- pointwise sphere identities ---------------------------------------------

def sphere_identities_defect(curve: TrigCurve, s: np.ndarray) -> float:
    """Max defect of the five arclength sphere-curve identities:
    <g,g'> = 0, <g'',g> = -1, <g''',g> = 0, <g',g''> = 0, <g4,g> = |g''|^2."""
    g = [curve.derivative(l)(s) for l in range(5)]

    def dot(a, b):
        return np.einsum("...i,...i->...", a, b)

    defects = [
        dot(g[0], g[1]),
        dot(g[2], g[0]) + 1.0,
        dot(g[3], g[0]),
        dot(g[1], g[2]),
        dot(g[4], g[0]) - dot(g[2], g[2]),
    ]
    return float(max(np.abs(d).max() for d in defects))


class TestSphereIdentities:
    def test_arclength_curves_satisfy_identities(self):
        s = np.linspace(0.0, 9.0, 33)
        for curve in (
            planar_circle(1),
            planar_circle(2),
            biharmonic_two_freq(),
            planar_circle(3),
            planar_circle(4),
            tri_hyperbola_curve(2),
        ):
            assert sphere_identities_defect(curve, s) < 1e-11

    def test_non_arclength_curve_shows_half_defect(self):
        slow = TrigCurve(((1, Fraction(1, 2)),), Fraction(1, 2))
        defect = sphere_identities_defect(slow, np.linspace(0.0, 6.0, 17))
        assert abs(defect - 0.5) < 1e-12

    @given(
        x=st.floats(0.3, 5.0),
        y=st.floats(0.3, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_identities_hold_across_random_arclength_curves(self, x, y):
        curve = arclength_two_block(x, y)
        if curve is None:
            return
        assert sphere_identities_defect(curve, np.linspace(0.0, 4.0, 9)) < 1e-9


# -- hand-expanded ODE oracles -----------------------------------------------

def inner(curve: TrigCurve, p: int, q: int) -> float:
    """``<gamma^(p), gamma^(q)>`` rounded to a float."""
    return float(inner_exact(curve, p, q))


def biharmonic_ode_residual(curve: TrigCurve) -> float:
    """Sup norm of ``gamma'''' + 2 gamma'' + gamma (2 - |gamma''|^2)`` over the
    slowest block's period: the order-two equation expanded by hand."""
    s = np.linspace(0.0, curve.period(), spherecurves.PERIOD_SAMPLES, endpoint=False)
    g0, g2, g4 = (curve.derivative(l)(s) for l in (0, 2, 4))
    residual = g4 + 2.0 * g2 + (2.0 - inner(curve, 2, 2)) * g0
    return float(np.linalg.norm(residual, axis=-1).max())


def fourharmonic_ode_residual(curve: TrigCurve) -> float:
    """Sup norm over the slowest block's period of the eighth-order
    variational ODE for order-four curves on the unit sphere, expanded by
    hand.

    For this ansatz every scalar product is s-independent, so the nested
    ``d/ds`` terms acting on scalar factors collapse: only the vector factor
    keeps differentiating.  Terms in ``<gamma^(4), gamma'>`` are left out:
    it vanishes by parity (``p - q`` odd).
    """
    b2 = inner(curve, 2, 2)            # |g''|^2
    c42 = inner(curve, 4, 2)           # <g4, g''>
    tangential = (
        inner(curve, 8, 0)
        + 2.0 * inner(curve, 6, 0)
        + 3.0 * b2
        - b2**2
        + 6.0 * b2
        - 4.0
        + 2.0 * c42
        - b2 * inner(curve, 0, 4)
    )
    s = np.linspace(0.0, curve.period(), spherecurves.PERIOD_SAMPLES, endpoint=False)
    g = {l: curve.derivative(l)(s) for l in (0, 2, 4, 6, 8)}
    # -b2*g[4] appears twice: one copy from the plain product term, one from
    # the collapsed fourth derivative of (|g''|^2 gamma)
    residual = (
        g[8]
        + 2.0 * g[6]
        + 3.0 * g[4]
        - b2 * g[4]
        - 6.0 * b2 * g[2]
        + 4.0 * g[2]
        - 2.0 * c42 * g[2]
        - b2 * g[4]
        - tangential * g[0]
    )
    return float(np.linalg.norm(residual, axis=-1).max())


def off_shell_curves() -> list[TrigCurve]:
    """Named curves off their own order and random two-block curves: none
    solves the order-two or the order-four equation."""
    rng = np.random.default_rng(7)
    curves = [planar_circle(3), planar_circle(5), tri_hyperbola_curve(2)]
    while len(curves) < 20:
        curve = arclength_two_block(*rng.uniform(0.3, 4.0, size=2))
        if curve is not None:
            curves.append(curve)
    return curves


class TestHandExpandedOracles:
    def test_oracles_vanish_on_their_solutions(self):
        assert biharmonic_ode_residual(planar_circle(2)) < 1e-12
        assert biharmonic_ode_residual(biharmonic_two_freq()) < 1e-12
        assert fourharmonic_ode_residual(planar_circle(4)) < 1e-10
        assert fourharmonic_ode_residual(planar_circle(1)) < 1e-12

    @pytest.mark.parametrize(
        "r, oracle", [(2, biharmonic_ode_residual), (4, fourharmonic_ode_residual)]
    )
    def test_generic_residual_matches_the_oracle_off_shell(self, r, oracle):
        for curve in off_shell_curves():
            want = oracle(curve)
            assert want > 1e-3
            assert equation_residual(curve, r) == pytest.approx(want, rel=1e-12, abs=0)

    def test_tension_is_sampled_in_ambient_coordinates(self):
        curve = tri_hyperbola_curve(Fraction(1, 2))
        s = np.linspace(0.0, 5.0, 7)
        field = tension_at(curve, 3, s)
        assert field.shape == (7, curve.dimension)
        assert np.abs(field).max() < 1e-12
        norms = np.linalg.norm(tension_at(curve, 2, s), axis=-1)
        assert np.abs(norms - intrinsic_tau_residual(curve, 2)).max() < 1e-12


# -- order-two tension residual ----------------------------------------------

class TestBiharmonicResidual:
    def test_circle_solves_the_ode(self):
        assert equation_residual(planar_circle(2), 2) < 1e-12

    def test_two_frequency_family_solves_the_ode(self):
        for a2, b2 in (
            (Fraction(3, 2), Fraction(1, 2)),
            (Fraction(6, 5), Fraction(4, 5)),
            (Fraction(7, 4), Fraction(1, 4)),
        ):
            assert equation_residual(biharmonic_two_freq(a2, b2), 2) < 1e-12

    def test_great_circle_solves_the_ode(self):
        assert equation_residual(planar_circle(1), 2) < 1e-12

    def test_higher_order_curve_fails_the_ode(self):
        assert equation_residual(planar_circle(3), 2) > 0.1

    def test_rejects_non_arclength_input(self):
        slow = TrigCurve(((1, Fraction(1, 2)),), Fraction(1, 2))
        with pytest.raises(ValueError):
            equation_residual(slow, 2)


# -- order-four tension residual ---------------------------------------------

class TestFourharmonicResidual:
    def test_planar_frequency_two_curve_solves_the_ode(self):
        assert equation_residual(planar_circle(4), 4) < 1e-10

    def test_great_circle_solves_the_ode(self):
        assert equation_residual(planar_circle(1), 4) < 1e-12

    def test_biharmonic_circle_misses_by_two(self):
        residual = equation_residual(planar_circle(2), 4)
        assert residual > 0.1
        assert abs(residual - 2.0) < 1e-10


# -- intrinsic tension residuals ---------------------------------------------

class TestIntrinsicTension:
    def test_certified_curves_have_zero_tension_at_own_order(self):
        assert intrinsic_tau_residual(planar_circle(2), 2) < 1e-12
        assert intrinsic_tau_residual(biharmonic_two_freq(), 2) < 1e-12
        assert intrinsic_tau_residual(planar_circle(3), 3) < 1e-10
        assert intrinsic_tau_residual(planar_circle(4), 4) < 1e-10
        assert intrinsic_tau_residual(tri_hyperbola_curve(2), 3) < 1e-10

    def test_geodesic_has_zero_tension_at_every_order(self):
        for r in (2, 3, 4):
            assert intrinsic_tau_residual(planar_circle(1), r) < 1e-12

    def test_orders_do_not_transfer(self):
        assert intrinsic_tau_residual(planar_circle(2), 3) > 0.1
        assert intrinsic_tau_residual(planar_circle(3), 2) > 0.1
        assert intrinsic_tau_residual(planar_circle(4), 3) > 0.1

    def test_rejects_unsupported_order(self):
        bump = BumpPerturbation(start=1.0, width=2.0, direction=(1.0, 0.0, 0.0))
        for r in (1, MAX_TENSION_ORDER + 1):
            with pytest.raises(ValueError, match=f"got {r}$"):
                intrinsic_tau_residual(planar_circle(2), r)
            with pytest.raises(ValueError, match=f"got {r}$"):
                first_variation(planar_circle(2), r, [bump])

    @pytest.mark.parametrize(
        "curve, r",
        [
            (planar_circle(2), 2),
            (biharmonic_two_freq(), 2),
            (biharmonic_two_freq(Fraction(6, 5), Fraction(4, 5)), 2),
        ]
        + [(planar_circle(r), r) for r in range(3, MAX_TENSION_ORDER + 1)]
        + [
            (tri_hyperbola_curve(y), 3)
            for y in (0.0625, 0.5, 2, 2.98, 1e-300, Fraction("1e-300"))
        ],
    )
    def test_matched_order_tension_is_exactly_zero(self, curve, r):
        # in the curve's own field, with the neighbouring order as control
        def squared_norm(order):
            alg, tau = _tension(curve, order)
            return alg.inner(tau, tau)

        assert squared_norm(r) == 0
        control = squared_norm(r + 1 if r < MAX_TENSION_ORDER else r - 1)
        assert control != 0 and float(control) > 0

    @pytest.mark.parametrize("r", [5, 6, 7])
    def test_r_planar_curve_is_critical_only_at_its_order(self, r):
        assert intrinsic_tau_residual(planar_circle(r), r) < 1e-9
        assert intrinsic_tau_residual(planar_circle(r), r + 1) > 0.1

    @pytest.mark.parametrize("r", range(2, MAX_TENSION_ORDER + 1))
    def test_equation_residual_separates_every_order(self, r):
        # the sampled residual sits near 4e-15 relative to its largest term,
        # so its floor grows with r; the neighbouring order is the control
        control = r + 1 if r < MAX_TENSION_ORDER else r - 1
        on_shell = equation_residual(planar_circle(r), r)
        assert on_shell <= 1e-10 * equation_residual(planar_circle(r), control)

    def test_tension_and_ode_residual_agree_across_sweep(self):
        # planted solutions plus random two-block curves: the intrinsic and
        # extrinsic order-two residuals must agree on which curves pass
        rng = np.random.default_rng(42)
        curves = [
            biharmonic_two_freq(Fraction(3, 2), Fraction(1, 2)),
            biharmonic_two_freq(Fraction(11, 10), Fraction(9, 10)),
            biharmonic_two_freq(Fraction(39, 20), Fraction(1, 20)),
        ]
        while len(curves) < 100:
            x, y = rng.uniform(0.3, 4.0, size=2)
            curve = arclength_two_block(x, y)
            if curve is not None:
                curves.append(curve)
        for curve in curves:
            extrinsic = biharmonic_ode_residual(curve)
            intrinsic = intrinsic_tau_residual(curve, 2)
            assert (extrinsic < 1e-9 and intrinsic < 1e-9) or (
                extrinsic > 1e-3 and intrinsic > 1e-3
            )


# -- geodesic curvature extraction -------------------------------------------

class TestGeodesicCurvatures:
    def test_biharmonic_circle_curvature_is_one(self):
        (k1,) = geodesic_curvatures(planar_circle(2), 1)
        assert abs(k1 - 1.0) < 1e-12

    def test_planar_curves_hit_frozen_curvatures(self):
        assert abs(geodesic_curvatures(planar_circle(3), 1)[0] - SQRT2) < 1e-12
        assert abs(geodesic_curvatures(planar_circle(4), 1)[0] - SQRT3) < 1e-12

    def test_planar_curves_degenerate_at_second_curvature(self):
        with pytest.raises(FrameDegeneracyError) as info:
            geodesic_curvatures(planar_circle(3), 2)
        assert info.value.curvatures == pytest.approx((SQRT2,), abs=1e-12)

    def test_hyperbola_sample_curvatures(self):
        k1, k2 = geodesic_curvatures(tri_hyperbola_curve(2), 2)
        assert abs(k1**2 - (2.0 - SQRT2)) < 1e-12
        assert abs(k2**2 - (2.0 * SQRT2 - 2.0)) < 1e-12

    def test_two_frequency_biharmonic_first_curvature(self):
        (k1,) = geodesic_curvatures(biharmonic_two_freq(), 1)
        assert abs(k1 - 0.5) < 1e-12

    def test_great_circle_degenerates_immediately(self):
        with pytest.raises(FrameDegeneracyError) as info:
            geodesic_curvatures(planar_circle(1), 1)
        assert info.value.curvatures == ()

    def test_count_bounded_by_frame_capacity(self):
        with pytest.raises(ValueError):
            geodesic_curvatures(planar_circle(2), 3)
        with pytest.raises(ValueError):
            geodesic_curvatures(planar_circle(2), 0)

    @given(x=st.floats(0.3, 5.0), y=st.floats(0.3, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_first_curvature_squared_is_acceleration_norm_minus_one(self, x, y):
        curve = arclength_two_block(x, y)
        if curve is None:
            return
        try:
            (k1,) = geodesic_curvatures(curve, 1)
        except FrameDegeneracyError:
            assert abs(curve.moment(2) - 1.0) < 1e-8
            return
        assert abs(k1**2 - (curve.moment(2) - 1.0)) < 1e-10


# -- reduced densities -------------------------------------------------------

class TestLagrangian:
    @pytest.mark.parametrize("y", [1e-20, 1e-30, 1e-300])
    def test_sampled_density_check_passes_on_a_slow_block(self, y):
        # the slow block's period 2 pi / sqrt(y) dwarfs the fast block's,
        # whose phases would lose every digit if sampled across it
        assert sampled_density_defect(tri_hyperbola_curve(y), 3) < 1e-8

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_exact_density_matches_sampled_jets(self, r):
        for curve in (
            planar_circle(2),
            biharmonic_two_freq(),
            planar_circle(3),
            tri_hyperbola_curve(2),
            planar_circle(4),
        ):
            assert sampled_density_defect(curve, r) < 1e-8

    def test_frozen_densities_of_certified_curves(self):
        assert exact_density(planar_circle(2), 2) == pytest.approx(1.0, abs=1e-12)
        assert exact_density(planar_circle(3), 3) == pytest.approx(4.0, abs=1e-12)
        assert exact_density(planar_circle(4), 4) == pytest.approx(27.0, abs=1e-12)

    def test_density_matches_single_block_closed_form(self):
        # one rotating block of weight w and squared frequency x gives
        # density x^2 (w - w^2) at order two, any parametrization
        curve = TrigCurve(((3, Fraction(3, 10)),), Fraction(7, 10))
        assert exact_density(curve, 2) == pytest.approx(9.0 * (0.3 - 0.09), abs=1e-12)

    def test_multiplier_closes_the_stationarity_system(self):
        (x, a1sq), (y, a3sq) = (
            (float(a), float(b)) for a, b in tri_hyperbola_curve(2).blocks
        )
        lam = solve_lambda(x, y, a1sq, a3sq)
        residuals = lambda_system_residual(x, y, a1sq, a3sq, lam)
        assert max(abs(v) for v in residuals) < 1e-10


# -- the exact scalar of Q(sqrt d) ---------------------------------------------

surds = st.builds(
    QuadraticSurd,
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30).filter(bool),
    st.integers(1, 10**30),
    st.sampled_from([2, 3, 5, 8, 20, 10**40 + 1]),
)


class TestQuadraticSurd:
    @given(surds)
    @settings(max_examples=200, deadline=None)
    def test_float_is_correctly_rounded(self, v):
        with mpmath.workdps(200):
            want = float((v.a + v.b * mpmath.sqrt(v.d)) / v.c)
        assert float(v) == want

    @given(surds, surds)
    @settings(max_examples=100, deadline=None)
    def test_field_arithmetic(self, v, w):
        w = QuadraticSurd(w.a, w.b, w.c, v.d)
        conjugate = QuadraticSurd(v.a, -v.b, v.c, v.d)
        assert v * conjugate == Fraction(v.a * v.a - v.d * v.b * v.b, v.c * v.c)
        assert (v + w) - w == v and (v - w) + w == v
        assert v / w * w == v and 1 / v * v == 1
        assert 2 * v == v + v and v * Fraction(1, 3) == v / 3 and -v + v == 0
        assert Fraction(1, 2) - v == -(v - Fraction(1, 2))
        assert hash(v * conjugate) == hash(Fraction(v.a * v.a - v.d * v.b * v.b, v.c * v.c))

    def test_zero_and_mixed_operands(self):
        root2 = QuadraticSurd(0, 1, 1, 2)
        assert not root2 - root2 and root2 and root2 * root2 == 2
        with pytest.raises(ZeroDivisionError):
            root2 / (root2 - root2)
        # an object array broadcasts the element; a float is no exact operand
        assert list(root2 * np.array([1, root2], dtype=object)) == [root2, 2]
        with pytest.raises(TypeError):
            root2 * 1.5
        with pytest.raises(TypeError):
            root2 + QuadraticSurd(0, 1, 1, 3)
        # a rational element of another field is a rational operand
        assert QuadraticSurd(3, 0, 2, 3) == QuadraticSurd(3, 0, 2, 2) == Fraction(3, 2)
        assert root2 + QuadraticSurd(1, 0, 1, 3) == 1 + root2


# -- the Gram matrix from one moment per order --------------------------------

GRAM_ORDER = 2 * MAX_TENSION_ORDER  # the longest jet a tension build reads


def gram_defects(curve: TrigCurve, max_order: int) -> list[tuple[int, int]]:
    """Entries of the covariant algebra's Gram matrix that differ, exactly,
    from the per-pair block sums."""
    gram = _CovariantAlgebra(curve, max_order).gram
    return [
        (p, q)
        for p in range(max_order + 1)
        for q in range(max_order + 1)
        if not gram[p, q] == inner_exact(curve, p, q)
    ]


class TestGramMoments:
    @pytest.mark.parametrize(
        "curve",
        [
            planar_circle(1),
            planar_circle(2),
            biharmonic_two_freq(),
            planar_circle(3),
            planar_circle(4),
            tri_hyperbola_curve(2),
        ]
        + [tri_hyperbola_curve(y) for y in (1e-300, 0.0625, 0.5, 1.625, 2.98)],
    )
    @pytest.mark.parametrize("max_order", [1, 2, 7, GRAM_ORDER])
    def test_each_entry_is_the_per_pair_sum(self, curve, max_order):
        assert gram_defects(curve, max_order) == []

    @given(x=st.floats(0.3, 5.0), y=st.floats(0.3, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_each_entry_is_the_per_pair_sum_on_random_curves(self, x, y):
        curve = arclength_two_block(x, y)
        if curve is None:
            return
        assert gram_defects(curve, GRAM_ORDER) == []

    @pytest.mark.parametrize(
        "curve", [planar_circle(2), biharmonic_two_freq(), tri_hyperbola_curve(2)]
    )
    @pytest.mark.parametrize("max_order", [2, 6, GRAM_ORDER])
    def test_gram_converts_each_block_once_per_moment(self, curve, max_order):
        # J + 1 moments of B blocks take B J products of a block's
        # frequency; a sum per (p, q) pair takes more from J = 2 on
        calls = [0]

        class Counting:
            """A block frequency that counts the products it enters."""

            def __init__(self, value):
                self.value = value

            def __rmul__(self, other):
                calls[0] += 1
                return other * self.value

            def __float__(self):
                return float(self.value)

        counted = replace(curve, blocks=tuple((Counting(x), w) for x, w in curve.blocks))
        gram = _CovariantAlgebra(counted, max_order).gram
        assert 0 < calls[0] <= len(curve.blocks) * max_order
        assert gram.tolist() == _CovariantAlgebra(curve, max_order).gram.tolist()


# -- one exact build per (curve, order) ---------------------------------------

class TestTensionBuilds:
    """Each sphere-curve check reads one exact tension field per (curve,
    order): counted as constructions of the covariant algebra."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]

        class Counting(_CovariantAlgebra):
            def __init__(self, curve, max_order):
                count[0] += 1
                super().__init__(curve, max_order)

        monkeypatch.setattr(spherecurves, "_CovariantAlgebra", Counting)
        _tension.cache_clear()
        yield count
        _tension.cache_clear()

    @pytest.mark.parametrize("curve", sorted(VERIFY_CURVES))
    def test_verify_builds_once_per_curve(self, builds, capsys, curve):
        assert dispatch(["verify", "--curve", curve, "--json"]) == 0
        assert builds[0] == 1

    def test_family_builds_once_per_admitted_sample(self, builds):
        rows = tri_hyperbola_family(32)
        assert builds[0] == len(rows) > 0

    def test_fourharmonic_criterion_builds_the_curve_and_its_control(self, builds):
        criterion = next(c for c in acceptance.CRITERIA if c.number == 6)
        assert acceptance.run_criterion(criterion).passed
        assert builds[0] == 2


# -- the two-frequency family ------------------------------------------------

class TestHyperbolaFamily:
    def test_sweep_returns_sorted_admissible_samples(self):
        rows = solve_tri_hyperbola(32)
        assert len(rows) >= 16
        ys = [row[1] for row in rows]
        assert ys == sorted(ys)
        for x, y, a1sq, a3sq in rows:
            assert x > 0 and abs(x - y) > 1e-9
            assert 0.0 < a1sq < 1.0 and 0.0 < a3sq < 1.0
            assert family_quartic_residual(x, y) < 1e-12
            assert abs(x * a1sq + y * a3sq - 1.0) < 1e-12

    @pytest.mark.parametrize("samples, rel", [(32, 1e-13), (64, 1e-13), (200, 1e-12)])
    def test_sweep_walks_the_exact_members_of_the_float_oracle(self, samples, rel):
        # the float root loses digits where 4 - 3y + sqrt(disc) cancels,
        # near y -> 3
        rows = tri_hyperbola_family(samples)
        oracle = solve_tri_hyperbola(samples)
        assert [row.y for row in rows] == [y for _, y, _, _ in oracle]
        for row, (x, _, _, _) in zip(rows, oracle):
            assert row.x == pytest.approx(x, rel=rel, abs=0)
            assert row.x == float(tri_hyperbola_curve(row.y).blocks[0][0])

    def test_sample_at_y_two_hits_exact_values(self):
        curve = tri_hyperbola_curve(2)
        x = float(curve.blocks[0][0])
        a1sq = float(curve.blocks[0][1])
        assert abs(x - (SQRT2 - 1.0)) < 1e-12
        assert abs(a1sq - 1.0 / (3.0 - SQRT2)) < 1e-12

    def test_family_report_certifies_every_sample(self):
        rows = tri_hyperbola_family(32)
        assert len(rows) >= 16
        for row in rows:
            assert row.quartic_residual < 1e-12
            assert row.lambda_residual < 1e-10
            assert row.tau3_residual == 0.0

    def test_family_rejects_inadmissible_parameters(self):
        with pytest.raises(ValueError):
            tri_hyperbola_curve(1)  # geodesic corner
        with pytest.raises(ValueError):
            tri_hyperbola_curve(3)
        with pytest.raises(ValueError):
            tri_hyperbola_curve(-1)

    @pytest.mark.parametrize("samples", [32, 64, 200])
    def test_multiplier_matches_the_hand_formula(self, samples):
        # the hand formula's cancellation is the larger error: worst
        # 1.0e-12 relative at 200 samples
        for row in tri_hyperbola_family(samples):
            lam = solve_lambda(row.x, row.y, row.alpha1sq, row.alpha3sq)
            assert row.lagrange_multiplier == pytest.approx(lam, rel=1e-11, abs=0)
            residuals = lambda_system_residual(
                row.x, row.y, row.alpha1sq, row.alpha3sq, lam
            )
            assert max(abs(v) for v in residuals) < 1e-10

    @pytest.mark.parametrize(
        "curve",
        [
            tri_hyperbola_curve(Fraction(1, 16)),
            tri_hyperbola_curve(1.625),
            tri_hyperbola_curve(2.98),
            # off the family, where each side is of order one
            TrigCurve(((3, Fraction(1, 5)), (Fraction(1, 2), Fraction(4, 5)))),
            TrigCurve(((Fraction(1, 2), Fraction(3, 5)), (Fraction(7, 4), Fraction(2, 5)))),
        ],
    )
    def test_hand_system_is_the_even_part_of_the_tension(self, curve):
        # exactly, with lambda = -c_0, each multiplier equation is minus the
        # block's position component sum_(p even) c_p (-t)^(p/2)
        (x, a1sq), (y, a3sq) = curve.blocks
        tau = _tension(curve, 3)[1]
        r1, r2, _, _ = lambda_system_residual(x, y, a1sq, a3sq, -tau[0])
        for hand, t in ((r1, x), (r2, y)):
            even, power = 0, 1
            for p in range(0, len(tau), 2):
                even += tau[p] * power
                power = power * -t
            assert hand + even == 0

    def test_multiplier_system_balances_on_the_geodesic(self):
        residuals = lambda_system_residual(1.0, 1.0, 0.4, 0.6, 0.0)
        assert max(abs(v) for v in residuals) < 1e-12
        assert solve_lambda(1.0, 1.0, 0.4, 0.6) == pytest.approx(0.0, abs=1e-12)

    def test_multiplier_system_rejects_degenerate_frequency(self):
        with pytest.raises(ValueError):
            lambda_system_residual(1.0, 0.0, 0.5, 0.5, 0.0)

    def test_csv_row_carries_six_fields(self):
        row = tri_hyperbola_family(8)[0]
        assert len(row.csv_row().split(",")) == 6


# -- random bumps ------------------------------------------------------------

class TestRandomBump:
    def test_the_same_seed_gives_the_same_bumps(self):
        first, second = random.Random(9101), random.Random(9101)
        bumps = [random_bump(4, first) for _ in range(5)]
        assert bumps == [random_bump(4, second) for _ in range(5)]
        assert bumps[0] != bumps[1]

    def test_direction_is_a_unit_vector(self):
        rng = random.Random(0)
        for dimension in (2, 3, 4, 5, 8):
            for _ in range(50):
                direction = random_bump(dimension, rng).direction
                assert len(direction) == dimension
                assert all(type(x) is float for x in direction)
                assert abs(math.hypot(*direction) - 1.0) <= 4 * np.finfo(float).eps

    def test_start_and_width_stay_in_their_ranges(self):
        rng = random.Random(0)
        bumps = [random_bump(3, rng) for _ in range(1000)]
        for name, (low, high) in (("start", spherecurves.BUMP_STARTS),
                                  ("width", spherecurves.BUMP_WIDTHS)):
            values = [getattr(bump, name) for bump in bumps]
            assert all(low <= v <= high for v in values)
            # and they fill the range, not one corner of it
            assert min(values) < low + 0.05 * (high - low)
            assert max(values) > high - 0.05 * (high - low)

    @pytest.mark.parametrize("seed", range(10))
    def test_first_variation_criterion_passes(self, seed):
        passed, detail = acceptance._run_first_variation(seed)
        assert passed, detail
        assert detail.startswith("50 matched-order bumps <= ")


# -- first variation ---------------------------------------------------------

class TestFirstVariation:
    def test_jet_of_reciprocal_square_root(self):
        s = np.linspace(0.1, 2.0, 5)
        u = [2.0 + np.sin(s), np.cos(s), -np.sin(s), -np.cos(s), np.sin(s)]
        jet = _jet_rsqrt(u, 4)
        f = lambda t: (2.0 + np.sin(t)) ** -0.5
        h = 1e-3
        fd1 = (f(s + h) - f(s - h)) / (2 * h)
        fd2 = (f(s + h) - 2 * f(s) + f(s - h)) / h**2
        assert np.abs(jet[0] - f(s)).max() < 1e-14
        assert np.abs(jet[1] - fd1).max() < 1e-6
        assert np.abs(jet[2] - fd2).max() < 1e-5

    def test_projection_jet_removes_radial_stretch(self):
        # stretch a circle radially; the projected jet must match the circle
        s = np.linspace(0.0, 5.0, 9)
        stretch = [1.0 + 0.3 * np.sin(2 * s)]
        for d in range(1, 5):
            angle = 2 * s + d * math.pi / 2.0
            stretch.append(0.3 * 2**d * np.cos(angle))
        circle = [
            np.stack([np.cos(s + d * math.pi / 2), np.sin(s + d * math.pi / 2)], axis=-1)
            for d in range(5)
        ]
        stretched = [
            sum(
                math.comb(d, i) * stretch[i][..., None] * circle[d - i]
                for i in range(d + 1)
            )
            for d in range(5)
        ]
        projected = _projected_jet(stretched, 4)
        for d in range(5):
            assert np.abs(projected[d] - circle[d]).max() < 1e-9

    def test_bump_is_smooth_and_compactly_supported(self):
        bump = BumpPerturbation(start=1.0, width=2.0, direction=(1.0, 0.0, 0.0))
        s = np.linspace(0.0, 4.0, 401)
        jet = bump.profile_jet(s, 4)
        outside = (s <= 1.0) | (s >= 3.0)
        for level in jet:
            assert np.abs(level[outside]).max() == 0.0
        h = 1e-6
        mid = np.array([1.7, 2.4])
        fd = (bump.profile_jet(mid + h, 0)[0] - bump.profile_jet(mid - h, 0)[0]) / (
            2 * h
        )
        assert np.abs(fd - bump.profile_jet(mid, 1)[1]).max() < 1e-7

    def test_certified_curves_are_stationary(self):
        rng = np.random.default_rng(7)
        for curve, order in (
            (planar_circle(2), 2),
            (planar_circle(3), 3),
            (planar_circle(4), 4),
        ):
            bump = numpy_bump(curve.dimension, rng)
            (value,) = first_variation(curve, order, [bump])
            assert abs(value) < 1e-6

    def test_non_critical_pair_shows_nonzero_variation(self):
        rng = np.random.default_rng(42)
        bump = numpy_bump(planar_circle(3).dimension, rng)
        (value,) = first_variation(planar_circle(3), 2, [bump])
        assert abs(value) > 1e-3

    @pytest.mark.parametrize("r", [5, 6, 7])
    def test_r_planar_curve_is_stationary_only_at_its_order(self, r):
        curve = planar_circle(r)
        bumps = [numpy_bump(curve.dimension, np.random.default_rng(r))]
        assert abs(first_variation(curve, r, bumps)[0]) < 1e-6
        assert abs(first_variation(curve, r + 1, bumps)[0]) > 1e-3

    @pytest.mark.parametrize("r", [8, 9, 10])
    def test_r_planar_curve_is_stationary_at_the_highest_orders(self, r):
        # sin^10 bumps vanish at their support ends up to derivative 9, as
        # order 10 needs; the matched-order floor grows with r, so it is
        # judged against the wrong-order variation of the same bump
        curve, bumps = highest_order_group(r)
        wrong = first_variation(curve, r - 1, bumps)
        for matched, wrong in zip(first_variation(curve, r, bumps), wrong):
            assert abs(matched) <= 1e-6 * abs(wrong)

    @pytest.mark.parametrize("r", range(2, MAX_TENSION_ORDER + 1))
    def test_matches_the_tension_route_off_shell(self, r):
        # each pair is critical one order below, so both routes read far
        # from 0; orders 8-10 take one bump each, since those bumps run all
        # quadrature levels
        curve = planar_circle(3) if r == 2 else planar_circle(r - 1)
        rng = np.random.default_rng(r)
        bumps = [
            replace(numpy_bump(curve.dimension, rng), sharpness=5)
            for _ in range(3 if r <= 7 else 1)
        ]
        tol = 1e-10 if r <= 7 else 1e-7
        for bump, value in zip(bumps, first_variation(curve, r, bumps)):
            assert value == pytest.approx(tension_route(curve, r, bump), rel=tol, abs=0)

    def test_rejects_a_bump_too_blunt_for_the_order(self):
        # a sin^8 bump's ninth derivative does not vanish at its support ends
        curve = planar_circle(9)
        bump = numpy_bump(curve.dimension, np.random.default_rng(0))
        assert bump.sharpness == 4
        with pytest.raises(ValueError, match="sharpness at least 5, got sharpness 4"):
            first_variation(curve, 9, [replace(bump, sharpness=5), bump])

    def test_rejects_bumps_of_mixed_sharpness(self):
        bump = numpy_bump(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"share a sharpness, got \[4, 5\]"):
            first_variation(planar_circle(3), 3, [bump, replace(bump, sharpness=5)])

    def test_empty_group_has_no_values(self, passes):
        assert first_variation(planar_circle(3), 3, []) == []
        assert passes == []

    @pytest.mark.parametrize(
        "curve, matched, wrong",
        [(planar_circle(3), 3, 2), (planar_circle(4), 4, 3), (planar_circle(2), 2, 3)],
        ids=["tri-planar", "four-planar", "biharmonic-circle"],
    )
    def test_agrees_with_five_point_stencil_oracle(self, curve, matched, wrong):
        # oracle: fourth-order central difference of the real-t energy at a
        # fixed 64-panel rule, fine enough that quadrature error is negligible
        def stencil(r, bump, h=1e-4, panels=64):
            energy = lambda t: lone_energy(curve, bump, r, t, panels)
            return (
                -energy(2 * h) + 8 * energy(h) - 8 * energy(-h) + energy(-2 * h)
            ) / (12 * h)

        rng = np.random.default_rng(11)
        bump = numpy_bump(curve.dimension, rng)
        want = stencil(wrong, bump)
        (got,) = first_variation(curve, wrong, [bump])
        assert abs(want) > 1e-3
        assert abs(got - want) <= 1e-7 * abs(want)
        assert abs(stencil(matched, bump)) < 1e-6
        assert abs(first_variation(curve, matched, [bump])[0]) < 1e-6

    @pytest.mark.parametrize("seed", [7, 42])
    def test_criterion_groups_match_the_lone_loop(self, monkeypatch, passes, seed):
        # every group criterion #8 evaluates, as the criterion draws it
        groups = []
        evaluate = spherecurves.first_variation

        def record(curve, r, bumps):
            groups.append((curve, r, bumps))
            return evaluate(curve, r, bumps)

        monkeypatch.setattr(spherecurves, "first_variation", record)
        assert acceptance._run_first_variation(seed)[0]
        assert [(len(bumps), r) for _, r, bumps in groups] == [
            (10, 2), (10, 2), (10, 3), (10, 3), (10, 4), (10, 2)
        ]
        for curve, r, bumps in groups:
            batched_against_lone(curve, r, bumps, passes)

    @pytest.mark.parametrize("r", [8, 9, 10])
    def test_highest_order_groups_match_the_lone_loop(self, passes, r):
        curve, bumps = highest_order_group(r)
        # the matched-order variation sits at its roundoff floor, so no two
        # levels agree and every bump runs to 512 panels
        assert batched_against_lone(curve, r, bumps, passes) == [(7, 7)] * 3
        batched_against_lone(curve, r - 1, bumps, passes)

    def test_one_bump_runs_more_levels_than_the_rest(self, passes):
        curve, bumps = highest_order_group(9)
        counts = batched_against_lone(curve, 8, bumps, passes)
        assert [lone for _, lone in counts] == [2, 5, 2]
        # later levels take only the bump still short of agreement
        assert [(len(chunk), panels) for chunk, panels in passes] == [
            (3, 8), (3, 16), (1, 32), (1, 64), (1, 128)
        ]

    def test_criterion_makes_one_pass_per_group(self, passes):
        # six groups of ten bumps at 8 and 16 panels; 120 single-bump
        # passes before batching
        assert acceptance._run_first_variation(42)[0]
        assert len(passes) <= 12
        assert all(len(chunk) == 10 for chunk, _ in passes)

    def test_unconverged_group_stays_within_the_node_cap(self, monkeypatch, passes):
        # no two levels ever agree, so every bump runs to 512 panels and the
        # late levels split the group over several passes
        monkeypatch.setattr(spherecurves, "QUAD_TOL", -1.0)
        nodes = []
        jet = BumpPerturbation.jet

        def record(bump, s, orders):
            nodes.append(np.size(s))
            return jet(bump, s, orders)

        monkeypatch.setattr(BumpPerturbation, "jet", record)
        curve = planar_circle(4)
        rng = np.random.default_rng(5)
        bumps = [numpy_bump(curve.dimension, rng) for _ in range(10)]
        values = first_variation(curve, 4, bumps)
        assert max(nodes) <= MAX_PASS_NODES == 12288
        assert sum(nodes) == 10 * 24 * (8 + 16 + 32 + 64 + 128 + 256 + 512)
        assert len(passes) == 1 + 1 + 1 + 2 + 3 + 5 + 10
        monkeypatch.setattr(BumpPerturbation, "jet", jet)
        for bump, value in zip(bumps, values):
            want, levels = lone_first_variation(curve, 4, bump)
            assert levels == 7
            assert value.hex() == want.hex()


class TestJets:
    def test_reciprocal_square_root_at_order_six(self):
        # u = (1 + s)^2 gives f = 1/(1 + s), f^(k) = (-1)^k k! (1 + s)^-(k+1)
        s = np.linspace(0.0, 2.0, 7)
        u = [(1.0 + s) ** 2, 2.0 * (1.0 + s), np.full_like(s, 2.0)] + [
            np.zeros_like(s)
        ] * 4
        jet = _jet_rsqrt(u, 6)
        for k in range(7):
            expected = (-1) ** k * math.factorial(k) * (1.0 + s) ** -(k + 1)
            assert np.abs(jet[k] - expected).max() < 1e-12 * math.factorial(k)
        # u = e^s: every derivative of u is e^s, and f^(k) = (-1/2)^k e^(-s/2)
        u = [np.exp(s)] * 7
        jet = _jet_rsqrt(u, 6)
        for k in range(7):
            assert np.abs(jet[k] - (-0.5) ** k * np.exp(-s / 2)).max() < 1e-14

    def test_covariant_jets_match_push_forward_formulas(self):
        # oracle: hand push-forward of nabla^l T (l <= 3) for an arclength
        # curve on the unit sphere
        curve = planar_circle(3)
        s = np.linspace(0.0, curve.period(), 33)
        g = [curve.derivative(l)(s) for l in range(5)]

        def dot(a, b):
            return np.einsum("ni,ni->n", a, b)[:, None]

        rho = dot(g[1], g[1])
        oracle = [
            g[2] + rho * g[0],
            g[3] + 3.0 * dot(g[2], g[1]) * g[0] + rho * g[1],
            g[4]
            + 4.0 * dot(g[3], g[1]) * g[0]
            + 3.0 * dot(g[2], g[2]) * g[0]
            + 5.0 * dot(g[1], g[2]) * g[1]
            + rho * g[2]
            + rho**2 * g[0],
        ]
        for depth in (1, 2, 3):
            fields = covariant_jets(g[: depth + 2], 1.0, depth)
            assert len(fields) == depth
            for got, want in zip(fields, oracle):
                assert np.abs(got - want).max() < 1e-12

    def test_flat_covariant_jets_are_plain_derivatives(self):
        curve = planar_circle(4)
        s = np.linspace(0.0, 1.0, 5)
        g = [curve.derivative(l)(s) for l in range(5)]
        fields = covariant_jets(g, 0.0, 3)
        for l, field in enumerate(fields, start=2):
            assert np.array_equal(field, g[l])

    def test_density_matches_moment_closed_forms(self):
        # oracle: hand expansions of |nabla^(r-1) gamma'|^2 in the moments
        # m_l = sum_i alpha_i^2 (a_i^2)^l, valid off arclength too
        def closed_form(m, r):
            if r == 2:
                return m[2] - m[1] ** 2
            if r == 3:
                return m[3] + m[1] ** 3 - 2.0 * m[1] * m[2]
            return m[4] - m[2] ** 2 + 3.0 * m[1] ** 2 * m[2] - m[1] ** 4 - 2.0 * m[1] * m[3]

        curves = (
            biharmonic_two_freq(),
            tri_hyperbola_curve(0.5),
            TrigCurve(((3, Fraction(3, 10)),), Fraction(7, 10)),  # not arclength
            TrigCurve(((Fraction(5, 2), Fraction(1, 5)), (Fraction(1, 3), Fraction(1, 2))),
                      Fraction(3, 10)),
        )
        for curve in curves:
            m = [curve.moment(l) for l in range(5)]
            for r in (2, 3, 4):
                want = closed_form(m, r)
                assert abs(exact_density(curve, r) - want) < 1e-12 * (1.0 + abs(want))
