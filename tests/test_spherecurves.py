"""Tests for closed-form trigonometric sphere curves.

Expected values were independently derived before being frozen here: frame
coefficients and tension norms against a high-precision Gram-matrix oracle,
ODE residuals by hand evaluation of the collapsed trigonometric terms, and
the two-frequency family against its quadratic closed form.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhelix.frenet import MAX_TENSION_ORDER
from polyhelix.spherecurves import (
    BumpPerturbation,
    FrameDegeneracyError,
    TrigCurve,
    _density,
    _energy_on_support,
    _jet_rsqrt,
    _projected_jet,
    biharmonic_circle,
    biharmonic_residual,
    biharmonic_two_freq,
    covariant_jets,
    family_quartic_residual,
    first_variation,
    four_planar,
    fourharmonic_residual,
    geodesic_curvatures,
    great_circle,
    intrinsic_tau_residual,
    lagrangian,
    lambda_system_residual,
    random_bump,
    reduced_lagrangian_gradient,
    solve_lambda,
    solve_tri_hyperbola,
    sphere_identities_check,
    tri_hyperbola_curve,
    tri_hyperbola_family,
    tri_planar,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def arclength_two_block(x: float, y: float) -> TrigCurve | None:
    """Two-block arclength curve with weights forced by the constraints,
    or None when the weights leave (0, 1)."""
    if abs(x - y) < 1e-6:
        return None
    a1sq = (1.0 - y) / (x - y)
    if not 0.02 < a1sq < 0.98:
        return None
    return TrigCurve(((x, a1sq), (y, 1.0 - a1sq)))


def r_planar(r: int) -> TrigCurve:
    """Planar curve critical at order r: squared frequency r, weight 1/r
    (k1^2 = r - 1); tri_planar and four_planar are r = 3 and 4."""
    return TrigCurve(((r, Fraction(1, r)),), 1 - Fraction(1, r))


# -- construction ------------------------------------------------------------

class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrigCurve(((1, Fraction(1, 2)),), Fraction(1, 4))

    def test_frequencies_must_be_distinct(self):
        with pytest.raises(ValueError):
            TrigCurve(((2, Fraction(1, 2)), (2, Fraction(1, 2))))

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            TrigCurve(((0, 1),))

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            TrigCurve(())

    def test_dimension_counts_constant_axis(self):
        assert great_circle().dimension == 2
        assert biharmonic_circle().dimension == 3
        assert biharmonic_two_freq().dimension == 4
        assert tri_planar().dimension == 3

    def test_named_curves_are_arclength(self):
        for curve in (
            great_circle(),
            biharmonic_circle(),
            biharmonic_two_freq(),
            tri_planar(),
            four_planar(),
            tri_hyperbola_curve(2),
        ):
            assert curve.is_arclength(1e-12)

    def test_point_lies_on_unit_sphere(self):
        for curve in (biharmonic_circle(), biharmonic_two_freq(), four_planar()):
            s = np.linspace(0.0, 7.0, 11)
            radii = np.linalg.norm(curve(s), axis=-1)
            assert np.abs(radii - 1.0).max() < 1e-12


# -- derivative evaluators ---------------------------------------------------

class TestDerivatives:
    def test_derivative_norm_matches_moment(self):
        curve = biharmonic_two_freq(Fraction(5, 4), Fraction(3, 4))
        s = np.linspace(0.0, 5.0, 13)
        for l in range(1, 6):
            norms_sq = np.einsum("...i,...i->...", *[curve.derivative(l)(s)] * 2)
            assert np.abs(norms_sq - curve.moment(l)).max() < 1e-10

    def test_great_circle_second_derivative_is_minus_point(self):
        curve = great_circle()
        s = np.linspace(0.0, 6.0, 7)
        assert np.abs(curve.derivative(2)(s) + curve(s)).max() < 1e-14

    def test_biharmonic_circle_acceleration_norm(self):
        assert abs(biharmonic_circle().moment(2) - 2.0) < 1e-15

    def test_finite_difference_agrees_with_closed_form(self):
        curve = tri_hyperbola_curve(Fraction(5, 2))
        h = 1e-5
        s = np.array([0.3, 1.7])
        fd = (curve(s + h) - curve(s - h)) / (2.0 * h)
        assert np.abs(fd - curve.derivative(1)(s)).max() < 1e-8


# -- pointwise sphere identities ---------------------------------------------

class TestSphereIdentities:
    def test_arclength_curves_satisfy_identities(self):
        s = np.linspace(0.0, 9.0, 33)
        for curve in (
            great_circle(),
            biharmonic_circle(),
            biharmonic_two_freq(),
            tri_planar(),
            four_planar(),
            tri_hyperbola_curve(2),
        ):
            assert sphere_identities_check(curve, s) < 1e-11

    def test_non_arclength_curve_shows_half_defect(self):
        slow = TrigCurve(((1, Fraction(1, 2)),), Fraction(1, 2))
        defect = sphere_identities_check(slow, np.linspace(0.0, 6.0, 17))
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
        assert sphere_identities_check(curve, np.linspace(0.0, 4.0, 9)) < 1e-9


# -- fourth-order ODE residual -----------------------------------------------

class TestBiharmonicResidual:
    def test_circle_solves_the_ode(self):
        assert biharmonic_residual(biharmonic_circle()) < 1e-12

    def test_two_frequency_family_solves_the_ode(self):
        for a2, b2 in (
            (Fraction(3, 2), Fraction(1, 2)),
            (Fraction(6, 5), Fraction(4, 5)),
            (Fraction(7, 4), Fraction(1, 4)),
        ):
            assert biharmonic_residual(biharmonic_two_freq(a2, b2)) < 1e-12

    def test_great_circle_solves_the_ode(self):
        assert biharmonic_residual(great_circle()) < 1e-12

    def test_higher_order_curve_fails_the_ode(self):
        assert biharmonic_residual(tri_planar()) > 0.1

    def test_rejects_non_arclength_input(self):
        slow = TrigCurve(((1, Fraction(1, 2)),), Fraction(1, 2))
        with pytest.raises(ValueError):
            biharmonic_residual(slow)

    def test_rejects_undersampling(self):
        with pytest.raises(ValueError):
            biharmonic_residual(biharmonic_circle(), samples=100)


# -- eighth-order ODE residual -----------------------------------------------

class TestFourharmonicResidual:
    def test_planar_frequency_two_curve_solves_the_ode(self):
        assert fourharmonic_residual(four_planar()) < 1e-10

    def test_great_circle_solves_the_ode(self):
        assert fourharmonic_residual(great_circle()) < 1e-12

    def test_biharmonic_circle_misses_by_two(self):
        residual = fourharmonic_residual(biharmonic_circle())
        assert residual > 0.1
        assert abs(residual - 2.0) < 1e-10


# -- intrinsic tension residuals ---------------------------------------------

class TestIntrinsicTension:
    def test_certified_curves_have_zero_tension_at_own_order(self):
        assert intrinsic_tau_residual(biharmonic_circle(), 2) < 1e-12
        assert intrinsic_tau_residual(biharmonic_two_freq(), 2) < 1e-12
        assert intrinsic_tau_residual(tri_planar(), 3) < 1e-10
        assert intrinsic_tau_residual(four_planar(), 4) < 1e-10
        assert intrinsic_tau_residual(tri_hyperbola_curve(2), 3) < 1e-10

    def test_geodesic_has_zero_tension_at_every_order(self):
        for r in (2, 3, 4):
            assert intrinsic_tau_residual(great_circle(), r) < 1e-12

    def test_orders_do_not_transfer(self):
        assert intrinsic_tau_residual(biharmonic_circle(), 3) > 0.1
        assert intrinsic_tau_residual(tri_planar(), 2) > 0.1
        assert intrinsic_tau_residual(four_planar(), 3) > 0.1

    def test_rejects_unsupported_order(self):
        bump = BumpPerturbation(start=1.0, width=2.0, direction=(1.0, 0.0, 0.0))
        for r in (1, MAX_TENSION_ORDER + 1):
            with pytest.raises(ValueError, match=f"got {r}$"):
                intrinsic_tau_residual(biharmonic_circle(), r)
            with pytest.raises(ValueError, match=f"got {r}$"):
                lagrangian(biharmonic_circle(), r)
            with pytest.raises(ValueError, match=f"got {r}$"):
                first_variation(biharmonic_circle(), r, bump)

    @pytest.mark.parametrize("r", [5, 6, 7])
    def test_r_planar_curve_is_critical_only_at_its_order(self, r):
        assert intrinsic_tau_residual(r_planar(r), r) < 1e-9
        assert intrinsic_tau_residual(r_planar(r), r + 1) > 0.1

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
            extrinsic = biharmonic_residual(curve)
            intrinsic = intrinsic_tau_residual(curve, 2)
            assert (extrinsic < 1e-9 and intrinsic < 1e-9) or (
                extrinsic > 1e-3 and intrinsic > 1e-3
            )


# -- geodesic curvature extraction -------------------------------------------

class TestGeodesicCurvatures:
    def test_biharmonic_circle_curvature_is_one(self):
        (k1,) = geodesic_curvatures(biharmonic_circle(), 1)
        assert abs(k1 - 1.0) < 1e-12

    def test_planar_curves_hit_frozen_curvatures(self):
        assert abs(geodesic_curvatures(tri_planar(), 1)[0] - SQRT2) < 1e-12
        assert abs(geodesic_curvatures(four_planar(), 1)[0] - SQRT3) < 1e-12

    def test_planar_curves_degenerate_at_second_curvature(self):
        with pytest.raises(FrameDegeneracyError) as info:
            geodesic_curvatures(tri_planar(), 2)
        assert info.value.curvatures == pytest.approx((SQRT2,), abs=1e-12)
        assert geodesic_curvatures(four_planar(), 2, pad=True) == pytest.approx(
            (SQRT3, 0.0), abs=1e-12
        )

    def test_hyperbola_sample_curvatures(self):
        k1, k2 = geodesic_curvatures(tri_hyperbola_curve(2), 2)
        assert abs(k1**2 - (2.0 - SQRT2)) < 1e-12
        assert abs(k2**2 - (2.0 * SQRT2 - 2.0)) < 1e-12

    def test_two_frequency_biharmonic_first_curvature(self):
        (k1,) = geodesic_curvatures(biharmonic_two_freq(), 1)
        assert abs(k1 - 0.5) < 1e-12

    def test_great_circle_degenerates_immediately(self):
        with pytest.raises(FrameDegeneracyError) as info:
            geodesic_curvatures(great_circle(), 1)
        assert info.value.curvatures == ()
        assert geodesic_curvatures(great_circle(), 1, pad=True) == (0.0,)

    def test_count_bounded_by_frame_capacity(self):
        with pytest.raises(ValueError):
            geodesic_curvatures(biharmonic_circle(), 3)
        with pytest.raises(ValueError):
            geodesic_curvatures(biharmonic_circle(), 0)

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


# -- reduced Lagrangians -----------------------------------------------------

class TestLagrangian:
    def test_frozen_densities_of_certified_curves(self):
        assert lagrangian(biharmonic_circle(), 2).density == pytest.approx(1.0, abs=1e-12)
        assert lagrangian(tri_planar(), 3).density == pytest.approx(4.0, abs=1e-12)
        assert lagrangian(four_planar(), 4).density == pytest.approx(27.0, abs=1e-12)

    def test_density_matches_single_block_closed_form(self):
        # one rotating block of weight w and squared frequency x gives
        # density x^2 (w - w^2) at order two, any parametrization
        curve = TrigCurve(((3, Fraction(3, 10)),), Fraction(7, 10))
        value = lagrangian(curve, 2)
        assert value.density == pytest.approx(9.0 * (0.3 - 0.09), abs=1e-12)

    def test_multiplier_vanishes_for_biharmonic_circle(self):
        assert lagrangian(biharmonic_circle(), 2).lagrange_multiplier == pytest.approx(
            0.0, abs=1e-12
        )

    def test_multiplier_closes_the_stationarity_system(self):
        curve = tri_hyperbola_curve(2)
        value = lagrangian(curve, 3)
        (x, a1sq), (y, a3sq) = (
            (float(a), float(b)) for a, b in curve.blocks
        )
        residuals = lambda_system_residual(
            x, y, a1sq, a3sq, value.lagrange_multiplier
        )
        assert max(abs(v) for v in residuals) < 1e-10

    def test_energy_equals_density_for_this_ansatz(self):
        value = lagrangian(biharmonic_two_freq(), 2)
        assert value.energy == value.density

    def test_gradient_vanishes_at_certified_curves(self):
        pairs = [
            (biharmonic_circle(), 2),
            (biharmonic_two_freq(), 2),
            (tri_planar(), 3),
            (four_planar(), 4),
            (tri_hyperbola_curve(2), 3),
        ]
        for curve, order in pairs:
            for partial in reduced_lagrangian_gradient(curve, order):
                assert abs(partial) < 1e-10

    def test_gradient_detects_wrong_order(self):
        (partial,) = reduced_lagrangian_gradient(tri_planar(), 2)
        assert abs(partial - 3.0) < 1e-9


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
            assert row.tau3_residual < 1e-9

    def test_family_rejects_inadmissible_parameters(self):
        with pytest.raises(ValueError):
            tri_hyperbola_curve(1)  # geodesic corner
        with pytest.raises(ValueError):
            tri_hyperbola_curve(3)
        with pytest.raises(ValueError):
            tri_hyperbola_curve(-1)

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
            (biharmonic_circle(), 2),
            (tri_planar(), 3),
            (four_planar(), 4),
        ):
            bump = random_bump(curve.dimension, rng)
            assert abs(first_variation(curve, order, bump)) < 1e-6

    def test_non_critical_pair_shows_nonzero_variation(self):
        rng = np.random.default_rng(42)
        bump = random_bump(tri_planar().dimension, rng)
        assert abs(first_variation(tri_planar(), 2, bump)) > 1e-3

    @pytest.mark.parametrize("r", [5, 6, 7])
    def test_r_planar_curve_is_stationary_only_at_its_order(self, r):
        curve = r_planar(r)
        bump = random_bump(curve.dimension, np.random.default_rng(r))
        assert abs(first_variation(curve, r, bump)) < 1e-6
        assert abs(first_variation(curve, r + 1, bump)) > 1e-3

    @pytest.mark.parametrize(
        "curve, matched, wrong",
        [(tri_planar(), 3, 2), (four_planar(), 4, 3), (biharmonic_circle(), 2, 3)],
        ids=["tri-planar", "four-planar", "biharmonic-circle"],
    )
    def test_agrees_with_five_point_stencil_oracle(self, curve, matched, wrong):
        # oracle: fourth-order central difference of the real-t energy at a
        # fixed 64-panel rule, fine enough that quadrature error is negligible
        def stencil(r, bump, h=1e-4, panels=64):
            energy = lambda t: _energy_on_support(curve, bump, r, t, panels)
            return (
                -energy(2 * h) + 8 * energy(h) - 8 * energy(-h) + energy(-2 * h)
            ) / (12 * h)

        rng = np.random.default_rng(11)
        bump = random_bump(curve.dimension, rng)
        want = stencil(wrong, bump)
        got = first_variation(curve, wrong, bump)
        assert abs(want) > 1e-3
        assert abs(got - want) <= 1e-7 * abs(want)
        assert abs(stencil(matched, bump)) < 1e-6
        assert abs(first_variation(curve, matched, bump)) < 1e-6


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
        curve = tri_planar()
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
        curve = four_planar()
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
                assert abs(_density(curve, r) - want) < 1e-12 * (1.0 + abs(want))
