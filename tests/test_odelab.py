"""Tests for the curvature-profile integration and monitoring laboratory.

Expected values were derived independently before being frozen here: frame
coefficients in the inverse arclength against a symbolic oracle, monitor constants from
the closed-form helix identities (every squared covariant norm of a helix is
constant, so the once-integrated invariants reduce to the undifferentiated
term), and pointwise invariant profiles by hand differentiation of the
inverse-arclength curvature laws.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhelix.frenet import SpaceForm
from polyhelix.odelab import (
    MAX_FRAME_VALUES,
    MAX_SCAN_POINTS,
    ConjectureRow,
    CurvatureProfile,
    CurveSamples,
    ProfileTerm,
    _evaluate,
    _fd_tension_sup,
    _leading,
    central_difference,
    conjecture_scan,
    conservation_law_terms,
    conservation_monitor_four,
    conservation_monitor_tri,
    curvature_ode_residual,
    curvature_ode_values,
    flat_tangent_chain,
    fornberg_weights,
    integrate_frenet,
    inverse_power_profile,
    parse_profile,
    sample_trig_curve,
    spectral_derivative,
)
from polyhelix.spherecurves import (
    biharmonic_circle,
    four_planar,
    great_circle,
    tri_planar,
)
from polyhelix.ratpoly import INVERSE_ARCLENGTH, CurvaturePolynomial as Poly, Monomial

FLAT = SpaceForm(0)
SPHERE = SpaceForm(1)


def sqrt5_profile() -> CurvatureProfile:
    return parse_profile("k1=1/s,k2=2/s")


def upoly(coeffs: dict[int, float]) -> Poly:
    """``sum_e c_e u^e`` with ``u = 1/s``: the coefficient of ``s^(-e)``."""
    return Poly({Monomial([(INVERSE_ARCLENGTH, e)]): Fraction(c) for e, c in coeffs.items()})


# -- finite differences ------------------------------------------------------


class TestFiniteDifferences:
    def test_classic_three_point_weights(self):
        w = fornberg_weights(0.0, [-1.0, 0.0, 1.0], 2)
        assert np.allclose(w[:, 1], [-0.5, 0.0, 0.5])
        assert np.allclose(w[:, 2], [1.0, -2.0, 1.0])

    def test_interpolation_row_is_partition_of_unity(self):
        w = fornberg_weights(0.5, [0.0, 1.0], 0)
        assert np.allclose(w[:, 0], [0.5, 0.5])

    @given(
        half=st.integers(min_value=2, max_value=6),
        order=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_weight_rows_annihilate_constants(self, half, order):
        if order > 2 * half:
            return
        offsets = np.arange(-half, half + 1, dtype=float)
        w = fornberg_weights(0.0, offsets, order)
        assert abs(w[:, order].sum()) < 1e-9
        assert abs(w[:, 0].sum() - 1.0) < 1e-9
        # exactness on the monomial of matching degree
        assert abs(w[:, order] @ offsets**order - math.factorial(order)) < 1e-8

    def test_central_difference_of_sine(self):
        h = 0.05
        s = np.arange(0.0, 6.0, h)
        window, d1 = central_difference(np.sin(s), h, 1)
        assert np.abs(d1 - np.cos(s[window])).max() < 1e-9
        window, d4 = central_difference(np.sin(s), h, 4)
        # the fourth-derivative roundoff floor is eps * sum|w| / h^4
        assert np.abs(d4 - np.sin(s[window])).max() < 1e-8

    def test_central_difference_window_geometry(self):
        values = np.linspace(0.0, 1.0, 40)
        window, out = central_difference(values, 0.1, 2)
        assert window.start == 5 and window.stop == 35
        assert len(out) == 30
        assert np.abs(out).max() < 1e-10

    def test_order_zero_is_passthrough(self):
        values = np.array([1.0, 2.0, 3.0])
        window, out = central_difference(values, 0.1, 0)
        assert window == slice(0, 3)
        assert np.array_equal(out, values)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError, match="need at least"):
            central_difference(np.zeros(8), 0.1, 2)

    def test_vector_valued_samples(self):
        h = 0.02
        s = np.arange(0.0, 2.0 * math.pi, h)
        circle = np.stack([np.cos(s), np.sin(s)], axis=1)
        window, d2 = central_difference(circle, h, 2)
        assert np.abs(d2 + circle[window]).max() < 1e-9

    def test_spectral_sixth_derivative_of_circle(self):
        n = 64
        s = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        circle = np.stack([np.cos(s), np.sin(s)], axis=1)
        d6 = spectral_derivative(circle, 2.0 * math.pi, 6)
        assert np.abs(d6 + circle).max() < 1e-12


# -- Laurent calculus --------------------------------------------------------


class TestLaurent:
    """The lab's Laurent polynomials in ``s`` are polynomials in ``u = 1/s``."""

    def test_product_difference_of_squares(self):
        f = upoly({0: 1.0, 2: 2.0})
        g = upoly({0: 1.0, 2: -2.0})
        assert f * g == upoly({0: 1.0, 4: -4.0})

    def test_differentiate_inverse_square(self):
        f = upoly({2: 1.0})
        assert f.arclength_derivative() == upoly({3: -2.0})
        assert f.arclength_derivative().arclength_derivative() == upoly({4: 6.0})

    def test_differentiate_kills_constants(self):
        assert upoly({0: 5.0}).arclength_derivative().is_zero()

    def test_leading_is_large_s_dominant(self):
        assert _leading(upoly({9: 2.0, 5: 3.0})) == (-5, 3.0)
        assert _leading(Poly.zero()) == (0, 0.0)

    def test_evaluation_and_coefficient_lookup(self):
        f = upoly({1: 2.0, 0: 0.5})
        s = np.array([1.0, 2.0])
        assert np.allclose(_evaluate(f, s), [2.5, 1.5])
        assert f.coefficient(Monomial([(INVERSE_ARCLENGTH, 1)])) == 2
        assert f.coefficient(Monomial([(INVERSE_ARCLENGTH, 7)])) == 0

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-3, max_value=3),
            max_size=4,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-3, max_value=3),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, pairs_f, pairs_g):
        f = upoly(pairs_f)
        g = upoly(pairs_g)
        lhs = (f * g).arclength_derivative()
        assert lhs == f.arclength_derivative() * g + f * g.arclength_derivative()


# -- curvature profiles ------------------------------------------------------


class TestProfiles:
    def test_parse_inverse_arclength_pair(self):
        profile = sqrt5_profile()
        assert profile.count == 2
        assert profile.has_pole
        assert np.allclose(profile.values(2.0), [0.5, 1.0])

    def test_parse_constants(self):
        profile = parse_profile("k1=0.8,k2=0.5")
        assert not profile.has_pole
        assert np.allclose(profile.values(7.0), [0.8, 0.5])

    def test_parse_inverse_square(self):
        profile = parse_profile("k1=3/s^2")
        assert profile.terms[0].power == 2
        assert profile.values(2.0)[0] == 0.75

    def test_render_round_trip(self):
        for text in ("k1=1/s,k2=2/s", "k1=0.8,k2=0.5", "k1=2/s^2,k2=-1/s^2"):
            profile = parse_profile(text)
            again = parse_profile(profile.render())
            assert np.allclose(profile.values(1.7), again.values(1.7))

    def test_term_derivatives_match_closed_form(self):
        term = ProfileTerm(2.0, 1).poly()
        assert term == upoly({1: 2.0})
        assert _evaluate(term.arclength_derivative(), np.array([2.0]))[0] == -0.5
        second = term.arclength_derivative().arclength_derivative()
        assert _evaluate(second, np.array([2.0]))[0] == 0.5
        square = ProfileTerm(3.0, 2).poly().arclength_derivative()
        assert _evaluate(square, np.array([1.0]))[0] == -6.0
        assert _evaluate(square.arclength_derivative(), np.array([1.0]))[0] == 18.0
        assert ProfileTerm(0.8).poly() == Poly.constant(Fraction(0.8))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProfileTerm(bad, 1)
        with pytest.raises(ValueError, match="finite"):
            parse_profile("k1=1e400/s")

    def test_parse_rejects_malformed(self):
        for bad in ("j1=5", "k1=1/s^3", "k1=", "k1=1;k2=2"):
            with pytest.raises(ValueError):
                parse_profile(bad)

    def test_parse_rejects_gaps_and_duplicates(self):
        with pytest.raises(ValueError, match="contiguously"):
            parse_profile("k1=1,k3=2")
        with pytest.raises(ValueError, match="duplicate"):
            parse_profile("k1=1,k1=2")

    def test_unsupported_power_raises(self):
        with pytest.raises(ValueError, match="powers"):
            ProfileTerm(1.0, 3)

    def test_singular_span_guard(self):
        profile = sqrt5_profile()
        with pytest.raises(ValueError, match="0.1"):
            profile.check_span((0.05, 1.0))
        profile.check_span((0.1, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            profile.check_span((2.0, 1.0))
        # constant profiles may start anywhere
        parse_profile("k1=1").check_span((0.0, 1.0))

    def test_inverse_power_constructor(self):
        profile = inverse_power_profile([1.0, 2.0], 2)
        assert profile.render() == "k1=1/s^2,k2=2/s^2"


# -- sampled curves ----------------------------------------------------------


class TestCurveSamples:
    def test_csv_round_trip(self, tmp_path):
        samples = integrate_frenet(parse_profile("k1=0.8,k2=0.5"), 3, (0.0, 2.0), 1e-3)
        path = tmp_path / "samples.csv"
        samples.to_csv(path)
        loaded = CurveSamples.from_csv(path)
        assert loaded.h == samples.h
        assert loaded.span == samples.span
        assert np.array_equal(loaded.positions, samples.positions)

    def test_from_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0.0,1.0\n0.1,1.0\n")
        with pytest.raises(ValueError, match="first CSV column"):
            CurveSamples.from_csv(path)

    def test_from_csv_rejects_nonuniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,x1\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
        with pytest.raises(ValueError, match="uniformly"):
            CurveSamples.from_csv(path)

    def test_inconsistent_metadata_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            CurveSamples(h=0.1, span=(0.0, 5.0), positions=np.zeros((11, 2)))
        with pytest.raises(ValueError, match="array"):
            CurveSamples(h=0.1, span=(0.0, 1.0), positions=np.zeros(11))

    def test_gram_defect_requires_frames(self):
        samples = CurveSamples(h=0.1, span=(0.0, 1.0), positions=np.zeros((11, 2)))
        with pytest.raises(ValueError, match="frames"):
            samples.gram_defect()

    def test_closed_form_sampling(self):
        curve = great_circle()
        samples = sample_trig_curve(curve, (0.0, 2.0 * math.pi), 257)
        assert samples.is_closed()
        assert len(samples) == 257
        assert samples.dimension == 2
        half = sample_trig_curve(curve, (0.0, math.pi), 129)
        assert not half.is_closed()
        with pytest.raises(ValueError, match="two samples"):
            sample_trig_curve(curve, (0.0, 1.0), 1)


# -- Frenet integration ------------------------------------------------------


class TestIntegrator:
    def test_unit_circle_closes(self):
        h = 2.0 * math.pi / 6400
        samples = integrate_frenet(parse_profile("k1=1"), 2, (0.0, 2.0 * math.pi), h)
        assert np.linalg.norm(samples.positions[-1] - samples.positions[0]) < 1e-8
        assert samples.gram_defect() < 1e-9
        assert samples.error_estimate is not None
        assert samples.error_estimate < 1e-10

    def test_circle_against_exact_solution(self):
        # identity initial frame: gamma(s) = (sin s, 1 - cos s)
        samples = integrate_frenet(parse_profile("k1=1"), 2, (0.0, 10.0), 1e-2)
        exact = np.array([math.sin(10.0), 1.0 - math.cos(10.0)])
        assert np.linalg.norm(samples.positions[-1] - exact) < 1e-7

    def test_step_halving_is_at_least_fourth_order(self):
        profile = parse_profile("k1=1")
        exact = np.array([math.sin(10.0), 1.0 - math.cos(10.0)])

        def endpoint_error(h: float) -> float:
            samples = integrate_frenet(profile, 2, (0.0, 10.0), h)
            return float(np.linalg.norm(samples.positions[-1] - exact))

        assert endpoint_error(1e-2) / endpoint_error(5e-3) >= 8.0

    def test_long_span_frame_orthonormality(self):
        profile = parse_profile("k1=0.6,k2=0.4,k3=0.3")
        samples = integrate_frenet(profile, 4, (0.0, 100.0), 1e-2)
        assert samples.gram_defect() < 1e-8

    def test_curvature_recovery_round_trip(self):
        profile = parse_profile("k1=0.8,k2=0.5")
        samples = integrate_frenet(profile, 3, (0.0, 20.0), 2e-3)
        sub = samples.positions[::10]
        spacing = samples.h * 10
        _, g1 = central_difference(sub, spacing, 1)
        _, g2 = central_difference(sub, spacing, 2)
        _, g3 = central_difference(sub, spacing, 3)
        g1 = g1[1:-1]  # order-1 window is one node wider on each side
        k1 = np.linalg.norm(g2, axis=1)
        assert np.abs(k1 - 0.8).max() < 1e-6
        k2 = np.linalg.norm(g3 + (k1**2)[:, None] * g1, axis=1) / k1
        assert np.abs(k2 - 0.5).max() < 1e-6

    def test_singular_profile_sampling(self):
        samples = integrate_frenet(sqrt5_profile(), 3, (1.0, 3.0), 1e-3)
        assert samples.gram_defect() < 1e-10
        assert samples.error_estimate < 1e-10
        speeds = np.linalg.norm(np.diff(samples.positions, axis=0), axis=1) / samples.h
        assert np.abs(speeds - 1.0).max() < 1e-5

    def test_rejects_bad_requests(self):
        profile = sqrt5_profile()
        with pytest.raises(ValueError, match=">= 0.1"):
            integrate_frenet(profile, 3, (0.01, 1.0), 1e-3)
        with pytest.raises(ValueError, match="dimension"):
            integrate_frenet(profile, 2, (1.0, 3.0), 1e-3)
        with pytest.raises(ValueError, match="positive"):
            integrate_frenet(profile, 3, (1.0, 3.0), 0.0)
        with pytest.raises(ValueError, match="one step"):
            integrate_frenet(profile, 3, (1.0, 1.0001), 1e-3)

    @pytest.mark.parametrize("h, d", [(1e-12, 3), (5e-324, 3), (1e-3, 10**9)])
    def test_storage_bound_fires_before_allocation(self, h, d):
        with pytest.raises(ValueError, match=f"step {h} .* dimension {d} .*more than {MAX_FRAME_VALUES}"):
            integrate_frenet(sqrt5_profile(), d, (1.0, 3.0), h)


# -- scalar first integral ---------------------------------------------------


class TestScalarLaw:
    def test_square_sum_five_is_exact_zero(self):
        s = np.linspace(1.0, 3.0, 101)
        assert curvature_ode_residual(sqrt5_profile(), 0.0, s) < 1e-13

    def test_constant_curvature_closes_with_fourth_power(self):
        s = np.linspace(0.5, 4.0, 50)
        profile = parse_profile("k1=0.9")
        assert curvature_ode_residual(profile, -(0.9**4), s) < 1e-15

    def test_square_sum_four_leaves_inverse_quartic(self):
        s = np.linspace(1.0, 3.0, 33)
        profile = parse_profile("k1=1/s,k2=1.7320508075688772/s")
        values = curvature_ode_values(profile, 0.0, s)
        assert np.abs(values - 1.0 / s**4).max() < 1e-12


# -- exact flat frame chain --------------------------------------------------


class TestFlatChain:
    def test_first_links(self):
        chain = flat_tangent_chain(sqrt5_profile(), 2)
        assert chain[0].coefficient(1) == 1
        assert chain[0].frames() == [1]
        assert chain[1].coefficient(1).is_zero()
        assert chain[1].coefficient(2) == upoly({1: 1.0})
        # nabla^2: (-k1^2, k1', k1 k2) = (-1/s^2, -1/s^2, 2/s^2)
        assert chain[2].coefficient(1) == upoly({2: -1.0})
        assert chain[2].coefficient(2) == upoly({2: -1.0})
        assert chain[2].coefficient(3) == upoly({2: 2.0})

    def test_constant_profile_tension(self):
        chain = flat_tangent_chain(parse_profile("k1=0.7"), 3)
        assert chain[3].coefficient(1).is_zero()
        # order-two flat tension: nabla^3 T
        assert chain[3].coefficient(2) == Poly.constant(-Fraction(0.7) ** 3)

    def test_square_sum_five_tension_collapses_to_normal(self):
        tension = flat_tangent_chain(sqrt5_profile(), 5)[5]
        assert tension.frames() == [2]
        assert tension.coefficient(2) == upoly({5: -126.0})

    def test_normal_coefficient_scales_with_alpha(self):
        tension = flat_tangent_chain(parse_profile("k1=2/s,k2=1/s"), 5)[5]
        assert tension.frames() == [2]
        assert tension.coefficient(2) == upoly({5: -252.0})

    def test_tri_law_holds_exactly_in_laurent_form(self):
        terms = conservation_law_terms(flat_tangent_chain(sqrt5_profile(), 2), 3)
        assert sum(terms).is_zero()
        assert sum(t.arclength_derivative() for t in terms).is_zero()

    def test_law_table_terms(self):
        # k1 = 1/s alone: A1 = u^2, A2 = u^4 + u^4, so d^2 A1 - A2 = 4 u^4
        chain = flat_tangent_chain(parse_profile("k1=1/s"), 2)
        d2a1, minus_a2 = conservation_law_terms(chain, 3)
        assert d2a1 == upoly({4: 6.0})
        assert minus_a2 == upoly({4: -2.0})


# -- conservation monitors ---------------------------------------------------


class TestMonitors:
    def test_tri_planar_invariant_is_minus_four(self):
        curve = tri_planar()
        samples = sample_trig_curve(curve, (0.0, curve.period()), 512)
        report = conservation_monitor_tri(samples, SPHERE)
        assert report.drift < 1e-6
        assert abs(report.empirical_constant + 4.0) < 1e-6
        assert np.abs(report.values + 4.0).max() < 1e-6

    def test_great_circle_invariant_vanishes(self):
        samples = sample_trig_curve(great_circle(), (0.0, 4.0 * math.pi), 1024)
        report = conservation_monitor_tri(samples, SPHERE)
        assert report.drift < 1e-12
        assert abs(report.empirical_constant) < 1e-12

    def test_biharmonic_circle_tri_constant(self):
        curve = biharmonic_circle()
        samples = sample_trig_curve(curve, (0.0, 4.0 * curve.period()), 2048)
        report = conservation_monitor_tri(samples, SPHERE)
        assert report.drift < 1e-6
        assert abs(report.empirical_constant + 1.0) < 1e-6

    def test_flat_inverse_arclength_constant_is_zero(self):
        samples = integrate_frenet(sqrt5_profile(), 3, (1.0, 3.0), 1e-3)
        report = conservation_monitor_tri(samples, FLAT)
        assert report.drift < 1e-5
        assert abs(report.empirical_constant) < 1e-5

    def test_four_planar_invariant_is_twenty_seven(self):
        curve = four_planar()
        samples = sample_trig_curve(curve, (0.0, 4.0 * curve.period()), 2048)
        report = conservation_monitor_four(samples, SPHERE)
        assert report.drift < 1e-5
        assert abs(report.empirical_constant - 27.0) < 1e-5

    def test_great_circle_four_invariant_vanishes(self):
        samples = sample_trig_curve(great_circle(), (0.0, 4.0 * math.pi), 1024)
        report = conservation_monitor_four(samples, SPHERE)
        assert report.drift < 1e-12
        assert abs(report.empirical_constant) < 1e-12

    def test_biharmonic_circle_four_invariant_recorded(self):
        # a circle makes every squared covariant norm constant, so the
        # invariant is trivially constant; its value 1 = k1^6 records that
        # constancy alone cannot certify the order-four equation here
        curve = biharmonic_circle()
        samples = sample_trig_curve(curve, (0.0, 4.0 * curve.period()), 2048)
        report = conservation_monitor_four(samples, SPHERE)
        assert report.drift < 1e-5
        assert abs(report.empirical_constant - 1.0) < 1e-5

    def test_flat_curve_fails_four_law_pointwise(self):
        # order-three solution, not order-four: invariant must track -66/s^6
        samples = integrate_frenet(sqrt5_profile(), 3, (1.0, 3.0), 1e-3)
        report = conservation_monitor_four(samples, FLAT)
        assert report.drift > 1e-2
        predicted = -66.0 / report.s_values**6
        assert np.abs(report.values - predicted).max() < 1e-4

    def test_monitor_input_validation(self):
        curve = great_circle()
        short = sample_trig_curve(curve, (0.0, 2.0 * math.pi), 63)
        with pytest.raises(ValueError, match="64"):
            conservation_monitor_tri(short, SPHERE)
        almost = sample_trig_curve(curve, (0.0, 2.0 * math.pi), 127)
        with pytest.raises(ValueError, match="128"):
            conservation_monitor_four(almost, SPHERE)
        fine = sample_trig_curve(curve, (0.0, 2.0 * math.pi), 512)
        with pytest.raises(ValueError, match="ambient"):
            conservation_monitor_tri(fine, SpaceForm(-1))

    def test_report_serialization(self):
        curve = tri_planar()
        samples = sample_trig_curve(curve, (0.0, curve.period()), 512)
        report = conservation_monitor_tri(samples, SPHERE)
        payload = report.to_json_dict()
        assert set(payload) == {
            "order",
            "ambient_curvature",
            "drift",
            "empirical_constant",
            "interior_count",
            "stride",
            "spacing",
        }
        assert payload["order"] == 3
        assert payload["ambient_curvature"] == 1.0
        assert payload["interior_count"] == report.interior_count


# -- conjecture scans --------------------------------------------------------


class TestConjectureScan:
    def test_order_three_law_minimum_at_planted_beta(self):
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        rows = conjecture_scan(3, 1.0, grid, (1.0, 3.0))
        assert [row.beta for row in rows] == sorted(grid)
        best = min(rows, key=lambda row: row.law_residual)
        assert best.beta == 2.0
        assert best.law_residual < 1e-13

    def test_order_three_planted_beta_is_exactly_zero(self):
        # beta^2 = 5 - alpha^2: the exact law vanishes identically
        rows = conjecture_scan(3, 1.0, [2.0], (1.0, 3.0))
        assert rows[0].law_residual == 0.0
        assert curvature_ode_residual(parse_profile("k1=2/s,k2=1/s"), 0.0, [1.0, 2.0]) == 0.0

    def test_order_three_single_curvature_residual(self):
        rows = conjecture_scan(3, 1.0, [0.0], (1.0, 3.0))
        assert math.isclose(rows[0].law_residual, 4.0, rel_tol=1e-12)

    def test_finite_difference_tracks_exact_tension(self):
        rows = conjecture_scan(3, 1.0, [0.0, 2.0], (1.0, 3.0))
        for row in rows:
            assert row.fd_method == "fd"
            assert row.scaling is None
            rel = abs(row.fd_tension_sup - row.exact_tension_sup)
            assert rel < 1e-3 * row.exact_tension_sup

    def test_order_four_scaling_diagnostic(self):
        rows = conjecture_scan(4, 1.0, [0.0, 1.0, 2.0], (1.0, 3.0))
        for row in rows:
            assert row.scaling is not None
            powers = [power for power, _ in row.scaling]
            assert powers == [-9, -9, -9]
            coefficients = [c for _, c in row.scaling]
            assert np.allclose(coefficients, [-6720.0, 2688.0, -288.0])
            rel = abs(row.fd_tension_sup - row.exact_tension_sup)
            assert rel < 1e-3 * row.exact_tension_sup

    def test_order_four_single_curvature_law_sup(self):
        # exact Laurent sum at s=1: -4320 + 1200 - 12
        rows = conjecture_scan(4, 1.0, [0.0], (1.0, 3.0))
        assert math.isclose(rows[0].law_residual, 3132.0, rel_tol=1e-9)

    def test_scan_input_validation(self):
        with pytest.raises(ValueError, match="orders"):
            conjecture_scan(2, 1.0, [0.0], (1.0, 3.0))
        with pytest.raises(ValueError, match="nonzero"):
            conjecture_scan(3, 0.0, [0.0], (1.0, 3.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"alpha must be finite.*{bad}"):
                conjecture_scan(3, bad, [0.0], (1.0, 3.0))
            with pytest.raises(ValueError, match=f"beta values must be finite.*{bad}"):
                conjecture_scan(3, 1.0, [0.0, bad], (1.0, 3.0))
        too_many = MAX_SCAN_POINTS + 1
        with pytest.raises(ValueError, match=f"at most {MAX_SCAN_POINTS} beta values, got {too_many}"):
            conjecture_scan(3, 1.0, [0.0] * too_many, (1.0, 3.0))

    def test_row_serialization(self):
        row = ConjectureRow(
            order=4,
            beta=1.0,
            law_residual=2.0,
            exact_tension_sup=3.0,
            fd_tension_sup=3.1,
            fd_method="fd",
            scaling=((-9, -6720.0),),
        )
        payload = row.to_json_dict()
        assert payload["scaling"] == [{"power": -9, "coefficient": -6720.0}]
        assert payload["order"] == 4
        plain = ConjectureRow(3, 0.0, 4.0, 1.0, 1.0, "fd")
        assert "scaling" not in plain.to_json_dict()

    def test_closed_curves_use_spectral_estimates(self):
        curve = great_circle()
        samples = sample_trig_curve(curve, (0.0, 2.0 * math.pi), 513)
        sup, method, window = _fd_tension_sup(samples, 6, 0.02)
        assert method == "spectral"
        assert len(window) == 512
        assert math.isclose(sup, 1.0, rel_tol=1e-8)
