"""Tests for the symbolic Frenet engine.

Golden expansions below were derived by running the frame recursion by hand
and cross-checked numerically before being frozen here.  A sympy
reimplementation of the recursion serves as an independent arithmetic oracle.
"""

import math
from fractions import Fraction

import pytest
import sympy as sp

from polyhelix import frenet
from polyhelix.frenet import (
    MAX_TENSION_ORDER,
    ConstraintEquation,
    FrenetExpansion,
    constraint_system,
    derivative_chain,
    frenet_derivative,
    iterated_derivative,
    tangent,
    tau_space_form,
    tension_field,
)
from polyhelix.ratpoly import (
    AMBIENT,
    INVERSE_ARCLENGTH,
    CurvaturePolynomial as Poly,
    ambient,
    kvar,
)


# -- helpers -----------------------------------------------------------------

def S(*idx: int) -> Poly:
    """Sum of squared curvatures."""
    total = Poly.zero()
    for i in idx:
        total = total + kvar(i) ** 2
    return total


def P(*idx: int) -> Poly:
    """Product of curvatures."""
    out = Poly.constant(1)
    for i in idx:
        out = out * kvar(i)
    return out


def evaluate_exact(p: Poly, point: dict[int, Fraction]) -> Fraction:
    return sum(
        (c * math.prod(point[v] ** e for v, e in mono.exps) for mono, c in p.terms()),
        Fraction(0),
    )


def to_sympy(p: Poly) -> sp.Expr:
    total = sp.Integer(0)
    for mono, coeff in p.terms():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for vid, e in mono.exps:
            name = "K" if vid == AMBIENT else f"k{vid}"
            term *= sp.Symbol(name) ** e
        total += term
    return total


def sympy_iterated(l: int, m: int) -> dict[int, sp.Expr]:
    """Independent sympy implementation of the truncated frame recursion."""
    def k(i: int) -> sp.Expr:
        return sp.Symbol(f"k{i}") if 1 <= i <= m else sp.Integer(0)

    v: dict[int, sp.Expr] = {1: sp.Integer(1)}
    for _ in range(l):
        out: dict[int, sp.Expr] = {}
        for j, c in v.items():
            if j >= 2:
                out[j - 1] = out.get(j - 1, 0) - c * k(j - 1)
            out[j + 1] = out.get(j + 1, 0) + c * k(j)
        v = {j: sp.expand(e) for j, e in out.items() if sp.expand(e) != 0}
    return v


def sympy_tau(r: int) -> dict[int, sp.Expr]:
    m = 2 * r - 2
    K = sp.Symbol("K")
    derivs = [sympy_iterated(l, m) for l in range(2 * r)]
    tau = dict(derivs[2 * r - 1])
    for l in range(r - 1):
        sign = (-1) ** l
        low, high = derivs[l], derivs[2 * r - 3 - l]
        t_low, t_high = low.get(1, 0), high.get(1, 0)
        for j, c in high.items():
            tau[j] = tau.get(j, 0) + sign * K * t_low * c
        for j, c in low.items():
            tau[j] = tau.get(j, 0) - sign * K * t_high * c
    return {j: sp.expand(e) for j, e in tau.items() if sp.expand(e) != 0}


def assert_matches_sympy(v: FrenetExpansion, oracle: dict[int, sp.Expr]) -> None:
    assert set(v.frames()) == set(oracle)
    for j in v.frames():
        assert sp.expand(to_sympy(v.coefficient(j)) - oracle[j]) == 0, f"frame {j}"


# -- basic structure ---------------------------------------------------------

def test_expansion_drops_zero_coefficients():
    v = FrenetExpansion({1: Poly.constant(1), 2: Poly.zero()})
    assert v.frames() == [1]
    assert v.coefficient(2).is_zero()


def test_expansion_rejects_out_of_range_frames():
    with pytest.raises(ValueError):
        FrenetExpansion({0: Poly.constant(1)})


def test_tangent_and_first_derivative():
    t = tangent()
    assert t.coefficient(1) == 1
    v = frenet_derivative(t, 2)
    assert v.coefficient(2) == kvar(1)
    assert v.frames() == [2]


def test_explicit_curvatures_match_the_helix_symbols():
    v = iterated_derivative(3, 3)
    assert frenet_derivative(v, 3, [kvar(1), kvar(2), kvar(3)]) == frenet_derivative(v, 3)


def test_arclength_curvatures_differentiate_the_coefficients():
    # k1 = 1/s: nabla (k1 F2) = k1' F2 + k1 (-k1 F1) = -u^2 F2 - u^2 F1
    u = Poly.variable(INVERSE_ARCLENGTH)
    v = frenet_derivative(tangent(), 1, [u])
    assert v.coefficient(2) == u
    w = frenet_derivative(v, 1, [u])
    assert w.coefficient(1) == -(u**2)
    assert w.coefficient(2) == -(u**2)


def test_derivative_rejects_frames_beyond_truncation():
    v = FrenetExpansion({4: Poly.constant(1)})
    with pytest.raises(ValueError):
        frenet_derivative(v, 2)


def test_iterated_derivative_bounds():
    with pytest.raises(ValueError):
        iterated_derivative(-1, 2)
    with pytest.raises(ValueError):
        iterated_derivative(5, 2)


# -- golden expansions -------------------------------------------------------

def test_golden_second_derivative():
    v = iterated_derivative(2, 2)
    assert v.coefficient(1) == -kvar(1) ** 2
    assert v.coefficient(3) == P(1, 2)
    assert v.frames() == [1, 3]


def test_golden_third_derivative():
    v = iterated_derivative(3, 4)
    assert v.coefficient(2) == -kvar(1) * S(1, 2)
    assert v.coefficient(4) == P(1, 2, 3)
    assert v.frames() == [2, 4]


def test_golden_fourth_derivative():
    v = iterated_derivative(4, 4)
    assert v.coefficient(1) == kvar(1) ** 2 * S(1, 2)
    assert v.coefficient(3) == -P(1, 2) * S(1, 2, 3)
    assert v.coefficient(5) == P(1, 2, 3, 4)


def test_golden_fifth_derivative_four_curvatures():
    v = iterated_derivative(5, 4)
    assert v.coefficient(2) == kvar(1) * (S(1, 2) ** 2 + P(2, 3) ** 2)
    assert v.coefficient(4) == -P(1, 2, 3) * S(1, 2, 3, 4)
    assert v.frames() == [2, 4]


def test_golden_fifth_derivative_six_curvatures():
    v = iterated_derivative(5, 6)
    assert v.coefficient(2) == kvar(1) * (S(1, 2) ** 2 + P(2, 3) ** 2)
    assert v.coefficient(4) == -P(1, 2, 3) * S(1, 2, 3, 4)
    assert v.coefficient(6) == P(1, 2, 3, 4, 5)


def test_golden_sixth_derivative():
    v = iterated_derivative(6, 6)
    assert v.coefficient(1) == -kvar(1) ** 2 * (S(1, 2) ** 2 + P(2, 3) ** 2)
    assert v.coefficient(3) == P(1, 2) * (
        S(1, 2) ** 2
        + kvar(3) ** 2 * (kvar(1) ** 2 + 2 * kvar(2) ** 2 + kvar(3) ** 2 + kvar(4) ** 2)
    )
    assert v.coefficient(5) == -P(1, 2, 3, 4) * S(1, 2, 3, 4, 5)
    assert v.coefficient(7) == P(1, 2, 3, 4, 5, 6)


def test_golden_seventh_derivative():
    v = iterated_derivative(7, 6)
    assert v.coefficient(2) == -kvar(1) * (
        S(1, 2) ** 3
        + P(2, 3) ** 2
        * (2 * kvar(1) ** 2 + 2 * kvar(2) ** 2 + kvar(3) ** 2 + kvar(4) ** 2)
    )
    assert v.coefficient(4) == P(1, 2, 3) * (
        S(1, 2) ** 2
        + S(3, 4) ** 2
        + P(1, 3) ** 2
        + 2 * P(2, 3) ** 2
        + kvar(4) ** 2 * (S(1, 2) + kvar(5) ** 2)
    )
    assert v.coefficient(6) == -P(1, 2, 3, 4, 5) * S(1, 2, 3, 4, 5, 6)
    assert v.frames() == [2, 4, 6]


# -- oracle cross-checks -----------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_iterated_derivatives_match_sympy(m):
    for l in range(0, 2 * m + 1):
        assert_matches_sympy(iterated_derivative(l, m), sympy_iterated(l, m))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_tension_field_matches_sympy(r):
    assert_matches_sympy(tau_space_form(r), sympy_tau(r))


# -- structural properties ---------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 5, 6])
def test_derivative_frame_parity(m):
    for l in range(0, 2 * m + 1):
        v = iterated_derivative(l, m)
        for j in v.frames():
            assert j % 2 != l % 2, f"order {l} produced frame {j}"


def test_tangential_components_of_odd_derivatives_vanish():
    # the recursion keeps every odd derivative orthogonal to the tangent
    for l in (1, 3, 5, 7):
        assert iterated_derivative(l, 6).coefficient(1).is_zero()


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_highest_derivative_structure(m):
    # the odd derivative 2l - 1 has frame-(2l - 2) coefficient
    # -(k1 ... k_{2l-3}) (k1^2 + ... + k_{2l-2}^2) and frame-2l coefficient
    # k1 ... k_{2l-1}, with every curvature beyond k_m truncated to zero
    def prod(upto: int) -> Poly:
        return P(*range(1, upto + 1)) if upto <= m else Poly.zero()

    for l in range(2, m // 2 + 2):
        v = iterated_derivative(2 * l - 1, m)
        assert v.coefficient(2 * l - 2) == -prod(2 * l - 3) * S(*range(1, min(2 * l - 2, m) + 1))
        assert v.coefficient(2 * l) == prod(2 * l - 1)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_tension_field_top_frame(r):
    assert tau_space_form(r).top_frame() == 2 * r - 2


def test_derivative_chain_steps_once_per_order():
    chain = derivative_chain(6, 4)
    assert len(chain) == 7
    for l, v in enumerate(chain):
        assert v == iterated_derivative(l, 4)
    with pytest.raises(ValueError):
        derivative_chain(9, 4)
    with pytest.raises(ValueError):
        derivative_chain(-1, 4)


def test_polynomial_times_expansion():
    v = iterated_derivative(2, 3)
    assert kvar(2) * v == v.scaled(kvar(2))


def test_tension_field_is_generic_in_the_field_type():
    # K = 0 leaves the bare third derivative; the symbolic K reproduces
    # tau_space_form from the same assembly
    derivs = derivative_chain(3, 2)
    flat = tension_field(derivs, 2, Poly.zero(), lambda v: v.coefficient(1))
    assert flat == derivs[3]
    assert tension_field(derivs, 2, ambient(), lambda v: v.coefficient(1)) == tau_space_form(2)


def test_tension_field_order_bound():
    with pytest.raises(ValueError):
        tau_space_form(1)
    too_high = MAX_TENSION_ORDER + 1
    with pytest.raises(ValueError, match=f"between 2 and {MAX_TENSION_ORDER}, got {too_high}"):
        tau_space_form(too_high)
    with pytest.raises(ValueError, match="got 1000000000"):
        constraint_system(10**9)


def canonical_patterns(r: int) -> list[set[int]]:
    """The full system and each upward-closed zero pattern: 2r - 1 in all."""
    m = 2 * r - 2
    return [set()] + [set(range(t, m + 1)) for t in range(1, m + 1)]


def test_pattern_sweep_derives_the_order_once(monkeypatch):
    r = 5
    original = frenet.frenet_derivative
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(frenet, "frenet_derivative", counting)
    tau_space_form.cache_clear()
    for pattern in canonical_patterns(r):
        constraint_system(r, pattern)
    assert len(canonical_patterns(r)) == 2 * r - 1
    assert len(calls) == 2 * r - 1  # one chain T, nabla T, ..., nabla^(2r-1) T


def test_cached_tension_field_is_never_mutated():
    r = 4
    tau_space_form.cache_clear()
    before = {j: p.render() for j, p in tau_space_form(r).coeffs.items()}
    for pattern in canonical_patterns(r):
        constraint_system(r, pattern).to_json_dict()
    cached = tau_space_form(r)
    assert cached is tau_space_form(r)
    assert {j: p.render() for j, p in cached.coeffs.items()} == before
    tau_space_form.cache_clear()
    assert tau_space_form(r) == cached


@pytest.mark.parametrize("r", range(2, 9))
def test_tension_coefficients_are_ints(r):
    tau = tau_space_form(r)
    coefficients = [c for j in tau.frames() for _, c in tau.coefficient(j).terms()]
    assert coefficients
    assert all(type(c) is int for c in coefficients)


# -- constraint systems ------------------------------------------------------

def test_order_two_system_golden():
    system = constraint_system(2)
    assert len(system.equations) == 1
    eq = system.equations[0]
    assert eq.frame == 2
    assert eq.gcd == -kvar(1)
    assert eq.factored == S(1, 2) - ambient()
    assert eq.factored.render() == "k1^2 + k2^2 - K"
    assert eq.check_split()


def test_order_three_system_golden():
    system = constraint_system(3)
    assert [eq.frame for eq in system.equations] == [2, 4]
    low, top = system.equations
    assert low.gcd == kvar(1)
    assert low.factored == (
        S(1, 2) ** 2 + P(2, 3) ** 2 - ambient() * (2 * kvar(1) ** 2 + kvar(2) ** 2)
    )
    assert top.gcd == -P(1, 2, 3)
    assert top.factored == S(1, 2, 3, 4) - ambient()
    assert all(eq.check_split() for eq in system.equations)


def test_order_four_system_shape():
    system = constraint_system(4)
    assert [eq.frame for eq in system.equations] == [2, 4, 6]
    top = system.equations[-1]
    assert top.gcd == -P(1, 2, 3, 4, 5)
    assert top.factored == S(1, 2, 3, 4, 5, 6) - ambient()
    assert all(eq.check_split() for eq in system.equations)
    assert all(eq.factored.leading_coefficient() > 0 for eq in system.equations)


def test_order_four_raw_system_matches_sympy():
    system = constraint_system(4)
    oracle = sympy_tau(4)
    for eq in system.equations:
        assert sp.expand(to_sympy(eq.raw) - oracle[eq.frame]) == 0


@pytest.mark.parametrize("r", range(2, MAX_TENSION_ORDER + 1))
def test_top_equation_is_curvature_sum(r):
    system = constraint_system(r)
    eq = system.equations[-1]
    assert eq.frame == 2 * r - 2
    assert eq.factored == S(*range(1, 2 * r - 1)) - ambient()
    expected_gcd = -P(*range(1, 2 * r - 2))
    assert eq.gcd == expected_gcd


def test_zero_pattern_reduces_to_circle_condition():
    # planar order-three case: only k1 survives and must satisfy k1^2 = 2K
    system = constraint_system(3, {2})
    assert len(system.equations) == 1
    eq = system.equations[0]
    assert eq.factored == kvar(1) ** 2 - 2 * ambient()
    assert eq.gcd == kvar(1) ** 3


def test_geodesic_pattern_gives_empty_system():
    system = constraint_system(3, {1})
    assert system.equations == ()


def test_zero_pattern_validation():
    with pytest.raises(ValueError):
        constraint_system(3, {5})


@pytest.mark.parametrize("r", [2, 3, 4])
def test_factored_equations_are_even_in_curvatures(r):
    for eq in constraint_system(r).equations:
        for mono, _ in eq.factored.terms():
            for vid in mono.variables():
                if vid != AMBIENT:
                    assert mono.exponent(vid) % 2 == 0


@pytest.mark.parametrize("r", [2, 3, 4])
def test_factored_equations_weighted_homogeneous(r):
    # weight(k_j) = 1/2, weight(K) = 1: every term in an equation has equal weight
    for eq in constraint_system(r).equations:
        weights = set()
        for mono, _ in eq.factored.terms():
            kdeg = sum(e for v, e in mono.exps if v != AMBIENT)
            weights.add(Fraction(kdeg, 2) + mono.exponent(AMBIENT))
        assert len(weights) == 1


@pytest.mark.parametrize("r", [2, 3])
def test_scaling_covariance(r):
    # F(c^(1/2) k, c K) = c^w F(k, K); exact check with c = 4
    base = {i: Fraction(i, 3) for i in range(1, 2 * r - 1)}
    base[AMBIENT] = Fraction(5, 7)
    scaled = {i: 2 * v for i, v in base.items() if i != AMBIENT}
    scaled[AMBIENT] = 4 * base[AMBIENT]
    for eq in constraint_system(r).equations:
        mono = next(iter(eq.factored.terms()))[0]
        kdeg = sum(e for v, e in mono.exps if v != AMBIENT)
        w = Fraction(kdeg, 2) + mono.exponent(AMBIENT)
        assert w.denominator == 1
        assert evaluate_exact(eq.factored, scaled) == 4**w * evaluate_exact(eq.factored, base)


def test_system_rendering_is_deterministic():
    a = constraint_system(3).render()
    b = constraint_system(3).render()
    assert a == b
    assert "F2" in a and "F4" in a
    d = constraint_system(3).to_json_dict()
    assert d["order"] == 3
    assert d["equations"][1]["factored"] == "k1^2 + k2^2 + k3^2 + k4^2 - K"
