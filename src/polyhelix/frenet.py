"""Symbolic Frenet calculus for helices in space forms.

A curve with geodesic curvatures ``k_1, ..., k_m`` carries a Frenet frame
``F_1, ..., F_n`` satisfying

    F_1' = k_1 F_2,
    F_i' = -k_{i-1} F_{i-1} + k_i F_{i+1},
    F_n' = -k_{n-1} F_{n-1},

with the truncation rule ``k_j = 0`` for ``j > m``.  For a helix the
curvatures are constant, every iterated derivative of the unit tangent is a
frame-coefficient vector of exact polynomials in the curvatures, and the
higher-order tension field of the curve in a space form of sectional
curvature ``K`` reduces to polynomial identities on those coefficients.
:func:`tension_field` is the one assembly of that field, also used by
:mod:`polyhelix.spherecurves`.  Curvatures that are polynomials in the
inverse arclength ``u = 1/s`` (the profiles of :mod:`polyhelix.odelab`) run
through the same :func:`frenet_derivative`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

from .ratpoly import INVERSE_ARCLENGTH, CurvaturePolynomial, ambient, kvar

Poly = CurvaturePolynomial

# The derivation takes about 0.1 s at order 8 and 0.7 s at order 10 on a
# shared 2-core Xeon and grows about x3 per order, so order 20 would take hours.
# The numeric sphere-curve checks in spherecurves take the same order range.
MAX_TENSION_ORDER = 10


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected ambient with constant sectional curvature ``K``."""

    K: float

    def is_flat(self) -> bool:
        return self.K == 0.0


@dataclass(frozen=True)
class FrenetExpansion:
    """A vector field along the curve written in the Frenet frame: a map
    ``frame index -> curvature polynomial`` together with the frame capacity."""

    frame_count: int
    coeffs: dict[int, Poly] = field(default_factory=dict)

    def __post_init__(self):
        clean = {j: p for j, p in self.coeffs.items() if not p.is_zero()}
        for j in clean:
            if not 1 <= j <= self.frame_count:
                raise ValueError(f"frame index {j} outside 1..{self.frame_count}")
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, j: int) -> Poly:
        return self.coeffs.get(j, Poly.zero())

    def frames(self) -> list[int]:
        return sorted(self.coeffs)

    def top_frame(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrenetExpansion):
            return NotImplemented
        return self.coeffs == other.coeffs

    def scaled(self, factor: Poly) -> "FrenetExpansion":
        return FrenetExpansion(
            self.frame_count, {j: factor * p for j, p in self.coeffs.items()}
        )

    __rmul__ = scaled

    def __add__(self, other: "FrenetExpansion") -> "FrenetExpansion":
        n = max(self.frame_count, other.frame_count)
        out = dict(self.coeffs)
        for j, p in other.coeffs.items():
            out[j] = out.get(j, Poly.zero()) + p
        return FrenetExpansion(n, out)

    def __sub__(self, other: "FrenetExpansion") -> "FrenetExpansion":
        return self + other.scaled(Poly.constant(-1))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        return "  +  ".join(f"({self.coefficient(j).render()})*F{j}" for j in self.frames())


def tangent(frame_count: int) -> FrenetExpansion:
    """The unit tangent ``T = F_1``."""
    return FrenetExpansion(frame_count, {1: Poly.constant(1)})


def frenet_derivative(
    v: FrenetExpansion, m: int, curvatures: Sequence[Poly] | None = None
) -> FrenetExpansion:
    """One covariant derivative along the curve of a frame field, using the
    Frenet relations with ``k_j = 0`` for ``j > m``.

    The curvatures are the helix symbols ``k_1 .. k_m`` unless ``curvatures``
    gives them as polynomials.  When one of those carries the inverse
    arclength ``u``, the coefficients vary along the curve and each one also
    contributes its own ``d/ds``; otherwise they are constants."""
    if v.top_frame() > m + 1:
        raise ValueError(
            f"expansion reaches frame {v.top_frame()} but only {m} curvatures exist"
        )
    ks = [kvar(j) for j in range(1, m + 1)] if curvatures is None else curvatures
    moving = curvatures is not None and any(INVERSE_ARCLENGTH in k.variables() for k in ks)
    out: dict[int, Poly] = {}

    def add(j: int, p: Poly) -> None:
        out[j] = out.get(j, Poly.zero()) + p

    for j, c in v.coeffs.items():
        if moving:
            add(j, c.arclength_derivative())
        if j >= 2 and j - 1 <= m:
            add(j - 1, -c * ks[j - 2])
        if j <= m:
            add(j + 1, c * ks[j - 1])
    n = max(v.frame_count, max(out) if out else 1)
    return FrenetExpansion(n, out)


def derivative_chain(depth: int, m: int) -> list[FrenetExpansion]:
    """``[T, nabla T, ..., nabla^depth T]``, each entry one covariant
    derivative of the one before."""
    if depth < 0:
        raise ValueError("derivative order must be >= 0")
    if depth > 2 * m:
        raise ValueError(f"order {depth} exceeds 2m = {2 * m}; truncation would distort it")
    chain = [tangent(max(2, m + 2))]
    for _ in range(depth):
        chain.append(frenet_derivative(chain[-1], m))
    return chain


def iterated_derivative(l: int, m: int) -> FrenetExpansion:
    """``l``-th covariant derivative of the tangent; ``l = 0`` is ``T`` itself."""
    return derivative_chain(l, m)[l]


def tension_field(derivs: Sequence, r: int, K, tangential: Callable):
    """Order-``r`` tension field in a space form of sectional curvature ``K``,

        tau_r = nabla^(2r-1) T + K sum_{l=0}^{r-2} (-1)^l
                (<T, nabla^l T> nabla^(2r-3-l) T - <T, nabla^(2r-3-l) T> nabla^l T),

    from ``derivs = [T, nabla T, ..., nabla^(2r-1) T]``.  The fields need only
    ``+``, ``-`` and scalar ``*``; ``tangential(v)`` reads ``<T, v>``.  The
    curvature-tensor sum of the general Euler-Lagrange operator collapses in
    constant curvature to these tangential projections.
    """
    tau = derivs[2 * r - 1]
    for l in range(r - 1):
        low, high = derivs[l], derivs[2 * r - 3 - l]
        term = K * (tangential(low) * high - tangential(high) * low)
        tau = tau - term if l % 2 else tau + term
    return tau


def check_tension_order(r: int) -> None:
    """Reject a tension order outside ``2..MAX_TENSION_ORDER``."""
    if not 2 <= r <= MAX_TENSION_ORDER:
        raise ValueError(
            f"tension order must be between 2 and {MAX_TENSION_ORDER}, got {r}"
        )


@cache
def tau_space_form(r: int) -> FrenetExpansion:
    """Order-``r`` tension field of a helix in a space form, as an exact
    frame-coefficient expansion over ``k_1, ..., k_{2r-2}`` and ``K``; the
    tangential projections are the ``F_1`` coefficients.

    Each order is derived once per process and the result is cached (at most
    ``MAX_TENSION_ORDER - 1`` entries): every caller receives the same
    object, so it must not be mutated."""
    check_tension_order(r)
    derivs = derivative_chain(2 * r - 1, 2 * r - 2)
    return tension_field(derivs, r, ambient(), lambda v: v.coefficient(1))


def highest_derivative_structure_check(l: int, m: int) -> bool:
    """Check the closed form of the two highest-frame coefficients of the
    odd derivative ``(2l-1)``: the frame ``2l-2`` coefficient is
    ``-(k_1 ... k_{2l-3}) * (k_1^2 + ... + k_{2l-2}^2)`` and the frame ``2l``
    coefficient is ``k_1 ... k_{2l-1}`` (with truncation beyond ``k_m``)."""
    if not 2 <= l <= m // 2 + 1:
        raise ValueError(f"need 2 <= l <= m/2 + 1, got l={l}, m={m}")
    v = iterated_derivative(2 * l - 1, m)

    def kprod(upto: int) -> Poly:
        if upto > m:
            return Poly.zero()
        p = Poly.constant(1)
        for i in range(1, upto + 1):
            p = p * kvar(i)
        return p

    ksum = Poly.zero()
    for j in range(1, min(2 * l - 2, m) + 1):
        ksum = ksum + kvar(j) ** 2
    expected_mid = -kprod(2 * l - 3) * ksum
    expected_top = kprod(2 * l - 1)
    return v.coefficient(2 * l - 2) == expected_mid and v.coefficient(2 * l) == expected_top


@dataclass(frozen=True)
class ConstraintEquation:
    """One frame component of the vanishing tension field, kept in three
    auditable pieces with ``raw == gcd * factored`` exactly."""

    frame: int
    raw: Poly
    gcd: Poly       # a single signed monomial
    factored: Poly  # sign-normalized: positive leading coefficient

    def check_split(self) -> bool:
        return self.gcd * self.factored == self.raw


@dataclass(frozen=True)
class ConstraintSystem:
    """The polynomial system a proper helix of the given order must satisfy,
    one equation per surviving (always even) frame index."""

    order: int
    zero_pattern: frozenset[int]
    equations: tuple[ConstraintEquation, ...]

    def factored_polys(self) -> list[Poly]:
        return [eq.factored for eq in self.equations]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "zero_pattern": sorted(self.zero_pattern),
            "equations": [
                {
                    "frame": eq.frame,
                    "raw": eq.raw.render(),
                    "gcd": eq.gcd.render(),
                    "factored": eq.factored.render(),
                }
                for eq in self.equations
            ],
        }

    def render(self) -> str:
        lines = [f"order {self.order}, zero pattern {sorted(self.zero_pattern) or '{}'}"]
        for eq in self.equations:
            lines.append(f"  F{eq.frame}:  [{eq.gcd.render()}] * ( {eq.factored.render()} ) = 0")
        return "\n".join(lines)

    def render_latex(self) -> str:
        lines = []
        for eq in self.equations:
            lines.append(
                rf"{eq.gcd.render_latex()} \left( {eq.factored.render_latex()} \right) = 0"
            )
        return "\\\\\n".join(lines)


def constraint_system(r: int, zero_pattern: frozenset[int] | set[int] = frozenset()) -> ConstraintSystem:
    """Vanishing conditions for the order-``r`` tension field after forcing
    the curvatures in ``zero_pattern`` to zero, each component split into
    monomial gcd times a sign-normalized cofactor."""
    pattern = frozenset(zero_pattern)
    if any(i < 1 or i > 2 * r - 2 for i in pattern):
        raise ValueError(f"zero pattern must be within 1..{2 * r - 2}")
    tau = tau_space_form(r)
    equations = []
    for j in tau.frames():
        raw = tau.coefficient(j).substitute_zero(pattern)
        if raw.is_zero():
            continue
        if j % 2 != 0:
            raise AssertionError(f"odd frame {j} survived in the tension field")
        g, cof = raw.factor_monomial_gcd()
        sign = 1 if cof.leading_coefficient() > 0 else -1
        gcd_poly = Poly({g: sign})
        factored = cof if sign > 0 else -cof
        equations.append(ConstraintEquation(j, raw, gcd_poly, factored))
    return ConstraintSystem(r, pattern, tuple(equations))


def curvature_sum_poly(r: int) -> Poly:
    """``k_1^2 + ... + k_{2r-2}^2 - K``: the expected top-frame equation."""
    total = Poly.zero()
    for j in range(1, 2 * r - 1):
        total = total + kvar(j) ** 2
    return total - ambient()
