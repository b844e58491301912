"""Closed-form trigonometric curves on round spheres.

A curve here is a sum of planar rotations with distinct frequencies plus an
optional constant direction,

    gamma(s) = sum_i alpha_i (cos(a_i s), sin(a_i s)) (+) alpha_0 e_0,

living on the unit sphere when the squared weights sum to one.  Every
derivative of the ansatz is again trigonometric, and every scalar product
``<gamma^(p), gamma^(q)>`` is independent of ``s``:

    <gamma^(p), gamma^(q)> = sum_i alpha_i^2 a_i^(p+q) cos((p-q) pi/2),

plus ``alpha_0^2`` when ``p = q = 0``.  That single fact powers everything in
this module: variational ODE residuals evaluate in closed form, covariant
derivatives along the curve become constant-coefficient recursions against
the (exact) Gram matrix of the derivative jet, and geodesic curvatures come
out of Gram-Schmidt with no sampling error.

The covariant algebra runs in high-precision arithmetic because the target
tolerances (1e-9 .. 1e-12) sit below the cancellation noise floor of double
precision for these expressions.  The tension field is assembled by
:func:`polyhelix.frenet.tension_field`; :func:`covariant_jets` applies the
same connection to sampled derivative jets, here and in the odelab monitors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import mpmath
import numpy as np

from .frenet import check_tension_order, tension_field

Scalar = Union[int, float, Fraction, mpmath.mpf]

WORKING_DPS = 50          # decimal digits for the covariant algebra
DEGENERACY_TOL = 1e-10    # frame vector considered zero below this norm
GRADIENT_STEP = 1e-3      # weight step of the reduced-density gradient stencil
QUAD_TOL = 1e-10          # agreement of consecutive first-variation levels

# phase table: cos((p-q) pi/2) for (p-q) mod 4
_C4 = (1, 0, -1, 0)


class FrameDegeneracyError(Exception):
    """A Frenet frame vector degenerated (a geodesic curvature vanished).

    Carries the curvatures recovered before the degeneracy hit.
    """

    def __init__(self, curvatures: tuple[float, ...]):
        self.curvatures = curvatures
        super().__init__(
            f"frame degenerated after {len(curvatures)} curvature(s): "
            f"{curvatures}"
        )


def _to_mpf(value: Scalar) -> mpmath.mpf:
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


@dataclass(frozen=True)
class TrigCurve:
    """A trigonometric sphere curve.

    ``blocks`` holds ``(squared frequency, squared weight)`` pairs; exact
    parameter types (``Fraction`` or ``mpmath.mpf``) are preserved so that
    downstream high-precision computations see the intended curve, not a
    double-precision approximation of it.
    """

    blocks: tuple[tuple[Scalar, Scalar], ...]
    constant_weight: Scalar = 0

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one rotating block")
        object.__setattr__(self, "blocks", tuple((x, w) for x, w in self.blocks))
        for x, w in self.blocks:
            if not float(x) > 0:
                raise ValueError("squared frequencies must be positive")
            if not 0 < float(w) <= 1:
                raise ValueError("squared weights must lie in (0, 1]")
        if not 0 <= float(self.constant_weight) < 1:
            raise ValueError("constant weight must lie in [0, 1)")
        freqs = [float(x) for x, _ in self.blocks]
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                if abs(freqs[i] - freqs[j]) <= 1e-12:
                    raise ValueError("frequencies must be pairwise distinct")
        total = math.fsum(float(w) for _, w in self.blocks) + float(
            self.constant_weight
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"squared weights sum to {total}, not 1")

    # -- structure -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return 2 * len(self.blocks) + (1 if float(self.constant_weight) > 0 else 0)

    def moment(self, l: int) -> float:
        """``sum_i alpha_i^2 (a_i^2)^l``, i.e. ``|gamma^(l)|^2`` for l >= 1."""
        return math.fsum(float(w) * float(x) ** l for x, w in self.blocks)

    def is_arclength(self, tol: float = 1e-9) -> bool:
        return abs(self.moment(1) - 1.0) <= tol

    def period(self) -> float:
        """Period of the slowest rotating block (sampling window)."""
        return 2.0 * math.pi / math.sqrt(min(float(x) for x, _ in self.blocks))

    # -- evaluation ----------------------------------------------------------

    def derivative(self, l: int) -> Callable[[np.ndarray], np.ndarray]:
        """Closed-form evaluator of the l-th derivative, ``s -> R^dim``.

        Block i picks up the factor ``a_i^l`` and a phase shift ``l pi/2``.
        """
        if l < 0:
            raise ValueError("derivative order must be >= 0")
        freqs = np.array([math.sqrt(float(x)) for x, _ in self.blocks])
        amps = np.array([math.sqrt(float(w)) for _, w in self.blocks])
        factors = amps * freqs**l
        phase = l * math.pi / 2.0
        has_const = float(self.constant_weight) > 0
        const_amp = math.sqrt(float(self.constant_weight)) if has_const else 0.0
        dim = self.dimension

        def evaluate(s):
            s = np.asarray(s, dtype=float)
            out = np.zeros(s.shape + (dim,))
            for i in range(len(freqs)):
                theta = freqs[i] * s + phase
                out[..., 2 * i] = factors[i] * np.cos(theta)
                out[..., 2 * i + 1] = factors[i] * np.sin(theta)
            if has_const and l == 0:
                out[..., -1] = const_amp
            return out

        return evaluate

    def __call__(self, s):
        return self.derivative(0)(s)

    # -- exact scalar products ----------------------------------------------

    def inner_exact(self, p: int, q: int) -> mpmath.mpf:
        """``<gamma^(p), gamma^(q)>`` in working precision; s-independent."""
        c = _C4[(p - q) % 4]
        total = mpmath.mpf(0)
        if c:
            half = (p + q) // 2  # p-q even implies p+q even
            for x, w in self.blocks:
                total += _to_mpf(w) * _to_mpf(x) ** half
            total *= c
        if p == 0 and q == 0:
            total += _to_mpf(self.constant_weight)
        return total

    def inner(self, p: int, q: int) -> float:
        return float(self.inner_exact(p, q))


# -- named curves ------------------------------------------------------------

def great_circle() -> TrigCurve:
    """The unit-speed geodesic."""
    return TrigCurve(((1, 1),))


def biharmonic_circle() -> TrigCurve:
    """Circle with frequency sqrt(2) and half the mass on a constant axis."""
    return TrigCurve(((2, Fraction(1, 2)),), Fraction(1, 2))


def biharmonic_two_freq(
    a2: Scalar = Fraction(3, 2), b2: Scalar = Fraction(1, 2)
) -> TrigCurve:
    """Two equally weighted blocks with squared frequencies summing to 2."""
    return TrigCurve(((a2, Fraction(1, 2)), (b2, Fraction(1, 2))))


def tri_planar() -> TrigCurve:
    """Planar curve with squared frequency 3 and weight one third."""
    return TrigCurve(((3, Fraction(1, 3)),), Fraction(2, 3))


def four_planar() -> TrigCurve:
    """Planar curve with frequency 2 and weight one quarter."""
    return TrigCurve(((4, Fraction(1, 4)),), Fraction(3, 4))


def tri_hyperbola_curve(y: Scalar) -> TrigCurve:
    """Two-frequency curve on the admissible branch of the quartic

        x^2 + (3y - 4) x + (y^2 - 4y + 3) = 0,   x = a^2, y = b^2,

    with weights solved from the unit-sphere and arclength conditions:
    ``alpha_1^2 = (1 - y)/(x - y)``.  Admissible for y in (0, 3), y != 1.
    """
    with mpmath.workdps(WORKING_DPS):
        ym = _to_mpf(y)
        if not 0 < ym < 3:
            raise ValueError("admissible branch needs y in (0, 3)")
        disc = 5 * ym**2 - 8 * ym + 4
        x = (4 - 3 * ym + mpmath.sqrt(disc)) / 2
        if abs(x - ym) < mpmath.mpf("1e-12"):
            raise ValueError("x = y is the geodesic, excluded")
        a1sq = (1 - ym) / (x - ym)
        a3sq = 1 - a1sq
        if not (0 < a1sq < 1):
            raise ValueError("weights leave (0, 1); outside the family")
        return TrigCurve(((x, a1sq), (ym, a3sq)))


# -- pointwise identity and residual checks ----------------------------------

def sphere_identities_check(curve: TrigCurve, s_samples: Iterable[float]) -> float:
    """Max defect of the five arclength sphere-curve identities:
    <g,g'> = 0, <g'',g> = -1, <g''',g> = 0, <g',g''> = 0, <g4,g> = |g''|^2."""
    s = np.asarray(list(s_samples), dtype=float)
    g = [curve.derivative(l)(s) for l in range(5)]

    def dot(a, b):
        return np.einsum("...i,...i->...", a, b)

    defects = [
        np.abs(dot(g[0], g[1])),
        np.abs(dot(g[2], g[0]) + 1.0),
        np.abs(dot(g[3], g[0])),
        np.abs(dot(g[1], g[2])),
        np.abs(dot(g[4], g[0]) - dot(g[2], g[2])),
    ]
    return float(max(d.max() for d in defects))


def _require_arclength(curve: TrigCurve) -> None:
    if not curve.is_arclength():
        raise ValueError(
            f"curve is not arclength parametrized (|gamma'|^2 = {curve.moment(1)})"
        )


def biharmonic_residual(curve: TrigCurve, samples: int = 256) -> float:
    """Sup norm of ``gamma'''' + 2 gamma'' + gamma (2 - |gamma''|^2)`` over a
    period, sampled at ``samples`` points."""
    _require_arclength(curve)
    if samples < 256:
        raise ValueError("need at least 256 samples per period")
    s = np.linspace(0.0, curve.period(), samples, endpoint=False)
    g0, g2, g4 = (curve.derivative(l)(s) for l in (0, 2, 4))
    b2 = curve.inner(2, 2)
    residual = g4 + 2.0 * g2 + (2.0 - b2) * g0
    return float(np.linalg.norm(residual, axis=-1).max())


def fourharmonic_residual(curve: TrigCurve, samples: int = 256) -> float:
    """Sup norm over a period of the eighth-order variational ODE for
    order-four curves on the unit sphere.

    For this ansatz every scalar product is s-independent, so the nested
    ``d/ds`` terms acting on scalar factors collapse: only the vector factor
    keeps differentiating.  Terms in ``<gamma^(4), gamma'>`` are left out:
    it vanishes by parity (``p - q`` odd).
    """
    _require_arclength(curve)
    if samples < 256:
        raise ValueError("need at least 256 samples per period")
    b2 = curve.inner(2, 2)            # |g''|^2
    c42 = curve.inner(4, 2)           # <g4, g''>
    tangential = (
        curve.inner(8, 0)
        + 2.0 * curve.inner(6, 0)
        + 3.0 * b2
        - b2**2
        + 6.0 * b2
        - 4.0
        + 2.0 * c42
        - b2 * curve.inner(0, 4)
    )
    s = np.linspace(0.0, curve.period(), samples, endpoint=False)
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


# -- covariant algebra over the derivative jet -------------------------------

class _CovariantAlgebra:
    """Fields along the curve as constant coefficient vectors (object arrays
    of ``mpf``) over the jet basis ``gamma, gamma', ..., gamma^(J)`` with the
    exact Gram matrix.

    The sphere connection acts by ``X -> X' + <X, gamma'> gamma``; on jet
    coefficients that is an index shift plus the Gram column of ``gamma'``.
    """

    def __init__(self, curve: TrigCurve, max_order: int):
        self.size = max_order + 1
        self.gram = np.array(
            [[curve.inner_exact(p, q) for q in range(self.size)] for p in range(self.size)],
            dtype=object,
        )

    def tangent(self) -> np.ndarray:
        c = np.array([mpmath.mpf(0)] * self.size, dtype=object)
        c[1] = mpmath.mpf(1)
        return c

    def inner(self, c: Sequence, d: Sequence) -> mpmath.mpf:
        total = mpmath.mpf(0)
        for p, cp in enumerate(c):
            if cp:
                row = self.gram[p]
                for q, dq in enumerate(d):
                    if dq:
                        total += cp * row[q] * dq
        return total

    def norm(self, c: Sequence) -> mpmath.mpf:
        return mpmath.sqrt(max(self.inner(c, c), mpmath.mpf(0)))

    def nabla(self, c: np.ndarray) -> np.ndarray:
        if c[-1]:
            raise ValueError("jet too short for another covariant derivative")
        out = np.roll(c, 1)
        out[0] = c @ self.gram[:, 1]
        return out

    def chain(self, depth: int) -> list[np.ndarray]:
        """``[T, nabla T, ..., nabla^depth T]``."""
        chain = [self.tangent()]
        for _ in range(depth):
            chain.append(self.nabla(chain[-1]))
        return chain


def intrinsic_tau_residual(curve: TrigCurve, r: int) -> float:
    """Norm of the order-``r`` tension field of the curve, assembled from
    covariant derivatives of the tangent with unit ambient curvature.

    The coefficients are s-independent for this ansatz, so the returned value
    is the sup over any interval.
    """
    _require_arclength(curve)
    check_tension_order(r)
    with mpmath.workdps(WORKING_DPS):
        alg = _CovariantAlgebra(curve, 2 * r)
        derivs = alg.chain(2 * r - 1)
        tau = tension_field(derivs, r, 1, lambda v: alg.inner(derivs[0], v))
        return float(alg.norm(tau))


def geodesic_curvatures(
    curve: TrigCurve, count: int, pad: bool = False
) -> tuple[float, ...]:
    """First ``count`` geodesic curvatures via Gram-Schmidt on the covariant
    derivatives of the tangent.

    The frame recursion gives ``k_j F_{j+1} = nabla F_j + k_{j-1} F_{j-1}``;
    when the right side degenerates the curve does not fill ``count + 1``
    frames and a :class:`FrameDegeneracyError` is raised carrying the
    curvatures found so far, unless ``pad`` asks for zero-filling instead.
    """
    _require_arclength(curve)
    capacity = 2 * len(curve.blocks) - 1 + (
        1 if float(curve.constant_weight) > 0 else 0
    )
    if not 1 <= count <= capacity:
        raise ValueError(f"count must be within 1..{capacity} for this curve")
    with mpmath.workdps(WORKING_DPS):
        alg = _CovariantAlgebra(curve, count + 1)
        frames = [alg.tangent()]
        curvatures: list[float] = []
        prev_k: mpmath.mpf | None = None
        for j in range(count):
            v = alg.nabla(frames[j])
            if j >= 1:
                v = v + prev_k * frames[j - 1]
            norm = alg.norm(v)
            if norm < DEGENERACY_TOL:
                if pad:
                    return tuple(curvatures) + (0.0,) * (count - len(curvatures))
                raise FrameDegeneracyError(tuple(curvatures))
            frames.append(v / norm)
            curvatures.append(float(norm))
            prev_k = norm
        return tuple(curvatures)


# -- Lagrangian densities ----------------------------------------------------

@dataclass(frozen=True)
class LagrangianValue:
    """Reduced variational density of a trig curve at one order.

    For this ansatz the density is s-independent, so the period-averaged
    energy equals the density.
    """

    order: int
    density: float
    energy: float
    lagrange_multiplier: float | None


def _density(curve: TrigCurve, r: int) -> float:
    """``|nabla^(r-1) gamma'|^2``, the order-``r`` density; on the unit sphere
    it needs only ``|gamma| = 1``, not an arclength parametrization."""
    with mpmath.workdps(WORKING_DPS):
        alg = _CovariantAlgebra(curve, r)
        top = alg.chain(r - 1)[-1]
        return float(alg.inner(top, top))


def lagrangian(curve: TrigCurve, r: int) -> LagrangianValue:
    """Reduced density (and multiplier, when the constraint structure
    determines one) for the curve at order ``r``.

    The exact density is cross-checked against a direct evaluation on
    sampled jets before being returned.
    """
    check_tension_order(r)
    density = _density(curve, r)

    s = np.linspace(0.0, curve.period(), 17)
    jet = [curve.derivative(l)(s) for l in range(r + 1)]
    top = covariant_jets(jet, 1, r - 1)[-1]
    sampled = np.einsum("...i,...i->...", top, top)
    scale = 1.0 + abs(density)
    if np.abs(sampled - density).max() > 1e-8 * scale:
        raise AssertionError("exact density disagrees with sampled density")

    multiplier: float | None = None
    if r == 2:
        multiplier = 2.0 - curve.inner(2, 2)
    elif r == 3 and len(curve.blocks) == 2:
        (x, w1), (y, w3) = (
            (float(a), float(b)) for a, b in curve.blocks
        )
        multiplier = solve_lambda(x, y, w1, w3)
    return LagrangianValue(r, density, density, multiplier)


def reduced_lagrangian_gradient(curve: TrigCurve, r: int) -> tuple[float, ...]:
    """Partial derivatives of the reduced density with respect to the free
    squared weights (frequencies held fixed, the dependent weight eliminated
    through the unit-sphere constraint).  Certified curves sit at a critical
    point, so these vanish there.

    Fourth-order central differences keep the FD error near 1e-12.
    """
    freqs = [float(x) for x, _ in curve.blocks]
    weights = [float(w) for _, w in curve.blocks]
    has_const = float(curve.constant_weight) > 0
    free = len(weights) if has_const else len(weights) - 1
    if free == 0:
        raise ValueError("single block without constant direction has no free weight")

    def density_at(ws: Sequence[float]) -> float:
        # the dependent weight keeps the squared weights summing to one
        if has_const:
            probe = TrigCurve(tuple(zip(freqs, ws)), 1.0 - sum(ws))
        else:
            probe = TrigCurve(tuple(zip(freqs, list(ws) + [1.0 - sum(ws)])))
        return _density(probe, r)

    h = GRADIENT_STEP
    grads = []
    for i in range(free):
        base = weights[:free]

        def shifted(delta: float) -> float:
            probe = list(base)
            probe[i] += delta
            return density_at(probe)

        grads.append(
            (-shifted(2 * h) + 8 * shifted(h) - 8 * shifted(-h) + shifted(-2 * h))
            / (12 * h)
        )
    return tuple(grads)


# -- first variation ---------------------------------------------------------

@dataclass(frozen=True)
class BumpPerturbation:
    """Compactly supported smooth perturbation ``bump(s) * direction``.

    The profile is ``sin^(2q)(pi (s - start)/width)`` on its support; its
    derivatives are evaluated through the exact cosine expansion

        sin^(2q) t = 4^-q C(2q, q) + 2 4^-q sum_j (-1)^j C(2q, q-j) cos(2jt),

    so the jet carries no finite-difference error.
    """

    start: float
    width: float
    direction: tuple[float, ...]
    sharpness: int = 4

    @property
    def support(self) -> tuple[float, float]:
        return (self.start, self.start + self.width)

    def profile_jet(self, s: np.ndarray, orders: int) -> list[np.ndarray]:
        q = self.sharpness
        omega = math.pi / self.width
        t = omega * (s - self.start)
        inside = (s > self.start) & (s < self.start + self.width)
        jet = []
        scale = 4.0**-q
        for d in range(orders + 1):
            total = np.zeros_like(s)
            if d == 0:
                total += scale * math.comb(2 * q, q)
            for j in range(1, q + 1):
                coeff = 2.0 * scale * (-1) ** j * math.comb(2 * q, q - j)
                freq = 2.0 * j * omega
                # d-th derivative of cos(2 j t) in s
                angle = 2.0 * j * t + d * math.pi / 2.0
                total += coeff * freq**d * np.cos(angle)
            jet.append(np.where(inside, total, 0.0))
        return jet

    def jet(self, s: np.ndarray, orders: int) -> list[np.ndarray]:
        direction = np.asarray(self.direction, dtype=float)
        return [
            profile[..., None] * direction
            for profile in self.profile_jet(s, orders)
        ]


def random_bump(
    dimension: int,
    rng: np.random.Generator,
    start_range: tuple[float, float] = (1.0, 6.0),
    width_range: tuple[float, float] = (2.0, 4.0),
) -> BumpPerturbation:
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    return BumpPerturbation(
        start=float(rng.uniform(*start_range)),
        width=float(rng.uniform(*width_range)),
        direction=tuple(direction),
    )


def _jet_dot(a: list[np.ndarray], b: list[np.ndarray], orders: int) -> list[np.ndarray]:
    out = []
    for k in range(orders + 1):
        total = np.zeros(a[0].shape[:-1], dtype=np.result_type(a[0], b[0]))
        for i in range(k + 1):
            total = total + math.comb(k, i) * np.einsum(
                "...i,...i->...", a[i], b[k - i]
            )
        out.append(total)
    return out


def _jet_scale(u: list[np.ndarray], v: list[np.ndarray], orders: int) -> list[np.ndarray]:
    out = []
    for k in range(orders + 1):
        total = np.zeros_like(v[0])
        for i in range(k + 1):
            total = total + math.comb(k, i) * u[i][..., None] * v[k - i]
        out.append(total)
    return out


def _jet_rsqrt(u: list[np.ndarray], orders: int) -> list[np.ndarray]:
    """Jet of ``f = u^(-1/2)`` from the jet of a positive scalar ``u``.

    In Taylor coefficients, ``u f' = -u' f / 2`` gives the recurrence
    ``k u_0 f_k = sum_{j=1..k} (j/2 - k) u_j f_(k-j)``."""
    taylor = [u[k] / math.factorial(k) for k in range(orders + 1)]
    f = [taylor[0] ** -0.5]
    for k in range(1, orders + 1):
        total = sum((j / 2 - k) * taylor[j] * f[k - j] for j in range(1, k + 1))
        f.append(total / (k * taylor[0]))
    return [f[k] * math.factorial(k) for k in range(orders + 1)]


def covariant_jets(jet: Sequence[np.ndarray], K: float, depth: int) -> list[np.ndarray]:
    """``[nabla T, ..., nabla^depth T]`` for ``T = gamma'`` from the sampled
    derivative jet ``[gamma, gamma', ..., gamma^(depth+1)]``.

    Each field is carried as its own derivative jet, and the connection
    ``nabla X = X' + K <X, gamma'> gamma`` of the sphere of curvature ``K``
    (``K = 0``: the plain derivative) acts on it through the Leibniz rule,
    losing one order per step.
    """
    field = list(jet[1:])
    fields = []
    for _ in range(depth):
        orders = len(field) - 2
        derivative = field[1:]
        if K:
            tangential = _jet_dot(field, jet[1:], orders)
            derivative = [
                d + K * e for d, e in zip(derivative, _jet_scale(tangential, jet, orders))
            ]
        field = derivative
        fields.append(field[0])
    return fields


def _projected_jet(
    curve_jet: list[np.ndarray], orders: int
) -> list[np.ndarray]:
    """Jet of the radial projection ``c / |c|`` from the jet of ``c``."""
    norm_sq = _jet_dot(curve_jet, curve_jet, orders)
    inv_norm = _jet_rsqrt(norm_sq, orders)
    return _jet_scale(inv_norm, curve_jet, orders)


def _energy_on_support(
    curve: TrigCurve,
    perturbation: BumpPerturbation,
    r: int,
    t: complex,
    panels: int,
) -> complex:
    """Order-``r`` energy of the projected curve ``gamma + t beta`` over the
    support, by ``panels`` equal 24-node Gauss-Legendre panels evaluated as
    one array.  Every step is analytic in ``t``, so a complex ``t`` carries
    the derivative in the imaginary part."""
    lo, hi = perturbation.support
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (hi - lo) / panels
    s = (lo + half * np.arange(1, 2 * panels, 2))[:, None] + half * nodes
    beta_jet = perturbation.jet(s, r)
    jet = [curve.derivative(l)(s) + t * beta_jet[l] for l in range(r + 1)]
    top = covariant_jets(_projected_jet(jet, r), 1, r - 1)[-1]
    density = np.einsum("...i,...i->...", top, top)
    return half * np.sum(density @ weights)


def first_variation(
    curve: TrigCurve, r: int, perturbation: BumpPerturbation
) -> float:
    """d/dt of the order-``r`` energy of the radially projected perturbed
    curve at t = 0, by the complex step ``Im E(ih) / h``.

    The complex step subtracts nothing, so ``h`` can sit far below any
    truncation error without cancellation.  Only the support of the
    perturbation is integrated: outside it the projected curve does not
    depend on ``t``.  The quadrature doubles its panel count from 8 up to
    512 and stops once two consecutive derivatives agree to ``QUAD_TOL``
    relative to ``1 + |value|``.
    """
    check_tension_order(r)
    h = 1e-30
    previous = math.inf
    for panels in (8, 16, 32, 64, 128, 256, 512):
        energy = _energy_on_support(curve, perturbation, r, 1j * h, panels)
        current = float(energy.imag) / h
        if abs(current - previous) <= QUAD_TOL * (1.0 + abs(current)):
            break
        previous = current
    return current


# -- the two-frequency family ------------------------------------------------

# Each sample is certified by an order-3 tension residual in 50-digit
# arithmetic, about 1.3 ms on a shared 2-core Xeon, and every row is kept:
# 10^5 samples take about 2 minutes, far past any resolution the CSV needs.
MAX_FAMILY_SAMPLES = 10**5


def solve_tri_hyperbola(samples: int) -> list[tuple[float, float, float, float]]:
    """Sweep ``y = b^2`` over (0, 4], solve the family quartic for
    ``x = a^2 > 0`` on the admissible branch, recover the weights, and keep
    the entries whose weights lie strictly inside (0, 1).

    Entries come back sorted by ``y`` as ``(x, y, alpha_1^2, alpha_3^2)``.
    """
    if not 1 <= samples <= MAX_FAMILY_SAMPLES:
        raise ValueError(
            f"samples must be between 1 and {MAX_FAMILY_SAMPLES}, got {samples}"
        )
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


def solve_lambda(x: float, y: float, a1sq: float, a3sq: float) -> float:
    """Multiplier balancing the first stationarity equation of the family."""
    return -(
        x**3 * (1.0 - 2.0 * a1sq) - 2.0 * x**2 + 3.0 * x - 2.0 * x * y**2 * a3sq
    )


def lambda_system_residual(
    x: float, y: float, a1sq: float, a3sq: float, lam: float
) -> tuple[float, float, float, float]:
    """Residuals of the four stationarity/constraint equations of the
    two-frequency ansatz: two multiplier equations, arclength, unit sphere."""
    if x <= 0 or y <= 0:
        raise ValueError("both squared frequencies must be positive")
    r1 = x**3 * (1.0 - 2.0 * a1sq) - 2.0 * x**2 + 3.0 * x - 2.0 * x * y**2 * a3sq + lam
    r2 = y**3 * (1.0 - 2.0 * a3sq) - 2.0 * y**2 + 3.0 * y - 2.0 * y * x**2 * a1sq + lam
    r3 = x * a1sq + y * a3sq - 1.0
    r4 = a1sq + a3sq - 1.0
    return (r1, r2, r3, r4)


def family_quartic_residual(x: float, y: float) -> float:
    return abs(x * x + (3.0 * y - 4.0) * x + (y * y - 4.0 * y + 3.0))


@dataclass(frozen=True)
class FamilySample:
    y: float
    x: float
    alpha1sq: float
    alpha3sq: float
    tau3_residual: float
    lagrange_multiplier: float
    quartic_residual: float
    lambda_residual: float

    def csv_row(self) -> str:
        return (
            f"{self.y!r},{self.x!r},{self.alpha1sq!r},{self.alpha3sq!r},"
            f"{self.tau3_residual!r},{self.lagrange_multiplier!r}"
        )


def tri_hyperbola_family(samples: int) -> list[FamilySample]:
    """Family sweep with per-sample certification: tension-field residual,
    quartic residual and the multiplier back-substitution defect."""
    out = []
    for x, y, a1sq, a3sq in solve_tri_hyperbola(samples):
        curve = TrigCurve(((x, a1sq), (y, a3sq)))
        lam = solve_lambda(x, y, a1sq, a3sq)
        res = lambda_system_residual(x, y, a1sq, a3sq, lam)
        out.append(
            FamilySample(
                y=y,
                x=x,
                alpha1sq=a1sq,
                alpha3sq=a3sq,
                tau3_residual=intrinsic_tau_residual(curve, 3),
                lagrange_multiplier=lam,
                quartic_residual=family_quartic_residual(x, y),
                lambda_residual=max(abs(v) for v in res),
            )
        )
    return out
