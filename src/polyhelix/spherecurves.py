"""Closed-form trigonometric curves on round spheres.

A curve here is a sum of planar rotations with distinct frequencies plus an
optional constant direction,

    gamma(s) = sum_i alpha_i (cos(a_i s), sin(a_i s)) (+) alpha_0 e_0,

living on the unit sphere when the squared weights sum to one.  Every
derivative of the ansatz is again trigonometric, and every scalar product
``<gamma^(p), gamma^(q)>`` is independent of ``s``:

    <gamma^(p), gamma^(q)> = sum_i alpha_i^2 a_i^(p+q) cos((p-q) pi/2),

plus ``alpha_0^2`` when ``p = q = 0``: a phase times one moment
``sum_i alpha_i^2 (a_i^2)^l``, ``l = (p+q)/2``, so a jet to order J needs
J + 1 moments.  That single fact powers everything in this module: covariant
derivatives along the curve become constant-coefficient recursions against
the (exact) Gram matrix of the derivative jet, so the tension field of every
order is an exact combination of that jet, and geodesic curvatures come out
of Gram-Schmidt with no sampling error.  The same tension field serves every
check: its exact Gram norm (:func:`intrinsic_tau_residual`), its
coefficients rounded to floats and summed against the sampled jet
(:func:`equation_residual`), and for the order-3 two-frequency family the
multiplier and the block components (:func:`family_sample`).  The last field
built is kept, so checks that read one (curve, order) in turn build it once.

The covariant algebra is exact.  Every curve parameter is an ``int``, a
``Fraction`` (a float is read as the binary fraction it stores) or, for the
two-frequency family, an element of a quadratic field Q(sqrt d)
(:class:`QuadraticSurd`), so the Gram matrix, the tension field and every
squared norm carry no rounding error: a matched-order tension field is exactly
zero, and only the reported floats are rounded.  The tension field is
assembled by :func:`polyhelix.frenet.tension_field`; :func:`covariant_jets`
applies the same connection to sampled derivative jets, here and in the
odelab monitors.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .frenet import check_tension_order, tension_field

PERIOD_SAMPLES = 256      # points per fastest-block period of the sampled tension
QUAD_TOL = 1e-10          # agreement of consecutive first-variation levels
QUAD_LEVELS = (8, 16, 32, 64, 128, 256, 512)  # panel counts of the doubling quadrature
GAUSS_NODES = 24          # nodes of each quadrature panel
MAX_PASS_NODES = QUAD_LEVELS[-1] * GAUSS_NODES  # nodes one quadrature pass may hold
BUMP_STARTS = (1.0, 6.0)  # range of random_bump support starts
BUMP_WIDTHS = (2.0, 4.0)  # range of random_bump support widths

# Certification tolerance of each closed-form sphere-curve check; criteria
# #4-#6 of the acceptance registry and the ``verify`` subcommand read the
# same table.
TOLERANCES = {
    "equation_residual": 1e-12,
    "tension_residual": 1e-9,
    "fourth_order_residual": 1e-10,
    "quartic_residual": 1e-12,
    "multiplier_residual": 1e-10,
}

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


class QuadraticSurd:
    """An exact element ``(a + b sqrt(d)) / c`` of the real quadratic field
    Q(sqrt d): integers ``a``, ``b`` and ``c > 0`` with no common factor, and
    a radicand ``d > 0`` that is not a square, so ``sqrt(d)`` is irrational
    and the element is zero exactly when ``a = b = 0``.

    ``+``, ``-``, ``*`` and ``/`` are exact against ``int``, ``Fraction``,
    elements of the same field and rational elements of any; anything else,
    a numpy array among them, gets ``NotImplemented``, so an object array
    broadcasts the element over its entries.  ``float`` rounds correctly."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        # the denominator first: about a quarter faster than (a, b, c) on the
        # 20 000-bit entries of a long parameter's high powers
        g = math.gcd(c, a, b)
        if c < 0:
            g = -g
        if g != 1:
            a, b, c = a // g, b // g, c // g
        self.a, self.b, self.c, self.d = a, b, c, d

    def _parts(self, other) -> tuple[int, int, int] | None:
        """``other`` as ``(a, b, c)`` over this field's ``d``; an ``int``
        builds no ``Fraction``."""
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, QuadraticSurd):
            # a rational element (b = 0) lies in every field
            return (other.a, other.b, other.c) if other.d == self.d or not other.b else None
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def _inverse(self, a: int, b: int, c: int) -> "QuadraticSurd":
        """``c / (a + b sqrt(d))``, through the conjugate: the norm
        ``a^2 - d b^2`` is zero only for ``a = b = 0``."""
        norm = a * a - self.d * b * b
        if not norm:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        return QuadraticSurd(c * a, -c * b, norm, self.d)

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, c = parts
        return QuadraticSurd(self.a * c + a * self.c, self.b * c + b * self.c, self.c * c, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a, b, c = parts
        return QuadraticSurd(
            self.a * a + self.d * self.b * b, self.a * b + self.b * a, self.c * c, self.d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return self * self._inverse(*parts)

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self._inverse(self.a, self.b, self.c) * other

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __float__(self) -> float:
        a, b, c = self.a, self.b, self.c
        if not b:
            return a / c
        # sqrt(d) is irrational, so b sqrt(d) 2^k lies strictly between two
        # integers, the value strictly between two rationals, and it is never
        # a tie between two doubles: refine until both ends round alike
        k = 64
        while True:
            root = math.isqrt(b * b * self.d << 2 * k)
            low = (a << k) + (root if b > 0 else -root - 1)
            lo, hi = low / (c << k), (low + 1) / (c << k)
            if lo == hi:
                return lo
            k *= 2

    def __eq__(self, other) -> bool:
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return (self.a, self.b, self.c) == parts

    def __hash__(self) -> int:
        if not self.b:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.a}, {self.b}, {self.c}, {self.d})"


Scalar = Union[int, float, Fraction, QuadraticSurd]


def _exact(value: Scalar) -> Scalar:
    """A float as the ``Fraction`` of the binary value it stores; an exact
    scalar as it is."""
    return Fraction(value) if isinstance(value, float) else value


@dataclass(frozen=True)
class TrigCurve:
    """A trigonometric sphere curve.

    ``blocks`` holds ``(squared frequency, squared weight)`` pairs.  Each
    parameter is kept exact: an ``int``, a ``Fraction`` or a
    :class:`QuadraticSurd` as given, and a float as the ``Fraction`` of the
    binary value it stores, so the covariant algebra reads the intended curve
    exactly, not a rounded copy of it.
    """

    blocks: tuple[tuple[Scalar, Scalar], ...]
    constant_weight: Scalar = 0

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one rotating block")
        blocks = tuple((_exact(x), _exact(w)) for x, w in self.blocks)
        constant_weight = _exact(self.constant_weight)
        for x, w in blocks:
            if not 0 < float(x) < math.inf:
                raise ValueError("squared frequencies must be positive and finite")
            if not 0 < float(w) <= 1:
                raise ValueError("squared weights must lie in (0, 1]")
        if not 0 <= float(constant_weight) < 1:
            raise ValueError("constant weight must lie in [0, 1)")
        freqs = [x for x, _ in blocks]
        if any(x in freqs[i + 1:] for i, x in enumerate(freqs)):
            raise ValueError("frequencies must be pairwise distinct")
        # |gamma|^2, summed exactly, must round to the float 1: the rule
        # is_arclength applies to |gamma'|^2
        total = float(sum(w for _, w in blocks) + constant_weight)
        if total != 1.0:
            raise ValueError(f"squared weights sum to {total}, not 1")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "constant_weight", constant_weight)

    # -- structure -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return 2 * len(self.blocks) + (1 if float(self.constant_weight) > 0 else 0)

    def moment(self, l: int) -> float:
        """``sum_i alpha_i^2 (a_i^2)^l``, i.e. ``|gamma^(l)|^2`` for l >= 1."""
        return math.fsum(float(w) * float(x) ** l for x, w in self.blocks)

    def is_arclength(self) -> bool:
        """Whether ``|gamma'|^2 = sum_i alpha_i^2 a_i^2``, summed exactly in
        the field of the curve's parameters, rounds to the float 1: a speed
        defect below half an ulp of 1 cannot show in a reported float."""
        return float(sum(w * x for x, w in self.blocks)) == 1.0

    def period(self) -> float:
        """Period of the slowest rotating block."""
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


# -- named curves ------------------------------------------------------------

def planar_circle(r: int) -> TrigCurve:
    """The r-planar circle, r-harmonic on the unit sphere: squared frequency
    r and weight 1/r on one rotating block, the rest on a constant axis, so
    k1^2 = r - 1.  r = 1 is the great circle."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise ValueError(f"planar circle order must be an integer >= 1, got {r!r}")
    return TrigCurve(((r, Fraction(1, r)),), 1 - Fraction(1, r))


def biharmonic_two_freq(
    a2: Scalar = Fraction(3, 2), b2: Scalar = Fraction(1, 2)
) -> TrigCurve:
    """Two equally weighted blocks with squared frequencies summing to 2."""
    return TrigCurve(((a2, Fraction(1, 2)), (b2, Fraction(1, 2))))


def tri_hyperbola_curve(y: int | float | Fraction) -> TrigCurve:
    """Two-frequency curve on the admissible branch of the quartic

        x^2 + (3y - 4) x + (y^2 - 4y + 3) = 0,   x = a^2, y = b^2,

    with weights solved from the unit-sphere and arclength conditions:
    ``alpha_1^2 = (1 - y)/(x - y)``, which lies in (1/3, 2/3).  Admissible
    for y in (0, 3), y != 1.

    The curve is exact: ``y`` is read as a ``Fraction`` ``n/m`` (a float as
    the binary value it stores), and ``x = (4 - 3y + sqrt(D))/2`` with
    ``D = 5y^2 - 8y + 4 = d/m^2`` lies in Q(sqrt d), or in Q when ``d`` is a
    square.
    """
    if not 0 < y < 3:
        raise ValueError("admissible branch needs y in (0, 3)")
    y = Fraction(y)
    n, m = y.numerator, y.denominator
    d = 5 * n * n - 8 * n * m + 4 * m * m
    root = math.isqrt(d)
    if root * root == d:
        x = (4 - 3 * y + Fraction(root, m)) / 2
        if x == y:
            raise ValueError("x = y is the geodesic, excluded")
        a1sq = (1 - y) / (x - y)
    else:
        # x = y (at y = 1) and 5y = 3 both need a square d
        x = (4 - 3 * y + QuadraticSurd(0, 1, m, d)) / 2
        a1sq = (x + 4 * y - 4) / (5 * y - 3)
    return TrigCurve(((x, a1sq), (y, 1 - a1sq)))


# -- arclength check ---------------------------------------------------------

def _require_arclength(curve: TrigCurve) -> None:
    if not curve.is_arclength():
        raise ValueError(
            f"curve is not arclength parametrized (|gamma'|^2 = {curve.moment(1)})"
        )


# -- covariant algebra over the derivative jet -------------------------------

class _CovariantAlgebra:
    """Fields along the curve as constant coefficient vectors (object arrays
    of exact scalars) over the jet basis ``gamma, gamma', ..., gamma^(J)``
    with the exact Gram matrix, each entry a phase times one of the J + 1
    moments.  A moment is never a bare ``int``, so a quotient of two inner
    products stays exact.

    The sphere connection acts by ``X -> X' + <X, gamma'> gamma``; on jet
    coefficients that is an index shift plus the Gram column of ``gamma'``.
    """

    def __init__(self, curve: TrigCurve, max_order: int):
        self.size = max_order + 1
        terms = [w for _, w in curve.blocks]
        moments = [sum(terms, Fraction(0))]
        for _ in range(max_order):
            terms = [t * x for t, (x, _) in zip(terms, curve.blocks)]
            moments.append(sum(terms, Fraction(0)))
        self.gram = np.array(
            [
                [_C4[(p - q) % 4] * moments[(p + q) // 2] for q in range(self.size)]
                for p in range(self.size)
            ],
            dtype=object,
        )
        self.gram[0, 0] += curve.constant_weight

    def tangent(self) -> np.ndarray:
        c = np.zeros(self.size, dtype=object)
        c[1] = 1
        return c

    def inner(self, c: Sequence, d: Sequence) -> Scalar:
        total = 0
        for p, cp in enumerate(c):
            if cp:
                row = self.gram[p]
                for q, dq in enumerate(d):
                    if dq:
                        total += cp * row[q] * dq
        return total

    def norm(self, c: Sequence) -> float:
        return math.sqrt(float(self.inner(c, c)))

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


@functools.lru_cache(maxsize=1)
def _tension(curve: TrigCurve, r: int) -> tuple[_CovariantAlgebra, np.ndarray]:
    """The algebra of the curve's jet and the exact jet coefficients of its
    order-``r`` tension field with unit ambient curvature, assembled from
    covariant derivatives of the tangent.

    The last result is kept, so the checks that read one (curve, order) in
    turn share one build.  Every caller shares the returned algebra and
    arrays: no caller may change them."""
    _require_arclength(curve)
    check_tension_order(r)
    alg = _CovariantAlgebra(curve, 2 * r)
    derivs = alg.chain(2 * r - 1)
    return alg, tension_field(derivs, r, 1, lambda v: alg.inner(derivs[0], v))


def intrinsic_tau_residual(curve: TrigCurve, r: int) -> float:
    """Norm of the order-``r`` tension field, from the exact Gram matrix.

    The coefficients are s-independent for this ansatz, so the returned value
    is the sup over any interval.
    """
    alg, tau = _tension(curve, r)
    return alg.norm(tau)


def tension_at(curve: TrigCurve, r: int, s) -> np.ndarray:
    """The order-``r`` tension field at ``s`` in ambient coordinates: the
    exact coefficients rounded to floats, summed against the closed-form
    derivatives, highest derivative first."""
    coefficients = [float(c) for c in _tension(curve, r)[1]]
    total = np.zeros(np.shape(s) + (curve.dimension,))
    for p in reversed(range(len(coefficients))):
        if coefficients[p]:
            total += coefficients[p] * curve.derivative(p)(s)
    return total


def equation_residual(curve: TrigCurve, r: int) -> float:
    """Sup norm of :func:`tension_at` over one period of the fastest block,
    sampled at :data:`PERIOD_SAMPLES` points.

    ``|tau_r(s)|`` does not depend on ``s`` for this ansatz, so the window
    changes only the rounding.  This one keeps every angle ``a_i s`` within
    ``2 pi``: over a slow block's period the derivative phase ``l pi/2``
    would be lost against the fast block's huge angles.
    """
    fastest = max(float(x) for x, _ in curve.blocks)
    s = np.linspace(0.0, 2.0 * math.pi / math.sqrt(fastest), PERIOD_SAMPLES, endpoint=False)
    return float(np.linalg.norm(tension_at(curve, r, s), axis=-1).max())


def geodesic_curvatures(curve: TrigCurve, count: int) -> tuple[float, ...]:
    """First ``count`` geodesic curvatures via Gram-Schmidt on the covariant
    derivatives of the tangent.

    The frame recursion ``k_j F_{j+1} = nabla F_j + k_{j-1} F_{j-1}`` runs on
    the unnormalized fields ``U_1 = T``,
    ``U_{j+1} = nabla U_j + (|U_j|^2 / |U_{j-1}|^2) U_{j-1}``, with
    ``F_j = U_j / |U_j|``; so ``k_j^2 = |U_{j+1}|^2 / |U_j|^2`` is exact and
    each curvature takes one square root.  When ``U_{j+1}`` is zero the curve
    does not fill ``count + 1`` frames and a :class:`FrameDegeneracyError` is
    raised carrying the curvatures found so far.
    """
    _require_arclength(curve)
    capacity = curve.dimension - 1
    if not 1 <= count <= capacity:
        raise ValueError(f"count must be within 1..{capacity} for this curve")
    alg = _CovariantAlgebra(curve, count + 1)
    fields = [alg.tangent()]
    squares = [alg.inner(fields[0], fields[0])]
    curvatures: list[float] = []
    for j in range(count):
        field = alg.nabla(fields[j])
        if j >= 1:
            field = field + squares[j] / squares[j - 1] * fields[j - 1]
        square = alg.inner(field, field)
        if not square:
            raise FrameDegeneracyError(tuple(curvatures))
        curvatures.append(math.sqrt(float(square / squares[j])))
        fields.append(field)
        squares.append(square)
    return tuple(curvatures)


# -- first variation ---------------------------------------------------------

@dataclass(frozen=True)
class BumpPerturbation:
    """Compactly supported smooth perturbation ``bump(s) * direction``.

    The profile is ``sin^(2q)(pi (s - start)/width)`` on its support; its
    derivatives are evaluated through the exact cosine expansion

        sin^(2q) t = 4^-q C(2q, q) + 2 4^-q sum_j (-1)^j C(2q, q-j) cos(2jt),

    so the jet carries no finite-difference error.

    :func:`first_variation` evaluates a group of bumps of one sharpness as
    one stacked bump whose ``start``, ``width`` and ``direction`` are arrays
    with one bump per leading index, broadcasting against ``s``.
    """

    start: float
    width: float
    direction: tuple[float, ...]
    sharpness: int = 4

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
                total += _scaled_power(freq, d, coeff) * np.cos(angle)
            jet.append(np.where(inside, total, 0.0))
        return jet

    def jet(self, s: np.ndarray, orders: int) -> list[np.ndarray]:
        direction = np.asarray(self.direction, dtype=float)
        return [
            profile[..., None] * direction
            for profile in self.profile_jet(s, orders)
        ]


def _scaled_power(base, exponent: int, factor: float):
    """``factor * base ** exponent`` entry by entry in Python floats.

    numpy's vectorized power rounds differently from Python's, so this keeps
    a stacked bump's jet bit for bit equal to the jets of its bumps alone."""
    return np.reshape(
        [factor * b**exponent for b in np.ravel(base).tolist()], np.shape(base)
    )


def random_bump(dimension: int, rng: random.Random) -> BumpPerturbation:
    """A bump with a uniformly random unit direction (normalized Gaussian
    draws) and a uniform start and width in :data:`BUMP_STARTS` and
    :data:`BUMP_WIDTHS`, drawn in that order.  The standard library's
    generator: numpy has already loaded it, and ``numpy.random`` is not."""
    direction = [rng.gauss(0.0, 1.0) for _ in range(dimension)]
    norm = math.hypot(*direction)
    return BumpPerturbation(
        start=rng.uniform(*BUMP_STARTS),
        width=rng.uniform(*BUMP_WIDTHS),
        direction=tuple(x / norm for x in direction),
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


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre panel rule, built on first use."""
    return np.polynomial.legendre.leggauss(GAUSS_NODES)


def _energy_pass(
    curve: TrigCurve,
    bumps: Sequence[BumpPerturbation],
    r: int,
    t: complex,
    panels: int,
) -> list[complex]:
    """Order-``r`` energy of the projected curve ``gamma + t beta`` over the
    support of each bump, by ``panels`` equal :data:`GAUSS_NODES`-node
    Gauss-Legendre panels.

    All bumps form one node array of shape (bumps, panels, nodes), evaluated
    in one pass; each bump's panels are then reduced as a lone bump's would
    be, so every energy is bit for bit the one its bump gives alone.  Every
    step is analytic in ``t``, so a complex ``t`` carries the derivative in
    the imaginary part."""
    nodes, weights = _gauss_rule()
    lo = np.array([bump.start for bump in bumps])[:, None]
    width = np.array([bump.width for bump in bumps])[:, None]
    stack = BumpPerturbation(
        start=lo[..., None],
        width=width[..., None],
        direction=np.array([bump.direction for bump in bumps])[:, None, None, :],
        sharpness=bumps[0].sharpness,
    )
    # the support's length as its ends give it, which may differ from width
    # in the last bit
    half = 0.5 * (lo + width - lo) / panels
    s = (lo + half * np.arange(1, 2 * panels, 2))[..., None] + half[..., None] * nodes
    beta_jet = stack.jet(s, r)
    jet = [curve.derivative(l)(s) + t * beta_jet[l] for l in range(r + 1)]
    top = covariant_jets(_projected_jet(jet, r), 1, r - 1)[-1]
    density = np.einsum("...i,...i->...", top, top)
    return [scale * np.sum(rows @ weights) for scale, rows in zip(half[:, 0], density)]


def first_variation(
    curve: TrigCurve, r: int, perturbations: Sequence[BumpPerturbation]
) -> list[float]:
    """d/dt of the order-``r`` energy of the radially projected perturbed
    curve at t = 0, one value per perturbation, by the complex step
    ``Im E(ih) / h``.

    The complex step subtracts nothing, so ``h`` can sit far below any
    truncation error without cancellation.  Only the support of each
    perturbation is integrated: outside it the projected curve does not
    depend on ``t``.  Each bump's quadrature doubles its panel count from 8
    up to 512 and stops once two consecutive derivatives agree to
    ``QUAD_TOL`` relative to ``1 + |value|``.  The bumps are evaluated
    together, one pass per level: every bump at 8 panels, every bump at 16,
    and each later level only for the bumps still short of agreement.  A
    pass holds at most :data:`MAX_PASS_NODES` nodes; further bumps go to the
    next pass.  Each value is bit for bit the one the bump gives alone.

    The energy density carries derivatives up to order ``r``, so the boundary
    terms vanish only when the bump's derivatives up to ``r - 1`` vanish at
    its support ends; a ``sin^(2q)`` profile's vanish up to ``2q - 1``, so
    ``r`` may be at most twice the sharpness ``q``.  The bumps of one call
    share one sharpness.
    """
    check_tension_order(r)
    for bump in perturbations:
        if r > 2 * bump.sharpness:
            raise ValueError(
                f"order {r} needs a bump of sharpness at least {(r + 1) // 2}, "
                f"got sharpness {bump.sharpness}"
            )
    sharpness = sorted({bump.sharpness for bump in perturbations})
    if len(sharpness) > 1:
        raise ValueError(f"bumps of one call must share a sharpness, got {sharpness}")
    h = 1e-30
    values: list[list[float]] = [[] for _ in perturbations]
    pending = list(range(len(perturbations)))
    while pending:
        panels = QUAD_LEVELS[len(values[pending[0]])]
        per_pass = MAX_PASS_NODES // (GAUSS_NODES * panels)
        for first in range(0, len(pending), per_pass):
            chunk = pending[first : first + per_pass]
            energies = _energy_pass(
                curve, [perturbations[b] for b in chunk], r, 1j * h, panels
            )
            for b, energy in zip(chunk, energies):
                values[b].append(float(energy.imag) / h)
        # a bump stops after the last level or once its last two levels
        # agree; written so that a NaN never agrees
        pending = [
            b
            for b in pending
            if len(values[b]) < 2
            or (
                len(values[b]) < len(QUAD_LEVELS)
                and not abs(values[b][-1] - values[b][-2])
                <= QUAD_TOL * (1.0 + abs(values[b][-1]))
            )
        ]
    return [v[-1] for v in values]


# -- the two-frequency family ------------------------------------------------

# Each admitted sample is certified by an exact order-3 tension field, about
# 1.1 ms of CPU on a shared 2-core Xeon (10^4 samples took 7.9 s; a quarter
# of the swept y fall outside the family), and every row is kept: 10^5
# samples take about ten times as long, far past any resolution the CSV
# needs.
MAX_FAMILY_SAMPLES = 10**5


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

    CSV_HEADER = "y,x,alpha1sq,alpha3sq,tau3_residual,lambda"

    def csv_row(self) -> str:
        return (
            f"{self.y!r},{self.x!r},{self.alpha1sq!r},{self.alpha3sq!r},"
            f"{self.tau3_residual!r},{self.lagrange_multiplier!r}"
        )

    def to_json_dict(self) -> dict:
        row = asdict(self)
        row["lambda"] = row.pop("lagrange_multiplier")
        return row


def family_sample(curve: TrigCurve) -> FamilySample:
    """Certify one family curve ``((x, alpha_1^2), (y, alpha_3^2))`` from its
    exact tension field ``tau_3 = sum_p c_p gamma^(p)``: its norm, the
    multiplier ``-c_0``, and as multiplier residual the largest of each
    block's position component ``sum_(p even) c_p (-x_i)^(p/2)`` (from the
    rounded coefficients) and of the float arclength and sphere defects."""
    alg, tau = _tension(curve, 3)
    norm = alg.norm(tau)
    coefficients = [float(c) for c in tau]
    (x, a1sq), (y, a3sq) = ((float(f), float(w)) for f, w in curve.blocks)
    defects = [x * a1sq + y * a3sq - 1.0, a1sq + a3sq - 1.0]
    for t in (x, y):
        total = 0.0
        for p in reversed(range(0, len(coefficients), 2)):
            total += coefficients[p] * (-t) ** (p // 2)
        defects.append(total)
    return FamilySample(
        y=y,
        x=x,
        alpha1sq=a1sq,
        alpha3sq=a3sq,
        tau3_residual=norm,
        lagrange_multiplier=float(-tau[0]),
        quartic_residual=family_quartic_residual(x, y),
        lambda_residual=max(abs(v) for v in defects),
    )


def tri_hyperbola_family(samples: int) -> list[FamilySample]:
    """Sweep ``y = b^2 = 4 i / samples`` for i = 1 .. samples, build each
    family member with :func:`tri_hyperbola_curve`, skip the ``y`` it
    rejects and certify the rest (:func:`family_sample`), sorted by ``y``."""
    if not 1 <= samples <= MAX_FAMILY_SAMPLES:
        raise ValueError(
            f"samples must be between 1 and {MAX_FAMILY_SAMPLES}, got {samples}"
        )
    rows = []
    for i in range(1, samples + 1):
        try:
            curve = tri_hyperbola_curve(4.0 * i / samples)
        except ValueError:
            continue
        rows.append(family_sample(curve))
    return rows
