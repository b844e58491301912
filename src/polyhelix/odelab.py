"""Numerical laboratory for curves with prescribed, possibly non-constant
curvature functions.

Three instruments live here:

* a fixed-step Frenet-frame integrator for Euclidean ambient space, with
  step-halving error estimation and periodic frame re-orthonormalization;
* conservation-law monitors that test, on sampled position data alone,
  whether the scalar first integrals of the order-three and order-four
  variational equations stay constant along a curve (their covariant
  derivatives come from :func:`polyhelix.spherecurves.covariant_jets`);
* desk-scale scans for the inverse-power curvature profiles conjectured to
  produce higher-order harmonic curves, combining exact computations of the
  flat tension field with finite-difference estimates from integrated
  trajectories.

The exact side writes a profile curvature ``c/s^p`` as the polynomial
``c u^p`` in the inverse arclength ``u = 1/s`` of :mod:`polyhelix.ratpoly`
(``d/ds = -u^2 d/du``) and runs it through the one Frenet recursion,
:func:`polyhelix.frenet.frenet_derivative`.  Each conservation law is written
once, as a row of :data:`CONSERVATION_LAWS`; the sampled monitors and the
exact scans both read it.

Finite differencing policy: every derivative is taken directly from the
position samples in a single Fornberg-weight stencil application on an
evenly strided subgrid.  Cascading difference passes would multiply the
roundoff floor by 1/h^2 per pass; striding to a coarser spacing instead
keeps both truncation and roundoff below the monitor tolerances.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .frenet import FrenetExpansion, SpaceForm, frenet_derivative, tangent
from .ratpoly import INVERSE_ARCLENGTH, CurvaturePolynomial as Poly, Monomial
from .spherecurves import covariant_jets

MIN_SINGULAR_START = 0.1   # 1/s profiles cannot be integrated from s = 0
FRAME_DEFECT_LIMIT = 1e-10  # re-orthonormalize above this Gram defect
REORTHO_INTERVAL = 100
# An integration stores (steps + 1) x (m + 1) x d frame values; 2^25 float64s
# are 256 MiB, and at about 30 us per RK4 step (run at h and at h/2) the
# integration already takes minutes before reaching it.
MAX_FRAME_VALUES = 2**25
# Each scan point integrates its own trajectory (about 0.3 s at the default
# span and step), so 1000 points are already several minutes of work.
MAX_SCAN_POINTS = 1000

# Once-integrated conservation law of each order, as the terms
# c * d^k/ds^k |nabla^l T|^2 listed by (c, k, l); the law says the sum of the
# terms is constant along a solution.
CONSERVATION_LAWS = {
    3: ((1, 2, 1), (-1, 0, 2)),
    4: ((1, 4, 1), (-2, 2, 2), (1, 0, 3)),
}


# -- finite differences ------------------------------------------------------

def fornberg_weights(z: float, x: Sequence[float], m: int) -> np.ndarray:
    """Weights of finite-difference approximations to derivatives 0..m at
    point ``z`` from arbitrary nodes ``x`` (Fornberg's recursion)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = np.zeros((n, m + 1))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w


def _central_halfwidth(order: int) -> int:
    # half-width giving at least 8th-order accuracy for a central stencil
    return (order + 7 + 1) // 2


def central_difference(
    values: np.ndarray, h: float, order: int
) -> tuple[slice, np.ndarray]:
    """Single-stencil central difference of uniformly spaced samples.

    Returns the interior index window and the derivative values on it.
    """
    if order == 0:
        return slice(0, len(values)), np.asarray(values, dtype=float)
    half = _central_halfwidth(order)
    npts = 2 * half + 1
    n = len(values)
    if n < npts + 2:
        raise ValueError(
            f"need at least {npts + 2} samples for an order-{order} stencil"
        )
    offsets = np.arange(-half, half + 1, dtype=float)
    weights = fornberg_weights(0.0, offsets, order)[:, order] / h**order
    out = np.zeros((n - 2 * half,) + np.shape(values)[1:])
    for k, w in enumerate(weights):
        if w:
            out += w * values[k : n - 2 * half + k]
    return slice(half, n - half), out


def spectral_derivative(
    values: np.ndarray, period: float, order: int
) -> np.ndarray:
    """Derivative of periodically sampled data (endpoint excluded) by FFT.

    Bins whose magnitude sits at the roundoff floor are zeroed first: the
    multiplier (i w)^order amplifies them by (n/2)^order, which would
    otherwise drown high-order derivatives of band-limited data in noise.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    freqs = 2.0j * math.pi * np.fft.fftfreq(n, d=period / n)
    spectrum = np.fft.fft(values, axis=0)
    magnitude = np.abs(spectrum)
    while magnitude.ndim > 1:
        magnitude = magnitude.max(axis=-1)
    spectrum[magnitude < 1e-13 * magnitude.max()] = 0.0
    shaped = freqs**order
    spectrum = spectrum * shaped.reshape((n,) + (1,) * (values.ndim - 1))
    return np.real(np.fft.ifft(spectrum, axis=0))


# -- polynomials in the inverse arclength ------------------------------------

def _u_terms(poly: Poly) -> list[tuple[int, Fraction]]:
    """``(e, c)`` for each term ``c u^e``, lowest power of ``s`` first."""
    return sorted(((m.exponent(INVERSE_ARCLENGTH), c) for m, c in poly.terms()), reverse=True)


def _evaluate(poly: Poly, s: np.ndarray) -> np.ndarray:
    """Values of a polynomial in ``u = 1/s`` on an arclength grid, summed as
    ``c * s^(-e)`` in ascending power of ``s``."""
    total = np.zeros_like(s)
    for e, coeff in _u_terms(poly):
        total = total + float(coeff) * s ** float(-e)
    return total


def _leading(poly: Poly) -> tuple[int, float]:
    """Dominant term as s -> infinity, ``(power of s, coefficient)``."""
    if poly.is_zero():
        return (0, 0.0)
    e, coeff = _u_terms(poly)[-1]
    return (-e, float(coeff))


# -- curvature profiles ------------------------------------------------------

_PROFILE_RE = re.compile(
    r"^\s*k(?P<index>\d+)\s*=\s*(?P<coeff>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"\s*(?:/\s*s(?:\^(?P<power>[12]))?)?\s*$"
)


@dataclass(frozen=True)
class ProfileTerm:
    """One curvature function ``coefficient / s^power`` (power 0, 1 or 2)."""

    coefficient: float
    power: int = 0

    def __post_init__(self):
        if self.power not in (0, 1, 2):
            raise ValueError("supported powers are 0 (constant), 1 and 2")
        if not math.isfinite(self.coefficient):
            raise ValueError(
                f"curvature coefficient must be finite, got {self.coefficient}"
            )

    def value(self, s):
        return self.coefficient / np.asarray(s, dtype=float) ** self.power

    def poly(self) -> Poly:
        """The exact curvature ``coefficient * u^power``, ``u = 1/s``."""
        mono = Monomial([(INVERSE_ARCLENGTH, self.power)])
        return Poly({mono: Fraction(self.coefficient)})

    def render(self) -> str:
        if self.power == 0:
            return f"{self.coefficient:g}"
        suffix = "/s" if self.power == 1 else "/s^2"
        return f"{self.coefficient:g}{suffix}"


@dataclass(frozen=True)
class CurvatureProfile:
    """Ordered curvature functions ``k_1 .. k_m``."""

    terms: tuple[ProfileTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("profile needs at least one curvature function")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def count(self) -> int:
        return len(self.terms)

    @property
    def has_pole(self) -> bool:
        return any(term.power > 0 for term in self.terms)

    def values(self, s) -> np.ndarray:
        return np.stack([term.value(s) for term in self.terms])

    def check_span(self, span: tuple[float, float]) -> None:
        s0, s1 = span
        if not s1 > s0:
            raise ValueError("span must be increasing")
        if self.has_pole and s0 < MIN_SINGULAR_START:
            raise ValueError(
                f"singular profile: span must start at s >= {MIN_SINGULAR_START}"
            )

    def render(self) -> str:
        return ",".join(
            f"k{i + 1}={term.render()}" for i, term in enumerate(self.terms)
        )


def parse_profile(text: str) -> CurvatureProfile:
    """Parse comma-separated assignments like ``"k1=1/s,k2=2/s"`` or
    ``"k1=0.8,k2=0.5"``; indices must run contiguously from 1."""
    entries: dict[int, ProfileTerm] = {}
    for chunk in text.split(","):
        match = _PROFILE_RE.match(chunk)
        if match is None:
            raise ValueError(f"cannot parse curvature assignment {chunk!r}")
        index = int(match.group("index"))
        if index in entries:
            raise ValueError(f"duplicate curvature index k{index}")
        power = 0
        if chunk.count("/"):
            power = int(match.group("power") or 1)
        entries[index] = ProfileTerm(float(match.group("coeff")), power)
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("curvature indices must run k1, k2, ... contiguously")
    return CurvatureProfile(tuple(entries[i] for i in sorted(entries)))


def inverse_power_profile(
    coefficients: Sequence[float], power: int
) -> CurvatureProfile:
    return CurvatureProfile(
        tuple(ProfileTerm(float(c), power) for c in coefficients)
    )


# -- sampled curves ----------------------------------------------------------

@dataclass
class CurveSamples:
    """Uniformly spaced samples of a curve, optionally with frame samples
    and a step-halving error estimate from the integrator."""

    h: float
    span: tuple[float, float]
    positions: np.ndarray
    frames: np.ndarray | None = None
    error_estimate: float | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2:
            raise ValueError("positions must be a (samples, dimension) array")
        expected = self.span[0] + self.h * (len(self.positions) - 1)
        if abs(expected - self.span[1]) > 1e-9 * max(1.0, abs(self.span[1])):
            raise ValueError("span, step and sample count are inconsistent")

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def s_values(self) -> np.ndarray:
        return self.span[0] + self.h * np.arange(len(self.positions))

    def gram_defect(self) -> float:
        """Max deviation of the stored frames from orthonormality."""
        if self.frames is None:
            raise ValueError("no frames stored")
        gram = np.einsum("nid,njd->nij", self.frames, self.frames)
        identity = np.eye(self.frames.shape[1])
        return float(np.abs(gram - identity).max())

    def is_closed(self, tol: float = 1e-6) -> bool:
        return bool(np.linalg.norm(self.positions[0] - self.positions[-1]) < tol)

    def to_csv(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
            return
        with open(path_or_file, "w", newline="") as handle:
            self._write_csv(handle)

    def _write_csv(self, handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["s"] + [f"x{i + 1}" for i in range(self.dimension)])
        for s, row in zip(self.s_values(), self.positions):
            writer.writerow([repr(float(s))] + [repr(float(v)) for v in row])

    @staticmethod
    def from_csv(path) -> "CurveSamples":
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if not header or header[0] != "s":
                raise ValueError("first CSV column must be s")
            rows = []
            for row in reader:
                if not row:
                    continue
                values = [float(v) for v in row]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"non-finite value on CSV line {reader.line_num}")
                rows.append(values)
        data = np.array(rows)
        if len(data) < 2:
            raise ValueError("need at least two samples")
        s = data[:, 0]
        steps = np.diff(s)
        h = float(steps[0])
        if np.abs(steps - h).max() > 1e-9 * max(1.0, abs(h)):
            raise ValueError("samples are not uniformly spaced")
        return CurveSamples(
            h=h, span=(float(s[0]), float(s[-1])), positions=data[:, 1:]
        )


def sample_trig_curve(curve, span: tuple[float, float], count: int) -> CurveSamples:
    """Closed-form samples of a trigonometric sphere curve (no integration
    error; the monitors then see only finite-difference noise)."""
    if count < 2:
        raise ValueError("need at least two samples")
    s0, s1 = span
    s = np.linspace(s0, s1, count)
    return CurveSamples(
        h=(s1 - s0) / (count - 1), span=span, positions=curve(s)
    )


# -- Frenet integration ------------------------------------------------------

def _frenet_matrix(profile: CurvatureProfile, s: float, size: int) -> np.ndarray:
    ks = [term.value(s) for term in profile.terms]
    matrix = np.zeros((size, size))
    for i, k in enumerate(ks):
        matrix[i, i + 1] = k
        matrix[i + 1, i] = -k
    return matrix


def _reorthonormalize(frame: np.ndarray) -> np.ndarray:
    # QR on the transpose, sign-fixed so the frame varies continuously
    q, r = np.linalg.qr(frame.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def _integrate_once(
    profile: CurvatureProfile,
    d: int,
    span: tuple[float, float],
    h: float,
    keep_frames: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    size = profile.count + 1
    steps = int(round((span[1] - span[0]) / h))
    position = np.zeros(d)
    frame = np.eye(size, d)
    positions = np.empty((steps + 1, d))
    positions[0] = position
    frames = np.empty((steps + 1, size, d)) if keep_frames else None
    if frames is not None:
        frames[0] = frame
    constant = not profile.has_pole
    matrix = _frenet_matrix(profile, max(span[0], 1.0), size) if constant else None

    s = span[0]
    for step in range(steps):
        def rates(sv: float, frm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            b = matrix if constant else _frenet_matrix(profile, sv, size)
            return frm[0], b @ frm

        p1, f1 = rates(s, frame)
        p2, f2 = rates(s + h / 2, frame + (h / 2) * f1)
        p3, f3 = rates(s + h / 2, frame + (h / 2) * f2)
        p4, f4 = rates(s + h, frame + h * f3)
        position = position + (h / 6) * (p1 + 2 * p2 + 2 * p3 + p4)
        frame = frame + (h / 6) * (f1 + 2 * f2 + 2 * f3 + f4)
        s = span[0] + (step + 1) * h
        if (step + 1) % REORTHO_INTERVAL == 0:
            gram = frame @ frame.T
            if np.abs(gram - np.eye(size)).max() > FRAME_DEFECT_LIMIT:
                frame = _reorthonormalize(frame)
        positions[step + 1] = position
        if frames is not None:
            frames[step + 1] = frame
    return positions, frames


def integrate_frenet(
    profile: CurvatureProfile,
    d: int,
    span: tuple[float, float],
    h: float,
) -> CurveSamples:
    """Integrate the position together with the Frenet frame equations
    by classical fourth-order Runge-Kutta at fixed step ``h``.

    A second pass at step h/2 yields a Richardson error estimate for the
    endpoint position, stored on the returned samples.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if d < profile.count + 1:
        raise ValueError(
            f"ambient dimension must be at least {profile.count + 1}"
        )
    profile.check_span(span)
    intervals = (span[1] - span[0]) / h
    values = (intervals + 1) * (profile.count + 1) * d
    if values > MAX_FRAME_VALUES:
        raise ValueError(
            f"step {h} over span {span[0]}:{span[1]} in dimension {d} would store "
            f"{values:.3g} frame values, more than {MAX_FRAME_VALUES}"
        )
    steps = int(round(intervals))
    if steps < 1:
        raise ValueError("span shorter than one step")
    actual_span = (span[0], span[0] + steps * h)

    positions, frames = _integrate_once(profile, d, actual_span, h, True)
    fine, _ = _integrate_once(profile, d, actual_span, h / 2, False)
    estimate = float(np.linalg.norm(positions[-1] - fine[-1]) / 15.0)
    return CurveSamples(
        h=h,
        span=actual_span,
        positions=positions,
        frames=frames,
        error_estimate=estimate,
    )


# -- conservation monitors ---------------------------------------------------

@dataclass
class DriftReport:
    """Constancy report for a conservation-law invariant along a curve."""

    order: int
    ambient_curvature: float
    drift: float
    empirical_constant: float
    interior_count: int
    stride: int
    spacing: float
    values: np.ndarray = field(repr=False)
    s_values: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "ambient_curvature": self.ambient_curvature,
            "drift": self.drift,
            "empirical_constant": self.empirical_constant,
            "interior_count": self.interior_count,
            "stride": self.stride,
            "spacing": self.spacing,
        }


def _choose_stride(n: int, h: float, target_spacing: float, min_points: int) -> int:
    stride = max(1, int(round(target_spacing / h)))
    while stride > 1 and n // stride < min_points:
        stride -= 1
    return stride


def _position_derivatives(
    samples: CurveSamples,
    depth: int,
    target_spacing: float,
    min_points: int | None = None,
) -> tuple[np.ndarray, list[np.ndarray], int, float]:
    """Derivatives 0..depth of the positions on a strided subgrid, each from
    one direct stencil, trimmed to the common interior window.

    ``min_points`` lowers the stride below the target spacing when the span
    is too short; callers that differentiate the returned scalars again must
    budget for the second stencil here.
    """
    n = len(samples)
    widest = _central_halfwidth(depth)
    if min_points is None:
        min_points = 2 * widest + 8
    stride = _choose_stride(n, samples.h, target_spacing, min_points)
    sub = samples.positions[::stride]
    spacing = samples.h * stride
    if len(sub) < min_points:
        raise ValueError(f"insufficient samples: need {min_points * stride} positions")
    derivatives = [sub[widest:-widest]]
    for order in range(1, depth + 1):
        window, values = central_difference(sub, spacing, order)
        trim = widest - window.start
        derivatives.append(values[trim : len(values) - trim])
    s_sub = samples.s_values()[::stride][widest:-widest]
    return s_sub, derivatives, stride, spacing


def _validate_monitor_inputs(
    samples: CurveSamples, ambient: SpaceForm, minimum: int
) -> None:
    if ambient.K not in (0, 1):
        raise ValueError("monitors support flat or unit-sphere ambient only")
    if len(samples) < minimum:
        raise ValueError(f"need at least {minimum} samples")


def _conservation_monitor(
    r: int,
    samples: CurveSamples,
    ambient: SpaceForm,
    target_spacing: float,
    minimum: int,
) -> DriftReport:
    """Drift of the order-``r`` law of :data:`CONSERVATION_LAWS` on sampled
    positions: each term differentiated by one stencil, all of them aligned on
    the narrowest window and summed in table order."""
    _validate_monitor_inputs(samples, ambient, minimum)
    law = CONSERVATION_LAWS[r]
    widest = max(k for _, k, _ in law)
    budget = 2 * _central_halfwidth(r) + 2 * _central_halfwidth(widest) + 8
    s_sub, gs, stride, spacing = _position_derivatives(
        samples, r, target_spacing, min_points=budget
    )
    fields = covariant_jets(gs, ambient.K, r - 1)
    norms = [np.einsum("ni,ni->n", f, f) for f in fields]  # |nabla^l T|^2
    parts = [(c, *central_difference(norms[l - 1], spacing, k)) for c, k, l in law]
    start = max(window.start for _, window, _ in parts)
    window = slice(start, len(norms[0]) - start)
    invariant = None
    for c, part_window, values in parts:
        lead = start - part_window.start
        term = c * values[lead : lead + window.stop - start]
        invariant = term if invariant is None else invariant + term
    mean = float(invariant.mean())
    return DriftReport(
        order=r,
        ambient_curvature=float(ambient.K),
        drift=float(np.abs(invariant - mean).max()),
        empirical_constant=mean,
        interior_count=len(invariant),
        stride=stride,
        spacing=spacing,
        values=invariant,
        s_values=s_sub[window],
    )


def conservation_monitor_tri(
    samples: CurveSamples,
    ambient: SpaceForm,
    target_spacing: float = 0.03,
) -> DriftReport:
    """Constancy of ``Q = d^2/ds^2 |nabla_T T|^2 - |nabla_T^2 T|^2``, the
    once-integrated form of the order-three conservation law.

    Reports the drift ``max |Q - mean(Q)|`` and the mean as the empirical
    integration constant.
    """
    return _conservation_monitor(3, samples, ambient, target_spacing, minimum=64)


def conservation_monitor_four(
    samples: CurveSamples,
    ambient: SpaceForm,
    target_spacing: float = 0.1,
) -> DriftReport:
    """Constancy of the once-integrated order-four conservation law
    ``d^4/ds^4 |nabla_T T|^2 - 2 d^2/ds^2 |nabla_T^2 T|^2 + |nabla_T^3 T|^2``."""
    return _conservation_monitor(4, samples, ambient, target_spacing, minimum=128)


# -- exact flat calculus for inverse-power profiles --------------------------

def flat_tangent_chain(profile: CurvatureProfile, depth: int) -> list[FrenetExpansion]:
    """Frame expansions of ``T, nabla_T T, ..., nabla_T^depth T`` for a flat
    ambient, with coefficients exact polynomials in ``u = 1/s``.  The chain
    respects the truncation ``k_j = 0`` beyond the profile's curvature count."""
    ks = [term.poly() for term in profile.terms]
    chain = [tangent(profile.count + 1)]
    for _ in range(depth):
        chain.append(frenet_derivative(chain[-1], profile.count, ks))
    return chain


def conservation_law_terms(chain: Sequence[FrenetExpansion], r: int) -> list[Poly]:
    """The exact terms ``c * d^k/ds^k |nabla^l T|^2`` of the order-``r`` law
    from a flat chain reaching ``nabla^(r-1) T``."""
    terms = []
    for c, k, l in CONSERVATION_LAWS[r]:
        term = sum(p * p for p in chain[l].coeffs.values())
        for _ in range(k):
            term = term.arclength_derivative()
        terms.append(c * term)
    return terms


def curvature_ode_values(
    profile: CurvatureProfile, c_1: float, s_samples: Iterable[float]
) -> np.ndarray:
    """Pointwise residual of the order-three law ``Q = c_1`` in a flat
    ambient, where ``Q = (k_1')^2 + 2 k_1 k_1'' - k_1^4 - k_1^2 k_2^2``."""
    s = np.asarray(list(s_samples), dtype=float)
    law = sum(conservation_law_terms(flat_tangent_chain(profile, 2), 3))
    return _evaluate(law, s) - c_1


def curvature_ode_residual(
    profile: CurvatureProfile, c_1: float, s_samples: Iterable[float]
) -> float:
    return float(np.abs(curvature_ode_values(profile, c_1, s_samples)).max())


# -- conjecture scans --------------------------------------------------------

@dataclass(frozen=True)
class ConjectureRow:
    """One grid row of a curvature-profile scan.

    ``law_residual`` is the exact scalar conservation-law residual: the sup
    of ``|Q|`` (the once-integrated law with constant zero) at order three,
    and the sup of ``|dQ/ds|`` (its derivative) at order four.  The
    finite-difference tension estimate is reported for comparison but is not
    a certification (the scalar law is necessary, not sufficient).
    """

    order: int
    beta: float
    law_residual: float
    exact_tension_sup: float
    fd_tension_sup: float
    fd_method: str
    scaling: tuple[tuple[int, float], ...] | None = None

    def to_json_dict(self) -> dict:
        row = {
            "order": self.order,
            "beta": self.beta,
            "law_residual": self.law_residual,
            "exact_tension_sup": self.exact_tension_sup,
            "fd_tension_sup": self.fd_tension_sup,
            "fd_method": self.fd_method,
        }
        if self.scaling is not None:
            row["scaling"] = [
                {"power": p, "coefficient": c} for p, c in self.scaling
            ]
        return row


def _fd_tension_sup(
    samples: CurveSamples, derivative_order: int, target_spacing: float
) -> tuple[float, str, np.ndarray]:
    """Sup norm of the order-``derivative_order`` position derivative and the
    s-window it was estimated on (stencil interior for FD, full period for
    the spectral path)."""
    if samples.is_closed():
        sub = samples.positions[:-1]
        values = spectral_derivative(
            sub, samples.span[1] - samples.span[0], derivative_order
        )
        window = samples.s_values()[:-1]
        return float(np.linalg.norm(values, axis=1).max()), "spectral", window
    n = len(samples)
    widest = _central_halfwidth(derivative_order)
    stride = _choose_stride(n, samples.h, target_spacing, 2 * widest + 4)
    sub = samples.positions[::stride]
    interior, values = central_difference(sub, samples.h * stride, derivative_order)
    window = samples.s_values()[::stride][interior]
    return float(np.linalg.norm(values, axis=1).max()), "fd", window


def conjecture_scan(
    r: int,
    alpha: float,
    beta_grid: Sequence[float],
    span: tuple[float, float],
    step: float = 1e-3,
) -> list[ConjectureRow]:
    """Grid scan over the second curvature coefficient for the inverse-power
    first-curvature profiles of order ``r``.

    Order three: first curvature ``alpha/s``; the law residual is the exact
    ``alpha^2 (5 - alpha^2 - beta^2) / s^4`` left by the order-three law with
    constant zero, the exact tension column is the flat tension sup, and the
    FD column differentiates an integrated trajectory six times.

    Order four: first curvature ``alpha/s^2``; the law residual is the sup of
    the law's derivative, and rows carry the leading large-s behavior of its
    three terms (the dimensional diagnostic) alongside an eighth-derivative
    FD estimate.  No assertion is attached to order four: it is a conjecture
    scan.
    """
    if r not in (3, 4):
        raise ValueError("supported orders are 3 and 4")
    if not math.isfinite(alpha) or alpha == 0:
        raise ValueError(f"alpha must be finite and nonzero, got {alpha}")
    if len(beta_grid) > MAX_SCAN_POINTS:
        raise ValueError(f"at most {MAX_SCAN_POINTS} beta values, got {len(beta_grid)}")
    betas = sorted(float(b) for b in beta_grid)
    bad = [b for b in betas if not math.isfinite(b)]
    if bad:
        raise ValueError(f"beta values must be finite, got {bad}")
    power = r - 2
    s_grid = np.linspace(span[0], span[1], 257)
    rows = []
    for beta in betas:
        coefficients = [alpha, beta] if beta != 0.0 else [alpha]
        profile = inverse_power_profile(coefficients, power)
        chain = flat_tangent_chain(profile, 2 * r - 1)
        terms = conservation_law_terms(chain, r)
        samples = integrate_frenet(profile, profile.count + 1, span, step)
        scaling = None
        if r == 3:
            fd_sup, method, window = _fd_tension_sup(samples, 6, 0.02)
        else:
            terms = [term.arclength_derivative() for term in terms]
            scaling = tuple(_leading(term) for term in terms)
            fd_sup, method, window = _fd_tension_sup(samples, 8, 0.04)
        law_residual = float(np.abs(_evaluate(sum(terms), s_grid)).max())
        # flat ambient: the tension is nabla^(2r-1) T alone; evaluate it on the
        # FD window so the two sups are comparable
        tension = chain[2 * r - 1]
        total = np.zeros_like(window)
        for j in tension.frames():
            total = total + _evaluate(tension.coefficient(j), window) ** 2
        rows.append(
            ConjectureRow(
                order=r,
                beta=beta,
                law_residual=law_residual,
                exact_tension_sup=float(np.sqrt(total.max())),
                fd_tension_sup=fd_sup,
                fd_method=method,
                scaling=scaling,
            )
        )
    return rows
