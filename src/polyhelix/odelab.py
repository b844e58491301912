"""Numerical laboratory for curves with prescribed, possibly non-constant
curvature functions.

Three instruments live here:

* a fixed-step RK4 Frenet-frame integrator for Euclidean ambient space,
  with periodic frame re-orthonormalization, and on request a Richardson
  error estimate that refers to its samples (a pass at twice the step over
  the first 2*floor(steps/2) steps, compared at that sample).  The frame obeys
  a linear system, so each RK4 step is one matrix: the step maps are built
  in batched chunks and chained by prefix products within each block of
  :data:`REORTHO_INTERVAL` steps, one Python iteration per block;
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

Finite differencing policy: every derivative, in the monitors and in the
scans' tension estimates alike, is taken directly from the position samples
in a single Fornberg-weight stencil application on an evenly strided
subgrid.  Cascading difference passes would multiply the roundoff floor by
1/h^2 per pass; striding to a coarser spacing instead keeps both truncation
and roundoff below the monitor tolerances.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .frenet import FrenetExpansion, frenet_derivative, tangent
from .ratpoly import INVERSE_ARCLENGTH, CurvaturePolynomial as Poly, Monomial
from .spherecurves import covariant_jets

MIN_SINGULAR_START = 0.1   # 1/s profiles cannot be integrated from s = 0
FRAME_DEFECT_LIMIT = 1e-10  # re-orthonormalize above this Gram defect
REORTHO_INTERVAL = 100
# RK4 step maps are built this many blocks of REORTHO_INTERVAL steps at a time
CHUNK_BLOCKS = 10
# An integration stores (steps + 1) x (m + 2) x d frame and position values,
# plus the step maps of one chunk; 2^25 float64s are 256 MiB.  At about
# 1.3 us per step of the h pass and the 2h pass of `polyhelix integrate`
# (shared 2-core Xeon, one BLAS thread) a one-curvature planar run reaches
# the bound in about 11 s.
MAX_FRAME_VALUES = 2**25
# Each scan point integrates its own trajectory and derives its own exact
# chain, about 7 ms a point at order 3 and 9 ms at order 4 at the default
# span (mostly the exact chain), so 1000 points take about 7-9 s.
MAX_SCAN_POINTS = 1000
SCAN_STEP = 1e-3     # RK4 step of the trajectories a conjecture scan integrates

# Once-integrated conservation law of each order, as the terms
# c * d^k/ds^k |nabla^l T|^2 listed by (c, k, l); the law says the sum of the
# terms is constant along a solution.
CONSERVATION_LAWS = {
    3: ((1, 2, 1), (-1, 0, 2)),
    4: ((1, 4, 1), (-2, 2, 2), (1, 0, 3)),
}
# sample spacing each law's monitor strides its positions to
MONITOR_SPACING = {3: 0.03, 4: 0.1}


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


@lru_cache(maxsize=16)
def _central_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and unit-spacing weights of the order-``order`` central
    stencil, read-only: each order's are computed once and shared (the 16
    orders used last are kept)."""
    half = _central_halfwidth(order)
    offsets = np.arange(-half, half + 1, dtype=float)
    weights = fornberg_weights(0.0, offsets, order)[:, order].copy()
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


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
    # a NumPy power: a step too large for float range gives inf, not OverflowError
    weights = _central_weights(order)[1] / np.float64(h) ** order
    out = np.zeros((n - 2 * half,) + np.shape(values)[1:])
    for k, w in enumerate(weights):
        if w:
            out += w * values[k : n - 2 * half + k]
    return slice(half, n - half), out


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
    """Uniformly spaced samples of a curve, optionally with frame samples."""

    h: float
    span: tuple[float, float]
    positions: np.ndarray
    frames: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2:
            raise ValueError("positions must be a (samples, dimension) array")
        if self.positions.shape[1] == 0:
            raise ValueError("samples need at least one coordinate column")
        if not 0 < self.h < math.inf:
            raise ValueError(f"sample spacing must be positive and finite, got {self.h}")
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
            header = next(reader, None)
            if not header or header[0] != "s":
                raise ValueError("first CSV column must be s")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"CSV line {reader.line_num} has {len(row)} fields, "
                        f"the header has {len(header)}"
                    )
                values = [float(v) for v in row]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"non-finite value on CSV line {reader.line_num}")
                rows.append(values)
        data = np.array(rows)
        if len(data) < 2:
            raise ValueError("need at least two samples")
        s = data[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(s)
            # from the ends, not a first difference that carries the
            # rounding of the s column near its start
            h = float((s[-1] - s[0]) / (len(s) - 1))
            # written so that an overflowed step reads as not uniform
            uniform = np.all(np.abs(steps - h) <= 1e-9 * max(1.0, abs(h)))
        if not uniform:
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

def _reorthonormalize(frame: np.ndarray) -> np.ndarray:
    # QR on the transpose, sign-fixed so the frame varies continuously
    q, r = np.linalg.qr(frame.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def _check_run(
    profile: CurvatureProfile, d: int, span: tuple[float, float], h: float
) -> int:
    """Reject an integration request before anything is allocated; return
    its number of steps."""
    if h <= 0:
        raise ValueError("step must be positive")
    if d < profile.count + 1:
        raise ValueError(
            f"ambient dimension must be at least {profile.count + 1}"
        )
    profile.check_span(span)
    intervals = (span[1] - span[0]) / h
    # the stored frames and positions, and the step maps of one chunk, for
    # which _step_maps holds at most 14 (m + 1) x (m + 1) matrices and 6m
    # curvatures a step
    m = profile.count
    chunk = CHUNK_BLOCKS * REORTHO_INTERVAL * (14 * (m + 1) ** 2 + 6 * m)
    values = (intervals + 1) * (m + 2) * d + chunk
    if values > MAX_FRAME_VALUES:
        raise ValueError(
            f"step {h} over span {span[0]}:{span[1]} in dimension {d} would store "
            f"{values:.3g} values, more than {MAX_FRAME_VALUES}"
        )
    steps = int(round(intervals))
    if steps < 2:
        raise ValueError(f"span {span[0]}:{span[1]} is shorter than one step at 2h = {2 * h}")
    return steps


def _step_maps(
    profile: CurvatureProfile, start: float, h: float, first: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 step maps of steps ``first .. first + count - 1``: the matrices
    ``M`` (count, m + 1, m + 1) with ``y_(n+1) = M_n y_n`` for the frame, and
    the rows ``c`` (count, m + 1) with ``p_(n+1) = p_n + c_n y_n``.

    The frame obeys the linear system ``y' = A(s) y`` whose generator ``A``
    carries the curvatures on its super- and (negated) subdiagonal, so each
    RK4 stage is a matrix: with ``A1, A2, A3`` at ``s, s + h/2, s + h``,
    ``L2 = I + h/2 A1``, ``L3 = I + h/2 A2 L2``, ``L4 = I + h A2 L3``,
    ``M = I + h/6 (A1 + 2 A2 L2 + 2 A2 L3 + A3 L4)`` and
    ``c = h/6 (I + 2 L2 + 2 L3 + L4)[0]``.
    """
    size = profile.count + 1
    s = start + h * np.arange(first, first + count)
    # curvatures at the stage arclengths, shaped (3, count, m)
    ks = profile.values(s[:, None] + np.array([0.0, h / 2, h])).transpose(2, 1, 0)
    generators = np.zeros((3, count, size, size))
    upper = np.arange(size - 1)
    generators[:, :, upper, upper + 1] = ks
    generators[:, :, upper + 1, upper] = -ks
    a1, a2, a3 = generators
    eye = np.eye(size)
    l2 = eye + (h / 2) * a1
    a2_l2 = a2 @ l2
    l3 = eye + (h / 2) * a2_l2
    a2_l3 = a2 @ l3
    l4 = eye + h * a2_l3
    maps = eye + (h / 6) * (a1 + 2.0 * a2_l2 + 2.0 * a2_l3 + a3 @ l4)
    rows = (h / 6) * (eye[0] + 2.0 * l2[:, 0] + 2.0 * l3[:, 0] + l4[:, 0])
    return maps, rows


def _block_maps(
    profile: CurvatureProfile, start: float, h: float, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each block of :data:`REORTHO_INTERVAL` steps (the last may be
    shorter), in order: the prefix products ``P_k = M_(k-1) ... M_0`` that
    map the block's first frame to the frame ``k`` steps later, and the sums
    ``R_k = c_0 P_0 + ... + c_(k-1) P_(k-1)`` that map it to the position
    offset, for ``k = 1 ..`` the block length.

    The step maps are built :data:`CHUNK_BLOCKS` blocks at a time, and each
    block's products take log2(:data:`REORTHO_INTERVAL`) batched rounds of
    a Hillis-Steele scan."""
    size = profile.count + 1
    chunk = CHUNK_BLOCKS * REORTHO_INTERVAL
    for first in range(0, steps, chunk):
        count = min(chunk, steps - first)
        maps, rows = _step_maps(profile, start, h, first, count)
        blocks = -(-count // REORTHO_INTERVAL)
        pad = blocks * REORTHO_INTERVAL - count
        if pad:
            # identity steps after the last one leave its products unchanged
            maps = np.concatenate([maps, np.broadcast_to(np.eye(size), (pad, size, size))])
            rows = np.concatenate([rows, np.zeros((pad, size))])
        maps = maps.reshape(blocks, REORTHO_INTERVAL, size, size)
        rows = rows.reshape(blocks, REORTHO_INTERVAL, size)
        offset = 1
        while offset < REORTHO_INTERVAL:
            maps[:, offset:] = maps[:, offset:] @ maps[:, :-offset]
            offset *= 2
        # maps[:, k] is now P_(k+1); the row of step k meets the frame P_k
        rows[:, 1:] = (rows[:, 1:, None, :] @ maps[:, :-1])[:, :, 0]
        sums = np.cumsum(rows, axis=1)
        for block in range(blocks):
            length = min(REORTHO_INTERVAL, count - block * REORTHO_INTERVAL)
            yield maps[block, :length], sums[block, :length]


def _advance_block(
    products: np.ndarray, sums: np.ndarray, frame: np.ndarray, point: np.ndarray, end: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frames and positions after each step of one block, from the frame and
    position at its start.  When the block ends at step ``end``, a multiple
    of :data:`REORTHO_INTERVAL`, a last frame whose Gram defect exceeds
    :data:`FRAME_DEFECT_LIMIT` is re-orthonormalized."""
    frames = products @ frame
    points = point + sums @ frame
    if end % REORTHO_INTERVAL == 0:
        last = frames[-1]
        if np.abs(last @ last.T - np.eye(len(last))).max() > FRAME_DEFECT_LIMIT:
            frames[-1] = _reorthonormalize(last)
    return frames, points


def _rk4_pass(
    profile: CurvatureProfile, d: int, start: float, h: float, steps: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Classical RK4 for the Frenet frame and the position over ``steps``
    steps of size ``h``, from the identity frame at the origin: per block,
    the sample indices it fills and its frames and positions there."""
    frame, point = np.eye(profile.count + 1, d), np.zeros(d)
    done = 0
    for products, sums in _block_maps(profile, start, h, steps):
        end = done + len(products)
        frames, points = _advance_block(products, sums, frame, point, end)
        yield slice(done + 1, end + 1), frames, points
        frame, point, done = frames[-1], points[-1], end


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def integrate_frenet(
    profile: CurvatureProfile,
    d: int,
    span: tuple[float, float],
    h: float,
) -> CurveSamples:
    """Integrate the position together with the Frenet frame equations
    by classical fourth-order Runge-Kutta at fixed step ``h``; the span must
    cover at least two steps, so that :func:`richardson_error` applies."""
    steps = _check_run(profile, d, span, h)
    positions = np.zeros((steps + 1, d))
    frames = np.empty((steps + 1, profile.count + 1, d))
    frames[0] = np.eye(profile.count + 1, d)
    for rows, block_frames, block_points in _rk4_pass(profile, d, span[0], h, steps):
        frames[rows], positions[rows] = block_frames, block_points
    _check_finite(h, positions, frames)
    return CurveSamples(
        h=h, span=(span[0], span[0] + steps * h), positions=positions, frames=frames
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def richardson_error(profile: CurvatureProfile, samples: CurveSamples) -> float:
    """Richardson estimate ``|p_h - p_2h| / 15`` of the error of sample
    2*floor(steps/2) of ``samples``, which :func:`integrate_frenet` returned
    for ``profile``: a second pass at step 2h over the steps up to it."""
    steps = len(samples) - 1
    if steps < 2:
        raise ValueError("a Richardson estimate needs at least two steps")
    for _, _, block_points in _rk4_pass(
        profile, samples.dimension, samples.span[0], 2 * samples.h, steps // 2
    ):
        coarse_end = block_points[-1]
    _check_finite(samples.h, coarse_end)
    return float(np.linalg.norm(samples.positions[2 * (steps // 2)] - coarse_end) / 15.0)


def _check_finite(h: float, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(
            f"integration at step {h} overflowed: the curvatures are too large for this step"
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


def _strided(
    samples: CurveSamples, target_spacing: float, min_points: int
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Positions, arclengths, stride and spacing of the subgrid whose stride
    is nearest the target spacing and leaves ``min_points`` samples:
    ``n // stride >= min_points`` exactly when ``stride <= n // min_points``."""
    stride = max(1, int(round(min(target_spacing / samples.h, len(samples) // min_points))))
    return samples.positions[::stride], samples.s_values()[::stride], stride, samples.h * stride


def _position_derivatives(
    samples: CurveSamples,
    depth: int,
    target_spacing: float,
    min_points: int,
) -> tuple[np.ndarray, list[np.ndarray], int, float]:
    """Derivatives 0..depth of the positions on a strided subgrid, each from
    one direct stencil, trimmed to the common interior window.

    ``min_points`` lowers the stride below the target spacing when the span
    is too short; callers that differentiate the returned scalars again must
    budget for the second stencil here.
    """
    widest = _central_halfwidth(depth)
    sub, s_sub, stride, spacing = _strided(samples, target_spacing, min_points)
    derivatives = [sub[widest:-widest]]
    for order in range(1, depth + 1):
        window, values = central_difference(sub, spacing, order)
        trim = widest - window.start
        derivatives.append(values[trim : len(values) - trim])
    return s_sub[widest:-widest], derivatives, stride, spacing


def _validate_monitor_inputs(samples: CurveSamples, K: float, minimum: int) -> None:
    if K not in (0, 1):
        raise ValueError("monitors support flat or unit-sphere ambient only")
    if len(samples) < minimum:
        raise ValueError(f"need at least {minimum} samples")


@np.errstate(all="ignore")  # an overflow shows as a non-finite invariant, checked below
def _conservation_monitor(
    r: int,
    samples: CurveSamples,
    K: float,
    minimum: int,
) -> DriftReport:
    """Drift of the order-``r`` law of :data:`CONSERVATION_LAWS` on sampled
    positions: each term differentiated by one stencil, all of them aligned on
    the narrowest window and summed in table order."""
    _validate_monitor_inputs(samples, K, minimum)
    law = CONSERVATION_LAWS[r]
    widest = max(k for _, k, _ in law)
    budget = 2 * _central_halfwidth(r) + 2 * _central_halfwidth(widest) + 8
    s_sub, gs, stride, spacing = _position_derivatives(
        samples, r, MONITOR_SPACING[r], min_points=budget
    )
    fields = covariant_jets(gs, K, r - 1)
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
    if not np.isfinite(invariant).all():
        raise ValueError(
            f"the order-{r} invariant overflowed at spacing {spacing:g}: "
            "the sample values are too large for their spacing"
        )
    return DriftReport(
        order=r,
        ambient_curvature=float(K),
        drift=float(np.abs(invariant - mean).max()),
        empirical_constant=mean,
        interior_count=len(invariant),
        stride=stride,
        spacing=spacing,
        values=invariant,
        s_values=s_sub[window],
    )


def conservation_monitor_tri(samples: CurveSamples, K: float) -> DriftReport:
    """Constancy of ``Q = d^2/ds^2 |nabla_T T|^2 - |nabla_T^2 T|^2``, the
    once-integrated form of the order-three conservation law.

    Reports the drift ``max |Q - mean(Q)|`` and the mean as the empirical
    integration constant.  ``K`` is the ambient curvature: 0 (flat) or 1
    (the unit sphere).
    """
    return _conservation_monitor(3, samples, K, minimum=64)


def conservation_monitor_four(samples: CurveSamples, K: float) -> DriftReport:
    """Constancy of the once-integrated order-four conservation law
    ``d^4/ds^4 |nabla_T T|^2 - 2 d^2/ds^2 |nabla_T^2 T|^2 + |nabla_T^3 T|^2``
    in the flat (``K = 0``) or unit-sphere (``K = 1``) ambient."""
    return _conservation_monitor(4, samples, K, minimum=128)


# -- exact flat calculus for inverse-power profiles --------------------------

def flat_tangent_chain(profile: CurvatureProfile, depth: int) -> list[FrenetExpansion]:
    """Frame expansions of ``T, nabla_T T, ..., nabla_T^depth T`` for a flat
    ambient, with coefficients exact polynomials in ``u = 1/s``.  The chain
    respects the truncation ``k_j = 0`` beyond the profile's curvature count."""
    ks = [term.poly() for term in profile.terms]
    chain = [tangent()]
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
    a certification (the scalar law is necessary, not sufficient); below
    ``fd_roundoff_floor`` it is rounding alone and says nothing.
    """

    order: int
    beta: float
    law_residual: float
    exact_tension_sup: float
    fd_tension_sup: float
    fd_roundoff_floor: float
    scaling: tuple[tuple[int, float], ...] | None = None

    @property
    def fd_below_floor(self) -> bool:
        return self.fd_tension_sup <= self.fd_roundoff_floor

    @staticmethod
    def csv_header(order: int) -> str:
        """The CSV header of an order's scan: order four adds the scaling."""
        fields = "beta,law_residual,exact_tension_sup,fd_tension_sup,fd_roundoff_floor"
        return fields + ",fd_below_floor" + (",scaling" if order == 4 else "")

    def csv_row(self) -> str:
        line = (
            f"{self.beta!r},{self.law_residual!r},{self.exact_tension_sup!r},"
            f"{self.fd_tension_sup!r},{self.fd_roundoff_floor!r},"
            f"{str(self.fd_below_floor).lower()}"
        )
        if self.scaling is not None:
            line += "," + ";".join(f"s^{p}*{c!r}" for p, c in self.scaling)
        return line

    def to_json_dict(self) -> dict:
        row = {
            "order": self.order,
            "beta": self.beta,
            "law_residual": self.law_residual,
            "exact_tension_sup": self.exact_tension_sup,
            "fd_tension_sup": self.fd_tension_sup,
            "fd_roundoff_floor": self.fd_roundoff_floor,
            "fd_below_floor": self.fd_below_floor,
        }
        if self.scaling is not None:
            row["scaling"] = [
                {"power": p, "coefficient": c} for p, c in self.scaling
            ]
        return row


def _fd_tension_sup(
    samples: CurveSamples, derivative_order: int, target_spacing: float
) -> tuple[float, float, np.ndarray]:
    """Sup norm of the order-``derivative_order`` position derivative, from
    one central stencil on a strided subgrid, its roundoff floor, and the
    s-window (the stencil interior) it was estimated on.

    The floor bounds what rounding alone can contribute.  Each RK4 step
    rounds the position by at most ``eps |p|``, so samples ``i`` strides
    from the stencil's centre differ from it in rounding by at most
    ``|i| stride eps max|p|``; the weights ``w_i`` sum to zero, so the
    stencil returns at most ``eps max|p| stride sum |i| |w_i| / spacing^k``
    from rounding.

    A scan trajectory has first curvature ``alpha/s^(r-2)`` with
    ``alpha != 0``, strictly monotone, so even if its ends met, its
    periodic extension would not be smooth there: a spectral derivative
    would ring, not estimate.  Every trajectory takes the stencil."""
    widest = _central_halfwidth(derivative_order)
    sub, s_sub, stride, spacing = _strided(samples, target_spacing, 2 * widest + 4)
    interior, values = central_difference(sub, spacing, derivative_order)
    window = s_sub[interior]
    offsets, weights = _central_weights(derivative_order)
    floor = float(
        np.finfo(float).eps * np.linalg.norm(sub, axis=1).max() * stride
        * np.abs(offsets * weights).sum() / spacing**derivative_order
    )
    return float(np.linalg.norm(values, axis=1).max()), floor, window


def conjecture_scan(
    r: int,
    alpha: float,
    beta_grid: Sequence[float],
    span: tuple[float, float],
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
    profiles = [
        inverse_power_profile([alpha, beta] if beta != 0.0 else [alpha], power)
        for beta in betas
    ]
    # every request is checked, in grid order, before anything is allocated
    for profile in profiles:
        _check_run(profile, profile.count + 1, span, SCAN_STEP)
    return [
        _scan_row(r, beta, profile, integrate_frenet(profile, profile.count + 1, span, SCAN_STEP), s_grid)
        for beta, profile in zip(betas, profiles)
    ]


def _scan_row(
    r: int,
    beta: float,
    profile: CurvatureProfile,
    samples: CurveSamples,
    s_grid: np.ndarray,
) -> ConjectureRow:
    """One row of :func:`conjecture_scan` from the profile's integrated
    trajectory."""
    chain = flat_tangent_chain(profile, 2 * r - 1)
    terms = conservation_law_terms(chain, r)
    scaling = None
    if r == 3:
        fd_sup, floor, window = _fd_tension_sup(samples, 6, 0.02)
    else:
        terms = [term.arclength_derivative() for term in terms]
        scaling = tuple(_leading(term) for term in terms)
        fd_sup, floor, window = _fd_tension_sup(samples, 8, 0.04)
    law_residual = float(np.abs(_evaluate(sum(terms), s_grid)).max())
    # flat ambient: the tension is nabla^(2r-1) T alone; evaluate it on the
    # FD window so the two sups are comparable
    tension = chain[2 * r - 1]
    total = np.zeros_like(window)
    for j in tension.frames():
        total = total + _evaluate(tension.coefficient(j), window) ** 2
    return ConjectureRow(
        order=r,
        beta=beta,
        law_residual=law_residual,
        exact_tension_sup=float(np.sqrt(total.max())),
        fd_tension_sup=fd_sup,
        fd_roundoff_floor=floor,
        scaling=scaling,
    )
