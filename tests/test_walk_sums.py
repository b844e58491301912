"""The helix system as walk sums on a path graph: an oracle for the split
of each squared equation and for the frame-2/frame-4 certificate.

With ``x_i = k_i^2``, ``W_n(j)`` is the weighted sum of the walks of length
``n`` from node 1 to node ``j`` on the path graph ``1 - 2 - ... - (2r - 1)``:
a step up from node ``i`` weighs ``x_i`` and a step down weighs 1.
``C_a = W_a(1)`` is the closed-walk sum.  On a helix ``frenet_derivative``
is exactly one such step, up by ``+k_i`` and down by ``-k_i``.  Each squared
equation of the full order-``r`` system splits as ``P_j - K Q_j`` with
``P_j`` and ``Q_j`` nonnegative, and with ``X_j = x1 ... x_{j-1}``

    P_j X_j = W_{2r-1}(j),    Q_j X_j = sum over even a <= 2r - 4 of C_a W_{2r-3-a}(j).

The certificate ``N = P4 Q2 - P2 Q4`` then satisfies
``N x1^2 x2 x3 = sum of C_a D_a`` with
``D_a = W_{2r-1}(4) W_{2r-3-a}(2) - W_{2r-1}(2) W_{2r-3-a}(4)``, a 2 x 2
determinant of lattice-path weights in the (time, node) strip.  By the
Lindström-Gessel-Viennot lemma (Gessel and Viennot 1985) it counts
non-intersecting path pairs, so its coefficients are nonnegative; the tests
check that for every order the derivation takes.  The walk sums live here
only: ``src`` keeps its one derivation.
"""

import math
from functools import cache

import pytest

from polyhelix.classify import _nonnegative_split
from polyhelix.frenet import MAX_TENSION_ORDER, constraint_system
from polyhelix.ratpoly import CurvaturePolynomial as Poly, kvar

# every even frame is checked up to this order, frames 2 and 4 above it
ALL_FRAMES_ORDER = 8


@cache
def walk_sums(r: int) -> tuple[tuple[Poly, ...], ...]:
    """``W[n][j]`` for ``n = 0 .. 2r - 1`` and nodes ``j = 1 .. 2r - 1``
    (index 0 and the index past the last node stay zero)."""
    nodes = 2 * r - 1
    row = [Poly.zero()] * (nodes + 2)
    row[1] = Poly.constant(1)
    rows = [tuple(row)]
    for _ in range(2 * r - 1):
        step = [Poly.zero()] * (nodes + 2)
        for i in range(1, nodes + 1):
            if row[i]:
                if i < nodes:
                    step[i + 1] = step[i + 1] + row[i] * kvar(i)
                if i > 1:
                    step[i - 1] = step[i - 1] + row[i]
        row = step
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("r", range(3, MAX_TENSION_ORDER + 1))
def test_each_split_is_a_walk_sum(r):
    equations = {eq.frame: eq for eq in constraint_system(r, set()).equations}
    W = walk_sums(r)
    for j in sorted(equations) if r <= ALL_FRAMES_ORDER else (2, 4):
        P, Q = _nonnegative_split(equations[j].factored.squared_form())
        X = math.prod((kvar(i) for i in range(1, j)), start=Poly.constant(1))
        assert P * X == W[2 * r - 1][j]
        assert Q * X == sum(
            (W[a][1] * W[2 * r - 3 - a][j] for a in range(0, 2 * r - 3, 2)), Poly.zero()
        )


@pytest.mark.parametrize("r", range(3, MAX_TENSION_ORDER + 1))
def test_every_determinant_is_nonnegative(r):
    W = walk_sums(r)
    top = 2 * r - 1
    for a in range(0, 2 * r - 3, 2):
        D = W[top][4] * W[top - 2 - a][2] - W[top][2] * W[top - 2 - a][4]
        # a polynomial stores nonzero coefficients only
        assert all(c > 0 for _, c in D.terms())
