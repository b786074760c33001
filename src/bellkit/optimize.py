"""The largest CHSH value of a pure state, and S along a rotation of Bob's settings.

Both read the state's 3x3 correlation matrix T only: S at directions
(u, u', v, v') is u^T T (v + v') + u'^T T (v - v').  The optimum reads Bob's
Bloch vector b too: for a pure state T b = a, and T^T T has the eigenvalues
1, C^2, C^2 (C the concurrence) with b along the first, so the optimum needs
no eigensolver and no trigonometry.  It runs on Python floats, and the sweep
on numpy ufuncs, so neither calls BLAS or LAPACK and the bytes do not depend on
their kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from .errors import InvalidInputError
from .lhv import chsh
from .network import _CHUNK
from .quantum import TwoQubitState, UnitVector3, alice_rows, setting_correlators

# largest row count sweep() computes: the rows take 16 bytes each, their temporaries
# are bounded by the _CHUNK-row blocks, and `bellkit sweep` writes their CSV text
# _CHUNK rows at a time (a fresh `bellkit sweep singlet` peaks at 70 MB at 10^6 rows,
# ~33 MB of it start-up, and at 208 MB at 10^7 rows, on a 2-CPU x86-64 VM)
MAX_STEPS = 10 ** 7

Vector = tuple[float, float, float]


@dataclass(frozen=True)
class MeasurementSettings:
    """The four measurement directions (Alice's u, u'; Bob's v, v')."""

    alice_u: UnitVector3
    alice_u_prime: UnitVector3
    bob_v: UnitVector3
    bob_v_prime: UnitVector3

    def as_tuple(self) -> tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3]:
        return (self.alice_u, self.alice_u_prime, self.bob_v, self.bob_v_prime)


@lru_cache(maxsize=1)
def tsirelson_settings() -> MeasurementSettings:
    """The xy-plane configuration achieving the maximal singlet violation.

    Alice measures along x and y; Bob along the two diagonals between them.
    On the singlet these give S = -2*sqrt(2).  Built once; every call returns
    the same frozen value.
    """
    r = 1.0 / math.sqrt(2.0)
    return MeasurementSettings(
        alice_u=UnitVector3(1.0, 0.0, 0.0),
        alice_u_prime=UnitVector3(0.0, 1.0, 0.0),
        bob_v=UnitVector3(r, r, 0.0),
        bob_v_prime=UnitVector3(r, -r, 0.0),
    )


@dataclass(frozen=True)
class OptimizationResult:
    best_s: float
    settings: MeasurementSettings
    # the maximum is computed, not iterated to; callers written for the
    # former iterative optimizer still read these two
    iterations: ClassVar[int] = 0
    converged: ClassVar[bool] = True


def chsh_of_settings(psi: TwoQubitState, s: MeasurementSettings) -> float:
    """S from the four quantum correlators U T V^T at the given directions, in ``setting_correlators``' order."""
    (ab, abp), (apb, apbp) = setting_correlators(psi._bloch_and_tensor[2], s.as_tuple())
    return chsh([ab, abp, apb, apbp])


def seesaw_maximize(psi: TwoQubitState, seed: int | None) -> OptimizationResult:
    """The largest S over all measurement directions, in closed form.

    With n1, n2 unit eigenvectors of T^T T for its two largest eigenvalues,
    s_i = |T n_i| are the two largest singular values of the state's
    correlation matrix T and m_i = T n_i / s_i the matching left singular
    vectors.  With h = sqrt(s1^2 + s2^2), Alice measures along m1 and m2 and
    Bob along (s1 n1 +/- s2 n2) / h, which gives S = 2 h, the maximum
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  S at
    the returned directions is that value for any orthonormal n1, n2, so
    ``best_s`` is what the settings give.

    For a pure state with Schmidt angle t, Bob's Bloch vector b has length
    cos 2t, T b = a (Alice's), and T^T T has the eigenvalues 1, C^2, C^2 with
    C = sin 2t, b along the first.  So n1 = b / |b|, and n2 is any unit vector
    orthogonal to it (``_complement``), which moves only as much as b does;
    h = sqrt(1 + C^2) is Gisin's figure (Phys. Lett. A 154, 201 (1991)).  For
    b = 0 (maximally entangled states) T^T T = I, every direction is an
    eigenvector, and n1, n2 are the x and y axes.  s1 = 1, so h and
    ``best_s`` are positive; where s2 = 0 (product states), m2 is any unit
    vector orthogonal to m1.  ``seed`` is accepted for compatibility with the
    former seeded seesaw and does not affect the result.
    """
    _, (b0, b1, b2), (t00, t01, t02, t10, t11, t12, t20, t21, t22) = psi._bloch_and_tensor
    size = math.hypot(b0, b1, b2)
    if size:
        n1 = (b0 / size, b1 / size, b2 / size)
        n2 = _complement(n1)[0]
    else:
        n1, n2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    (x1, y1, z1), (x2, y2, z2) = n1, n2
    # T n1 and T n2, whose lengths are the two largest singular values
    p1, q1, r1 = t00 * x1 + t01 * y1 + t02 * z1, t10 * x1 + t11 * y1 + t12 * z1, t20 * x1 + t21 * y1 + t22 * z1
    p2, q2, r2 = t00 * x2 + t01 * y2 + t02 * z2, t10 * x2 + t11 * y2 + t12 * z2, t20 * x2 + t21 * y2 + t22 * z2
    s1, s2 = math.hypot(p1, q1, r1), math.hypot(p2, q2, r2)
    m1 = (p1 / s1, q1 / s1, r1 / s1)
    m2 = (p2 / s2, q2 / s2, r2 / s2) if s2 else _complement(m1)[0]
    h = math.hypot(s1, s2)
    c, s = s1 / h, s2 / h
    settings = MeasurementSettings(
        alice_u=UnitVector3(*m1),
        alice_u_prime=UnitVector3(*m2),
        bob_v=UnitVector3(c * x1 + s * x2, c * y1 + s * y2, c * z1 + s * z2),
        bob_v_prime=UnitVector3(c * x1 - s * x2, c * y1 - s * y2, c * z1 - s * z2),
    )
    return OptimizationResult(best_s=2.0 * h, settings=settings)


def _cross(u: Vector, v: Vector) -> Vector:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _complement(w: Vector) -> tuple[Vector, Vector]:
    """Unit vectors u, v with (u, v, w) orthonormal, for a unit vector ``w``."""
    x, y, z = w
    if abs(x) > abs(y):
        h = math.hypot(x, z)
        u = (-z / h, 0.0, x / h)
    else:
        h = math.hypot(y, z)
        u = (0.0, z / h, -y / h)
    return u, _cross(w, u)


def sweep(
    psi: TwoQubitState,
    steps: int,
    theta_start_deg: float = 0.0,
    theta_end_deg: float = 360.0,
) -> np.ndarray:
    """(steps, 2) array of (angle in degrees, S) as Bob's pair of ``tsirelson_settings`` rotates about z.

    Angles are evenly spaced over [theta_start_deg, theta_end_deg] inclusive;
    the first row of the sweep from 0 on the singlet is (0, -2*sqrt(2)).
    """
    if not 2 <= steps <= MAX_STEPS:
        raise InvalidInputError(f"sweep row count --steps must be between 2 and {MAX_STEPS}, got {steps}")
    import numpy as np
    # column-major, so that the S column is contiguous and min/max over it copy nothing
    rows = np.empty((steps, 2), order="F")
    u, up, v, vp = tsirelson_settings().as_tuple()
    at = alice_rows(psi._bloch_and_tensor[2], u, up)
    # rows in blocks of _CHUNK, so that the temporaries stay bounded whatever the row count
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        k = np.arange(start, start + n)
        # a non-finite bound, or bounds whose difference overflows, gives inf or nan angles
        with np.errstate(over="ignore", invalid="ignore"):
            thetas = theta_start_deg + (theta_end_deg - theta_start_deg) * k / (steps - 1)
        if not np.isfinite(thetas).all():
            raise InvalidInputError(
                f"sweep angles must be finite, got start {theta_start_deg!r} and end {theta_end_deg!r}")
        rad = np.radians(thetas)
        c, s = np.cos(rad), np.sin(rad)
        # Bob's directions rotated about z by every angle; each correlator p x + q y + r z, for (p, q, r)
        # a row of U T, is added left to right to +0.0 as a BLAS accumulator is, in ufuncs that call no BLAS
        rotated = [(w.x * c - w.y * s, w.y * c + w.x * s, w.z) for w in (v, vp)]
        e = np.zeros((4, n))
        for acc, ((p, q, r), (x, y, z)) in zip(e, itertools.product(at, rotated)):
            acc += p * x
            acc += q * y
            acc += r * z
        rows[start:start + n, 0] = thetas
        rows[start:start + n, 1] = chsh(e.T)
    return rows
