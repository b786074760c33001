"""The largest CHSH value of a pure state, and S along a rotation of Bob's settings.

Both read the state's 3x3 correlation matrix T only: S at directions
(u, u', v, v') is u^T T (v + v') + u'^T T (v - v').  The optimum comes from a
closed-form eigensolver for T^T T on Python floats, and the sweep from numpy
ufuncs, so neither calls BLAS or LAPACK and the bytes do not depend on their kernel.
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

    With n1, n2 the unit eigenvectors of T^T T for its two largest eigenvalues
    (``_top_eigenvectors``), s_i = |T n_i| are the two largest singular values
    of the state's correlation matrix T and m_i = T n_i / s_i the matching left
    singular vectors.  With h = sqrt(s1^2 + s2^2), Alice measures along m1
    and m2 and Bob along (s1 n1 +/- s2 n2) / h, which gives S = 2 h, the
    maximum (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).
    S at the returned directions is that value for any orthonormal n1, n2, so
    ``best_s`` is what the settings give.  A pure state's T has the singular
    values 1, sin 2t, sin 2t (t its Schmidt angle), so s1, h and ``best_s``
    are positive; where s2 = 0 (product states), m2 is any unit vector
    orthogonal to m1.  ``seed`` is accepted for compatibility with the former
    seeded seesaw and does not affect the result.
    """
    t00, t01, t02, t10, t11, t12, t20, t21, t22 = psi._bloch_and_tensor[2]
    # A = T^T T by its upper triangle
    n1, n2 = _top_eigenvectors(
        t00 * t00 + t10 * t10 + t20 * t20, t00 * t01 + t10 * t11 + t20 * t21, t00 * t02 + t10 * t12 + t20 * t22,
        t01 * t01 + t11 * t11 + t21 * t21, t01 * t02 + t11 * t12 + t21 * t22, t02 * t02 + t12 * t12 + t22 * t22)
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


def _top_eigenvectors(a00: float, a01: float, a02: float, a11: float, a12: float, a22: float) -> tuple[Vector, Vector]:
    """Orthonormal eigenvectors for the two largest eigenvalues of the symmetric 3x3 matrix A, by its upper triangle.

    After D. Eberly, A Robust Eigensolver for 3x3 Symmetric Matrices
    (Geometric Tools, 2014), on Python floats.  A is scaled by its largest
    entry, and B = (A - q I)/p, with q the mean eigenvalue and p^2 the mean
    squared deviation, has A's eigenvectors and the eigenvalues
    2 cos(phi + 2 pi k/3), phi = acos(det(B)/2)/3.  The eigenvector of the
    eigenvalue farthest from the other two is the longest cross product of two
    rows of B - beta I; the other two solve the 2x2 problem in its orthogonal
    complement (``_complement_eigenvectors``), which holds for a repeated
    eigenvalue too.  A multiple of I keeps the x and y axes.
    """
    big = max(abs(a00), abs(a01), abs(a02), abs(a11), abs(a12), abs(a22))
    if big:
        a00, a01, a02, a11, a12, a22 = a00 / big, a01 / big, a02 / big, a11 / big, a12 / big, a22 / big
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = math.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    if p == 0.0:  # A is a multiple of I (to within underflow): every direction is an eigenvector
        return (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    b00, b01, b02, b11, b12, b22 = b00 / p, a01 / p, a02 / p, b11 / p, a12 / p, b22 / p
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                      + b02 * (b01 * b12 - b11 * b02))
    phi = math.acos(min(max(half_det, -1.0), 1.0)) / 3.0
    rows = ((b00, b01, b02), (b01, b11, b12), (b02, b12, b22))
    if half_det >= 0.0:  # the largest eigenvalue, 2 cos(phi), is the farthest from the other two
        n1 = _far_eigenvector(rows, 2.0 * math.cos(phi))
        return n1, _complement_eigenvectors(rows, n1)[0]
    # the smallest, 2 cos(phi + 2 pi/3), is the farthest
    return _complement_eigenvectors(rows, _far_eigenvector(rows, 2.0 * math.cos(phi + 2.0 * math.pi / 3.0)))


def _cross(u: Vector, v: Vector) -> Vector:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _far_eigenvector(rows: tuple[Vector, Vector, Vector], beta: float) -> Vector:
    """The unit eigenvector of the symmetric ``rows`` for its simple eigenvalue ``beta``: the longest row cross product.

    B - beta I has rank 2, so the cross product of two of its rows that is
    longest is a nonzero multiple of the eigenvector.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    r0, r1, r2 = (r00 - beta, r01, r02), (r10, r11 - beta, r12), (r20, r21, r22 - beta)
    best, size = None, -1.0
    for x, y, z in (_cross(r0, r1), _cross(r0, r2), _cross(r1, r2)):
        d = x * x + y * y + z * z
        if d > size:
            best, size = (x, y, z), d
    norm = math.sqrt(size)
    x, y, z = best
    return x / norm, y / norm, z / norm


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


def _complement_eigenvectors(rows: tuple[Vector, Vector, Vector], w: Vector) -> tuple[Vector, Vector]:
    """The unit eigenvectors of the symmetric ``rows`` orthogonal to its eigenvector ``w``, larger eigenvalue first.

    With (u, v) a basis of w's orthogonal complement, ``rows`` act there as the
    symmetric 2x2 matrix M = [[m00, m01], [m01, m11]], which one Jacobi rotation
    by theta = atan2(2 m01, m00 - m11)/2 diagonalizes, the larger eigenvalue
    along cos(theta) u + sin(theta) v.  The rotation reads no eigenvalue, so the
    trigonometric formula's error on two close eigenvalues does not enter; a
    repeated eigenvalue gives theta = 0, u and v.
    """
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = rows
    (u0, u1, u2), (v0, v1, v2) = _complement(w)
    # B u and B v
    p0, p1, p2 = b00 * u0 + b01 * u1 + b02 * u2, b01 * u0 + b11 * u1 + b12 * u2, b02 * u0 + b12 * u1 + b22 * u2
    q0, q1, q2 = b00 * v0 + b01 * v1 + b02 * v2, b01 * v0 + b11 * v1 + b12 * v2, b02 * v0 + b12 * v1 + b22 * v2
    m00 = u0 * p0 + u1 * p1 + u2 * p2
    m01 = u0 * q0 + u1 * q1 + u2 * q2
    m11 = v0 * q0 + v1 * q1 + v2 * q2
    theta = 0.5 * math.atan2(2.0 * m01, m00 - m11)
    c, s = math.cos(theta), math.sin(theta)
    return ((c * u0 + s * v0, c * u1 + s * v1, c * u2 + s * v2),
            (c * v0 - s * u0, c * v1 - s * u1, c * v2 - s * u2))


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
