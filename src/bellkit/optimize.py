"""The largest CHSH value of a pure state, and S along a rotation of Bob's settings.

Both read the state's 3x3 correlation matrix T only: S at directions
(u, u', v, v') is u^T T (v + v') + u'^T T (v - v').
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError
from .lhv import chsh
from .network import _CHUNK
from .quantum import TwoQubitState, UnitVector3, alice_rows, setting_correlators

# largest row count sweep() computes: the rows take 16 bytes each, their temporaries
# are bounded by the _CHUNK-row blocks, and `bellkit sweep` writes their CSV text
# _CHUNK rows at a time (a fresh `bellkit sweep singlet` peaks at 70 MB at 10^6 rows,
# ~33 MB of it start-up, and at 208 MB at 10^7 rows, on a 2-CPU x86-64 VM)
MAX_STEPS = 10 ** 7


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
    (ab, abp), (apb, apbp) = setting_correlators(psi.correlations[2], s.as_tuple())
    return chsh([ab, abp, apb, apbp])


def seesaw_maximize(psi: TwoQubitState, seed: int | None) -> OptimizationResult:
    """The largest S over all measurement directions, in closed form.

    With T = M diag(s) N^T the singular value decomposition of the state's
    correlation matrix (s1 >= s2 >= s3), Alice measures along the two leading
    left singular vectors m1, m2 and Bob along cos(t) n1 +/- sin(t) n2 with
    tan(t) = s2/s1, which gives S = 2 sqrt(s1^2 + s2^2), the maximum
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).
    ``best_s`` is therefore always positive.  ``seed`` is accepted for
    compatibility with the former seeded seesaw and does not affect the result.
    """
    left, sv, right_t = np.linalg.svd(psi.correlations[2])
    # the factors as Python floats: the same IEEE products and sums as numpy's, per component
    (m1, m2, _), (s1, s2, _), (n1, n2, _) = left.T.tolist(), sv.tolist(), right_t.tolist()
    theta = math.atan2(s2, s1)
    c, s = math.cos(theta), math.sin(theta)
    settings = MeasurementSettings(
        alice_u=UnitVector3(*m1),
        alice_u_prime=UnitVector3(*m2),
        bob_v=UnitVector3(*[c * i + s * j for i, j in zip(n1, n2)]),
        bob_v_prime=UnitVector3(*[c * i - s * j for i, j in zip(n1, n2)]),
    )
    return OptimizationResult(best_s=2.0 * math.hypot(s1, s2), settings=settings)


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
    # column-major, so that the S column is contiguous and min/max over it copy nothing
    rows = np.empty((steps, 2), order="F")
    u, up, v, vp = tsirelson_settings().as_tuple()
    at = alice_rows(psi.correlations[2], u, up)
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
