"""The largest CHSH value of a pure state, and S along a rotation of Bob's settings.

Both read the state's 3x3 correlation matrix T only: S at directions
(u, u', v, v') is u^T T (v + v') + u'^T T (v - v').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError
from .lhv import chsh
from .network import _CHUNK
from .quantum import TwoQubitState, UnitVector3, _directions

TSIRELSON = 2.0 * math.sqrt(2.0)

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
    """S from the four quantum correlators U T V^T at the given directions."""
    alice, bob = _directions(s.as_tuple())
    return chsh((alice @ psi.correlations[2] @ bob.T).reshape(4))


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
    theta = math.atan2(sv[1], sv[0])
    c, s = math.cos(theta), math.sin(theta)
    settings = MeasurementSettings(
        alice_u=UnitVector3(*left[:, 0]),
        alice_u_prime=UnitVector3(*left[:, 1]),
        bob_v=UnitVector3(*(c * right_t[0] + s * right_t[1])),
        bob_v_prime=UnitVector3(*(c * right_t[0] - s * right_t[1])),
    )
    return OptimizationResult(best_s=2.0 * math.hypot(sv[0], sv[1]), settings=settings)


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
    alice, bob = _directions(tsirelson_settings().as_tuple())
    x, y, z = bob.T
    at = alice @ psi.correlations[2]
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
        rad = np.radians(thetas)[:, None]
        c, s = np.cos(rad), np.sin(rad)
        # both of Bob's directions (x, y, z) rotated about z by every angle: (n, 2, 3)
        rotated = np.stack([x * c - y * s, y * c + x * s, np.broadcast_to(z, (n, 2))], axis=2)
        rows[start:start + n, 0] = thetas
        rows[start:start + n, 1] = chsh((at @ rotated.transpose(0, 2, 1)).reshape(n, 4))
    return rows
