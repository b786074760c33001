"""The largest CHSH value of a pure state, and S along a rotation of Bob's settings.

Both read the state's 3x3 correlation matrix T only: S at directions
(u, u', v, v') is u^T T (v + v') + u'^T T (v - v').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError
from .lhv import chsh
from .quantum import TwoQubitState, UnitVector3, correlation_matrix

TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementSettings:
    """The four measurement directions (Alice's u, u'; Bob's v, v')."""

    alice_u: UnitVector3
    alice_u_prime: UnitVector3
    bob_v: UnitVector3
    bob_v_prime: UnitVector3

    def as_tuple(self) -> tuple[UnitVector3, UnitVector3, UnitVector3, UnitVector3]:
        return (self.alice_u, self.alice_u_prime, self.bob_v, self.bob_v_prime)


def tsirelson_settings() -> MeasurementSettings:
    """The xy-plane configuration achieving the maximal singlet violation.

    Alice measures along x and y; Bob along the two diagonals between them.
    On the singlet these give S = -2*sqrt(2).
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


def _directions(s: MeasurementSettings) -> tuple[np.ndarray, np.ndarray]:
    """Alice's (u, u') and Bob's (v, v') as the rows of two 2x3 matrices."""
    dirs = np.array([w.as_array() for w in s.as_tuple()])
    return dirs[:2], dirs[2:]


def chsh_of_settings(psi: TwoQubitState, s: MeasurementSettings) -> float:
    """S from the four quantum correlators U T V^T at the given directions."""
    alice, bob = _directions(s)
    return chsh((alice @ correlation_matrix(psi) @ bob.T).reshape(4))


def seesaw_maximize(psi: TwoQubitState, seed: int) -> OptimizationResult:
    """The largest S over all measurement directions, in closed form.

    With T = M diag(s) N^T the singular value decomposition of the state's
    correlation matrix (s1 >= s2 >= s3), Alice measures along the two leading
    left singular vectors m1, m2 and Bob along cos(t) n1 +/- sin(t) n2 with
    tan(t) = s2/s1, which gives S = 2 sqrt(s1^2 + s2^2), the maximum
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).
    ``best_s`` is therefore always positive.  ``seed`` is accepted for
    compatibility with the former seeded seesaw and does not affect the result.
    """
    left, sv, right_t = np.linalg.svd(correlation_matrix(psi))
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
) -> list[tuple[float, float]]:
    """Table of (angle in degrees, S) as Bob's pair of ``tsirelson_settings`` rotates about z.

    Angles are evenly spaced over [theta_start_deg, theta_end_deg] inclusive;
    the first row of the sweep from 0 on the singlet is (0, -2*sqrt(2)).
    """
    if steps < 2:
        raise InvalidInputError(f"steps must be >= 2, got {steps}")
    thetas = [theta_start_deg + (theta_end_deg - theta_start_deg) * i / (steps - 1)
              for i in range(steps)]
    # a non-finite bound, or bounds whose difference overflows, gives inf or nan angles
    if not np.all(np.isfinite(thetas)):
        raise InvalidInputError(
            f"sweep angles must be finite, got start {theta_start_deg!r} and end {theta_end_deg!r}")
    rad = np.radians(thetas)[:, None, None]
    c, s = np.cos(rad), np.sin(rad)
    z = np.array([0.0, 0.0, 1.0])
    alice, bob = _directions(tsirelson_settings())
    # Rodrigues rotation of both of Bob's directions by every angle: (steps, 2, 3)
    rotated = bob * c + np.cross(z, bob) * s + np.outer(bob @ z, z) * (1.0 - c)
    e = alice @ correlation_matrix(psi) @ rotated.transpose(0, 2, 1)
    return [(theta, chsh(row)) for theta, row in zip(thetas, e.reshape(steps, 4))]
