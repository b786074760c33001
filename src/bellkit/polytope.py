"""Membership of a behavior in the local polytope, two independent ways.

For two settings and two outcomes per party, a no-signaling behavior is a
mixture of the 16 deterministic behaviors exactly when all sign variants of
the CHSH combination stay within 2.  ``is_local`` checks the inequalities;
``local_decomposition`` builds an explicit convex decomposition instead,
giving an oracle that does not share code with the inequality test.  It
follows Fine's theorem (A. Fine, PRL 48, 291 (1982)): the measured pairs form
the cycle A0-B0-A1-B1, and a joint distribution of (A0, A1, B0, B1) exists iff
the chord A0-A1 can be completed so that both triangles (A0, A1, B_y) have a
nonnegative distribution; B0 and B1 are then independent given (A0, A1).
Like ``behavior``, both read a behavior's stored entries, Python floats, in numpy's order;
the weights are summed left to right by ``probabilities``.
``chsh_variants`` and ``is_local`` add the 8 signed sums of the 4 correlators
on Python floats in the written order of ``quantum``, not through BLAS.
"""

from __future__ import annotations

import math

from .behavior import (Behavior, _Frozen, _block_sums, _expected_products, deterministic_vertex_tables,
                       require_no_signaling)
from .errors import InvalidInputError
from .tolerance import BOUND_SLACK, probabilities, read_only_array

LOCAL_BOUND = 2.0
# the largest |S| of any quantum behavior (Tsirelson)
TSIRELSON = 2.0 * math.sqrt(2.0)


def _variants(ab: float, abp: float, apb: float, apbp: float) -> list[float]:
    """The 8 signed CHSH combinations, each added left to right to +0.0 as a BLAS accumulator is.

    One minus sign rotated through each position, then the negation of each.
    """
    return [0.0 - ab + abp + apb + apbp, 0.0 + ab - abp + apb + apbp, 0.0 + ab + abp - apb + apbp,
            0.0 + ab + abp + apb - apbp, 0.0 + ab - abp - apb - apbp, 0.0 - ab + abp - apb - apbp,
            0.0 - ab - abp + apb - apbp, 0.0 - ab - abp - apb + apbp]


def chsh_variants(e) -> np.ndarray:
    """The 8 signed CHSH combinations of four correlators."""
    import numpy as np
    e = np.asarray(e, dtype=float)
    if e.shape != (4,):
        raise InvalidInputError(f"need 4 correlators, got shape {e.shape}")
    return np.array(_variants(*e.tolist()))


def is_local(b: Behavior) -> bool:
    """True iff every CHSH sign variant is <= 2 + BOUND_SLACK.

    Only defined for no-signaling behaviors (the joint-distribution
    characterization presupposes no-signaling); signaling input is rejected.
    """
    require_no_signaling(b, "local-polytope membership")
    return max(_variants(*_expected_products(b._entries))) <= LOCAL_BOUND + BOUND_SLACK


class LocalDecomposition(_Frozen):
    """Convex weights over the 16 deterministic strategies, enumeration order."""

    weights: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, weights):
        import numpy as np
        w = np.asarray(weights, dtype=float)
        if w.shape != (16,):
            raise InvalidInputError(f"need 16 weights, got shape {w.shape}")
        object.__setattr__(self, "weights", read_only_array(probabilities(w.tolist(), "weights")))

    @classmethod
    def _of(cls, v: list[float]) -> LocalDecomposition:
        """The decomposition with the 16 weights ``v`` (Python floats), without an array round trip."""
        d = object.__new__(cls)
        object.__setattr__(d, "weights", read_only_array(probabilities(v, "weights")))
        return d

    def behavior(self) -> Behavior:
        """The mixture behavior these weights produce."""
        import numpy as np
        return Behavior(np.tensordot(self.weights, deterministic_vertex_tables(), axes=(0, 0)))


def local_decomposition(b: Behavior) -> LocalDecomposition | None:
    """Express ``b`` as a convex combination of deterministic behaviors, or None if it is not local.

    With p_x = P(A_x=+), q_y = P(B_y=+) and r_xy = P(A_x=+, B_y=+), triangle
    y has a nonnegative completion iff the chord's t = P(A0=+, A1=+) lies in an
    interval.  For nonlocal b the two leave a gap t_lo - t_hi = (S_max - 2)/4,
    so the verdict is None iff 4 times the gap exceeds BOUND_SLACK.  Otherwise t
    and each triangle's u_y = P(+,+,+) sit at the midpoints of their
    intervals, cells the slack leaves below 0 are clipped, and the weights are
    w(a0, a1, b0, b1) = P(a0, a1, b0) P(b1 | a0, a1).  Block probabilities are
    renormalized first so that input normalization slack (up to
    PROBABILITY_SLACK) does not masquerade as a gap.  Signaling input is
    rejected, as in ``is_local``.
    """
    require_no_signaling(b, "local decomposition")
    v0, v1, v2, _, v4, _, v6, _, v8, v9, _, _, v12, _, _, _ = v = b._entries  # index 8x + 4y + 2A + B
    s0, s1, s2, s3 = _block_sums(v)
    n0, n1, n2, n4, n6, n8, n9, n12 = v0 / s0, v1 / s0, v2 / s0, v4 / s1, v6 / s1, v8 / s2, v9 / s2, v12 / s3
    p0, p1 = n0 + n1, n8 + n9  # P(A_x=+), read in block (x, b)
    q0, q1 = n0 + n2, n4 + n6  # P(B_y=+), read in block (a, y); r_xy = P(A_x=+, B_y=+) is n0, n4, n8, n12
    t_lo = max(0.0, p0 + p1 - 1.0, n0 + n8 - q0, n4 + n12 - q1, p0 + p1 + q0 - n0 - n8 - 1.0,
               p0 + p1 + q1 - n4 - n12 - 1.0)
    t_hi = min(p0, p1, p0 - n0 + n8, p0 - n4 + n12, p1 + n0 - n8, p1 + n4 - n12)
    if 4.0 * (t_lo - t_hi) > BOUND_SLACK:
        return None
    t = 0.5 * (t_lo + t_hi)
    cells = []  # cells[y][4 a0 + 2 a1 + b_y] of both triangles, outcome index 0 meaning +1
    for q, r0, r1 in ((q0, n0, n8), (q1, n4, n12)):
        top = 1.0 - p0 - p1 - q + t + r0 + r1  # P(-,-,-) + u_y
        u = 0.5 * (max(0.0, t + r0 - p0, t + r1 - p1, r0 + r1 - q) + min(t, r0, r1, top))
        cells.append([c if c > 0.0 else 0.0 for c in (u, t - u, r0 - u, p0 - t - r0 + u, r1 - u,
                                                      p1 - t - r1 + u, q - r0 - r1 + u, top - u)])
    (tri_b, tri_bp), weights = cells, []  # the triangles (A, A', B) and (A, A', B')
    for k in (0, 2, 4, 6):  # k = 2 (2 a0 + a1)
        c0, c1, d0, d1 = tri_b[k], tri_b[k + 1], tri_bp[k], tri_bp[k + 1]
        pair = d0 + d1  # P(a0, a1), from triangle b'
        g0, g1 = (d0 / pair, d1 / pair) if pair > 0.0 else (0.0, 0.0)  # P(b1 | a0, a1)
        weights += (c0 * g0, c0 * g1, c1 * g0, c1 * g1)
    return LocalDecomposition._of(weights)
