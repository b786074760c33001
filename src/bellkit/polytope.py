"""Membership of a behavior in the local polytope, two independent ways.

For two settings and two outcomes per party, a no-signaling behavior is a
mixture of the 16 deterministic behaviors exactly when all sign variants of
the CHSH combination stay within 2.  ``is_local`` checks the inequalities;
``local_decomposition`` searches for an explicit convex decomposition by
linear programming, giving an oracle that does not share code with the
inequality test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .behavior import Behavior, correlators, require_no_signaling
from .errors import InternalConsistencyError, InvalidInputError
from .lhv import deterministic_vertex_tables
from .tolerance import BOUND_SLACK, PROBABILITY_SLACK, probability_vector

LOCAL_BOUND = 2.0

# one minus sign rotated through each position, both overall signs
_CHSH_SIGNS = np.array([
    [-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1],
    [1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, -1, -1, 1],
], dtype=float)


def chsh_variants(e) -> np.ndarray:
    """The 8 signed CHSH combinations of four correlators."""
    e = np.asarray(e, dtype=float)
    if e.shape != (4,):
        raise InvalidInputError(f"need 4 correlators, got shape {e.shape}")
    return _CHSH_SIGNS @ e


def is_local(b: Behavior) -> bool:
    """True iff every CHSH sign variant is <= 2 + BOUND_SLACK.

    Only defined for no-signaling behaviors (the joint-distribution
    characterization presupposes no-signaling); signaling input is rejected.
    """
    require_no_signaling(b, "local-polytope membership")
    return bool(np.max(chsh_variants(correlators(b))) <= LOCAL_BOUND + BOUND_SLACK)


@dataclass(frozen=True, eq=False)
class LocalDecomposition:
    """Convex weights over the 16 deterministic strategies, enumeration order."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (16,):
            raise InvalidInputError(f"need 16 weights, got shape {w.shape}")
        object.__setattr__(self, "weights", probability_vector(w, "weights"))

    def behavior(self) -> Behavior:
        """The mixture behavior these weights produce."""
        return Behavior(np.tensordot(self.weights, deterministic_vertex_tables(), axes=(0, 0)))


def local_decomposition(b: Behavior) -> LocalDecomposition | None:
    """Express ``b`` as a convex combination of deterministic behaviors.

    Returns None when HiGHS reports the 16-variable feasibility LP (equality
    to each table entry, weights nonnegative) infeasible, i.e. the behavior
    lies outside the local polytope; any other solver failure raises
    InternalConsistencyError rather than pose as that verdict.  Block
    probabilities are renormalized before solving so that input normalization
    slack (up to PROBABILITY_SLACK) does not masquerade as infeasibility.
    """
    target = b.table / b.table.sum(axis=(2, 3), keepdims=True)
    vertex_matrix = deterministic_vertex_tables().reshape(16, 16).T  # (entries, weights)
    a_eq = np.vstack([vertex_matrix, np.ones(16)])
    b_eq = np.concatenate([target.reshape(16), [1.0]])
    res = linprog(
        c=np.zeros(16),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": PROBABILITY_SLACK},
    )
    if res.status == 2:  # HiGHS: the problem is infeasible
        return None
    if not res.success:
        raise InternalConsistencyError(
            f"local decomposition LP failed (status {res.status}): {res.message}")
    weights = np.clip(res.x, 0.0, None)
    return LocalDecomposition(weights / weights.sum())
