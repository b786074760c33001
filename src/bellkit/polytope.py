"""Membership of a behavior in the local polytope, two independent ways.

For two settings and two outcomes per party, a no-signaling behavior is a
mixture of the 16 deterministic behaviors exactly when all sign variants of
the CHSH combination stay within 2.  ``is_local`` checks the inequalities;
``local_decomposition`` finds an explicit convex decomposition instead,
giving an oracle that does not share code with the inequality test.  In the
Collins-Gisin coordinates (P(A=+|x), P(B=+|y), P(+,+|x,y)) the 16 vertices
are 0/1 vectors, every affinely independent 9-subset of them spans a simplex
with an integer inverse, and by Caratheodory's theorem a behavior is local
iff its barycentric weights in one of these simplices are all nonnegative.
The 4096 simplices share 384 distinct barycentric functionals, so the
weights of all of them come from 384 dot products and one index table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .behavior import Behavior, correlators, deterministic_vertex_tables, require_no_signaling
from .errors import InvalidInputError
from .tolerance import BOUND_SLACK, probability_vector

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
    return bool(chsh_variants(correlators(b)).max() <= LOCAL_BOUND + BOUND_SLACK)


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


def _collins_gisin(tables: np.ndarray) -> np.ndarray:
    """Homogeneous coordinates (1, P(A=+|x), P(B=+|y), P(+,+|x,y)) of tables [..., x, y, A, B]."""
    lead = tables.shape[:-4]
    return np.concatenate([
        np.ones(lead + (1,)),
        tables[..., :, 0, 0, :].sum(axis=-1),
        tables[..., 0, :, :, 0].sum(axis=-1),
        tables[..., 0, 0].reshape(lead + (4,)),
    ], axis=-1)


@lru_cache(maxsize=1)
def _vertex_simplices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4096 vertex 9-subsets spanning a simplex, their barycentric functionals, and which is which.

    Every such simplex's coordinate matrix has determinant +/-1, so its
    inverse is an integer matrix, and column j of the inverse is the
    functional that gives vertex slot j its weight.  Across all 36,864
    (slot, simplex) pairs only 384 functionals are distinct, each with
    entries in [-2, 2].  They are returned as the columns of a
    [coordinate, functional] array, with ``which[slot, simplex]`` indexing
    them, so that ``(coordinates @ functionals)[which]`` gives the weights of
    all simplices.  The C(16, 9) = 11,440 subsets are walked in blocks that
    keep only the spanning subsets and a key per inverse column; only the
    simplices holding each functional's first occurrence are inverted again.
    The build takes ~50 ms and ~3.5 MB of transient memory, and keeps 0.62 MB.
    """
    vertices = _collins_gisin(deterministic_vertex_tables())
    # balanced base 5 is one-to-one on integer columns with entries in [-2, 2], and exact in float64
    scale = 5.0 ** np.arange(9)
    walk = combinations(range(16), 9)  # lexicographic
    subsets, keys = [], []
    # 512 subsets are 0.3 MB of matrices: a small transient, and few enough LAPACK calls
    while (block := np.fromiter(chain.from_iterable(islice(walk, 512)), np.intp).reshape(-1, 9)).size:
        block = block[np.abs(np.linalg.det(vertices[block])) > 0.5]
        subsets.append(block)
        keys.append(scale @ np.rint(np.linalg.inv(vertices[block])))  # [simplex, vertex slot]
    subsets, key = np.concatenate(subsets), np.concatenate(keys)
    _, first, which = np.unique(key.ravel(), return_index=True, return_inverse=True)
    inverses = np.rint(np.linalg.inv(vertices[subsets[first // 9]]))  # [functional, coordinate, vertex slot]
    functionals = np.ascontiguousarray(inverses[np.arange(first.size), :, first % 9].T)
    which = np.ascontiguousarray(which.reshape(key.shape).T)
    for arr in (subsets, functionals, which):
        arr.setflags(write=False)
    return subsets, functionals, which


def local_decomposition(b: Behavior) -> LocalDecomposition | None:
    """Express ``b`` as a convex combination of deterministic behaviors, or None if it is not local.

    Takes the vertex simplex whose smallest barycentric weight is largest.
    Block probabilities are renormalized first so that input normalization
    slack (up to PROBABILITY_SLACK) does not masquerade as a negative weight.
    Signaling input is rejected, as in ``is_local``.
    """
    require_no_signaling(b, "local decomposition")
    target = b.table / b.table.sum(axis=(2, 3), keepdims=True)
    subsets, functionals, which = _vertex_simplices()
    weights = (_collins_gisin(target) @ functionals)[which]  # [vertex slot, simplex]
    best = np.argmax(weights.min(axis=0))
    # a vertex off a CHSH facet has S = -2 there, so its weight is (2 - S)/4: 4 converts to S units
    if -4.0 * weights[:, best].min() > BOUND_SLACK:
        return None
    full = np.zeros(16)
    full[subsets[best]] = weights[:, best]
    return LocalDecomposition(full)
