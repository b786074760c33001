"""Conditional outcome tables P(A,B|x,y) for the 2-setting/2-outcome scenario.

A behavior is the operational record of a bipartite experiment: for each of
Alice's settings x in {a, a'} and Bob's settings y in {b, b'} it gives the
joint distribution of the +/-1 outcomes A and B.  Tables are stored as a
(2, 2, 2, 2) array indexed [x, y, A, B] with outcome index 0 meaning +1 and
index 1 meaning -1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidInputError
from .tolerance import PROBABILITY_SLACK, ROUNDOFF

SETTING_LABELS_A = ("a", "a'")
SETTING_LABELS_B = ("b", "b'")
OUTCOME_VALUES = (+1, -1)

# outcome values by index, used to form expectation weights
_VALS = np.array(OUTCOME_VALUES, dtype=float)

# the 16 deterministic strategies: outcomes (a, a', b, b'), lexicographic with +1 first
DETERMINISTIC_OUTCOMES = np.array(list(itertools.product(OUTCOME_VALUES, repeat=4)))
DETERMINISTIC_OUTCOMES.setflags(write=False)

# random_no_signaling_behavior's jitter on each mean value, and its cap on redraws
_PERTURBATION = 0.2
_MAX_TRIES = 200


def _clean_table(p) -> np.ndarray:
    table = np.asarray(p, dtype=float)
    if table.shape != (2, 2, 2, 2):
        raise InvalidInputError(f"behavior table must have shape (2, 2, 2, 2), got {table.shape}")
    if not np.isfinite(table).all():
        raise InvalidInputError("behavior table contains non-finite entries")
    if table.min() < -ROUNDOFF:
        raise InvalidInputError(f"behavior entry {table.min():.3e} below -{ROUNDOFF:g}")
    # float round-off in computed tables may leave entries slightly below 0
    table = table.clip(0.0, None)
    with np.errstate(over="ignore"):  # an overflowing sum is inf, refused just below
        block_sums = table.sum(axis=(2, 3))
    if abs(block_sums - 1.0).max() > PROBABILITY_SLACK:
        worst = np.unravel_index(np.argmax(np.abs(block_sums - 1.0)), (2, 2))
        raise InvalidInputError(
            f"block ({SETTING_LABELS_A[worst[0]]},{SETTING_LABELS_B[worst[1]]}) "
            f"sums to {block_sums[worst]:.12g}, not 1"
        )
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Behavior:
    """Validated table P(A,B|x,y); entries clamped at 0, blocks normalized within PROBABILITY_SLACK."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _clean_table(self.table))

    def __eq__(self, other) -> bool:
        return isinstance(other, Behavior) and np.array_equal(self.table, other.table)

    @cached_property
    def _no_signaling(self) -> NoSignalingReport:
        """``no_signaling``'s report, computed on first use."""
        p_a = self.table.sum(axis=3)  # P(A|x,y), indexed [x, y, A]
        p_b = self.table.sum(axis=2)  # P(B|x,y), indexed [x, y, B]
        alice = abs(p_a[:, 0] - p_a[:, 1]).max(axis=1)
        bob = abs(p_b[0] - p_b[1]).max(axis=1)
        alice.setflags(write=False)
        bob.setflags(write=False)
        ok = bool(alice.max() <= PROBABILITY_SLACK and bob.max() <= PROBABILITY_SLACK)
        return NoSignalingReport(ok=ok, alice_residuals=alice, bob_residuals=bob)


def uniform_behavior() -> Behavior:
    """All sixteen entries 1/4: uncorrelated fair coins under every setting pair."""
    return Behavior(np.full((2, 2, 2, 2), 0.25))


def pr_box() -> Behavior:
    """The no-signaling extreme point with correlators (1, 1, 1, -1) and uniform marginals."""
    e = np.array([[1.0, 1.0], [1.0, -1.0]])
    return behavior_from_correlators(e)


def behavior_from_correlators(
    e: np.ndarray,
    alice_marginals: np.ndarray | None = None,
    bob_marginals: np.ndarray | None = None,
) -> Behavior:
    """Build the no-signaling behavior with the given mean values.

    ``e[x, y]`` is the expected product E(x,y); ``alice_marginals[x]`` and
    ``bob_marginals[y]`` are the expectations of A and B (default 0, i.e.
    uniform marginals).  Raises if the resulting table has a negative entry.
    """
    e = np.asarray(e, dtype=float)
    ma = np.zeros(2) if alice_marginals is None else np.asarray(alice_marginals, dtype=float)
    mb = np.zeros(2) if bob_marginals is None else np.asarray(bob_marginals, dtype=float)
    return Behavior(_table_from_means(e, ma, mb))


def _table_from_means(e: np.ndarray, ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Entry [x, y, A, B] = (1 + A ma[x] + B mb[y] + AB e[x, y]) / 4, unvalidated."""
    a_term = np.multiply.outer(ma, _VALS)[:, None, :, None]
    b_term = np.multiply.outer(mb, _VALS)[None, :, None, :]
    ab_term = np.multiply.outer(e, np.multiply.outer(_VALS, _VALS))
    return (1.0 + a_term + b_term + ab_term) / 4.0


def correlators(b: Behavior) -> np.ndarray:
    """The four expected products (E(a,b), E(a,b'), E(a',b), E(a',b'))."""
    e = np.einsum("xyij,i,j->xy", b.table, _VALS, _VALS)
    return np.array([e[0, 0], e[0, 1], e[1, 0], e[1, 1]])


@dataclass(frozen=True, eq=False)
class NoSignalingReport:
    """Verdict plus the max residual for each of the four marginal constraints.

    ``alice_residuals[x]`` is max_A |P(A|x,b) - P(A|x,b')|; ``bob_residuals[y]``
    likewise with the roles swapped.  Both arrays are read-only.
    """

    ok: bool
    alice_residuals: np.ndarray
    bob_residuals: np.ndarray

    def __bool__(self) -> bool:
        return self.ok

    @property
    def max_residual(self) -> float:
        return float(max(self.alice_residuals.max(), self.bob_residuals.max()))


def no_signaling(b: Behavior) -> NoSignalingReport:
    """Check that each party's outcome marginals ignore the other's setting within PROBABILITY_SLACK.

    The report is computed once per behavior and shared by every later call;
    its residual arrays are read-only.
    """
    return b._no_signaling


def require_no_signaling(b: Behavior, what: str) -> None:
    """Raise, naming the max marginal residual, if ``b`` signals; ``what`` names what needs it not to."""
    report = no_signaling(b)
    if not report.ok:
        raise InvalidInputError(
            f"behavior signals (max marginal residual {report.max_residual:.3e}); "
            f"no-signaling is required for {what}"
        )


@lru_cache(maxsize=1)
def deterministic_vertex_tables() -> np.ndarray:
    """(16, 2, 2, 2, 2) array: the tables of DETERMINISTIC_OUTCOMES, the vertices of the local polytope."""
    one_hot = (DETERMINISTIC_OUTCOMES[:, :, None] == _VALS).astype(float)  # [strategy, setting, outcome]
    tables = one_hot[:, :2, None, :, None] * one_hot[:, None, 2:, None, :]
    tables.setflags(write=False)
    return tables


def random_no_signaling_behavior(rng: np.random.Generator) -> Behavior:
    """Draw a pseudo-random no-signaling behavior, local or not.

    Starts from a Dirichlet mixture of the 16 deterministic behaviors; half the
    time blends it toward a random extremal no-signaling box (a sign pattern
    whose CHSH combination reaches 4), which carries many draws outside the
    local polytope.  A final jitter of the 8 no-signaling coordinates (two
    outcome means per party plus four correlators) is rejection-sampled until
    every table entry is nonnegative.
    """
    weights = rng.dirichlet(np.ones(16))
    base = np.tensordot(weights, deterministic_vertex_tables(), axes=(0, 0))
    if rng.random() < 0.5:
        signs = np.where(rng.random(3) < 0.5, 1.0, -1.0)
        signs = np.append(signs, -np.prod(signs))  # odd parity: extremal box
        box = behavior_from_correlators(signs.reshape(2, 2)).table
        mu = rng.random()
        base = (1.0 - mu) * base + mu * box
    b0 = Behavior(base)
    e0 = correlators(b0).reshape(2, 2)
    ma0 = b0.table[:, 0].sum(axis=2) @ _VALS
    mb0 = b0.table[0].sum(axis=1) @ _VALS
    for _ in range(_MAX_TRIES):
        e = e0 + rng.uniform(-_PERTURBATION, _PERTURBATION, size=(2, 2))
        ma = ma0 + rng.uniform(-_PERTURBATION, _PERTURBATION, size=2)
        mb = mb0 + rng.uniform(-_PERTURBATION, _PERTURBATION, size=2)
        table = _table_from_means(e, ma, mb)
        if table.min() >= 0.0:
            return Behavior(table)
    return b0
