"""Conditional outcome tables P(A,B|x,y) for the 2-setting/2-outcome scenario.

A behavior is the operational record of a bipartite experiment: for each of
Alice's settings x in {a, a'} and Bob's settings y in {b, b'} it gives the
joint distribution of the +/-1 outcomes A and B.  Tables are stored as a
(2, 2, 2, 2) array indexed [x, y, A, B] with outcome index 0 meaning +1 and
index 1 meaning -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

SETTING_LABELS_A = ("a", "a'")
SETTING_LABELS_B = ("b", "b'")
OUTCOME_VALUES = (+1, -1)

# outcome values by index, used to form expectation weights
_VALS = np.array(OUTCOME_VALUES, dtype=float)

NEGATIVITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
NO_SIGNALING_TOL = 1e-9
LOCAL_BOUND_TOL = 1e-9


def _clean_table(p) -> np.ndarray:
    table = np.asarray(p, dtype=float)
    if table.shape != (2, 2, 2, 2):
        raise InvalidInputError(f"behavior table must have shape (2, 2, 2, 2), got {table.shape}")
    if not np.all(np.isfinite(table)):
        raise InvalidInputError("behavior table contains non-finite entries")
    if np.min(table) < -NEGATIVITY_TOL:
        raise InvalidInputError(f"behavior entry {np.min(table):.3e} below -{NEGATIVITY_TOL:g}")
    # float round-off in computed tables may leave entries at -1e-16 or so
    table = np.clip(table, 0.0, None)
    block_sums = table.sum(axis=(2, 3))
    if np.max(np.abs(block_sums - 1.0)) > NORMALIZATION_TOL:
        worst = np.unravel_index(np.argmax(np.abs(block_sums - 1.0)), (2, 2))
        raise InvalidInputError(
            f"block ({SETTING_LABELS_A[worst[0]]},{SETTING_LABELS_B[worst[1]]}) "
            f"sums to {block_sums[worst]:.12g}, not 1"
        )
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Behavior:
    """Validated table P(A,B|x,y); entries clamped at 0, blocks normalized within 1e-9."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _clean_table(self.table))

    def block(self, x: int, y: int) -> np.ndarray:
        """2x2 block [[P(+,+), P(+,-)], [P(-,+), P(-,-)]] for settings (x, y)."""
        return self.table[x, y]

    def alice_marginal(self, x: int, y: int) -> np.ndarray:
        """(P(A=+1|x,y), P(A=-1|x,y))."""
        return self.table[x, y].sum(axis=1)

    def bob_marginal(self, x: int, y: int) -> np.ndarray:
        """(P(B=+1|x,y), P(B=-1|x,y))."""
        return self.table[x, y].sum(axis=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Behavior) and np.array_equal(self.table, other.table)


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
    likewise with the roles swapped.
    """

    ok: bool
    alice_residuals: np.ndarray
    bob_residuals: np.ndarray
    tol: float = field(default=NO_SIGNALING_TOL)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def max_residual(self) -> float:
        return float(max(self.alice_residuals.max(), self.bob_residuals.max()))


def no_signaling(b: Behavior, tol: float = NO_SIGNALING_TOL) -> NoSignalingReport:
    """Check that each party's outcome marginals ignore the other's setting."""
    alice = np.array([
        np.max(np.abs(b.alice_marginal(x, 0) - b.alice_marginal(x, 1))) for x in range(2)
    ])
    bob = np.array([
        np.max(np.abs(b.bob_marginal(0, y) - b.bob_marginal(1, y))) for y in range(2)
    ])
    ok = bool(alice.max() <= tol and bob.max() <= tol)
    return NoSignalingReport(ok=ok, alice_residuals=alice, bob_residuals=bob, tol=tol)


def random_no_signaling_behavior(
    rng: np.random.Generator,
    perturbation: float = 0.2,
    max_tries: int = 200,
) -> Behavior:
    """Draw a pseudo-random no-signaling behavior, local or not.

    Starts from a Dirichlet mixture of the 16 deterministic behaviors; half the
    time blends it toward a random extremal no-signaling box (a sign pattern
    whose CHSH combination reaches 4), which carries many draws outside the
    local polytope.  A final jitter of the 8 no-signaling coordinates (two
    outcome means per party plus four correlators) is rejection-sampled until
    every table entry is nonnegative.
    """
    from .lhv import deterministic_vertex_tables  # local import; lhv builds on this module

    weights = rng.dirichlet(np.ones(16))
    base = np.tensordot(weights, deterministic_vertex_tables(), axes=(0, 0))
    if rng.random() < 0.5:
        signs = np.where(rng.random(3) < 0.5, 1.0, -1.0)
        signs = np.append(signs, -np.prod(signs))  # odd parity: extremal box
        box = behavior_from_correlators(signs.reshape(2, 2)).table
        mu = rng.random()
        base = (1.0 - mu) * base + mu * box
    if perturbation <= 0.0:
        return Behavior(base)
    b0 = Behavior(base)
    e0 = np.einsum("xyij,i,j->xy", b0.table, _VALS, _VALS)
    ma0 = np.array([b0.alice_marginal(x, 0) @ _VALS for x in range(2)])
    mb0 = np.array([b0.bob_marginal(0, y) @ _VALS for y in range(2)])
    for _ in range(max_tries):
        e = e0 + rng.uniform(-perturbation, perturbation, size=(2, 2))
        ma = ma0 + rng.uniform(-perturbation, perturbation, size=2)
        mb = mb0 + rng.uniform(-perturbation, perturbation, size=2)
        table = _table_from_means(e, ma, mb)
        if table.min() >= 0.0:
            return Behavior(table)
    return b0
