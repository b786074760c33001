"""Conditional outcome tables P(A,B|x,y) for the 2-setting/2-outcome scenario.

A behavior is the operational record of a bipartite experiment: for each of
Alice's settings x in {a, a'} and Bob's settings y in {b, b'} it gives the
joint distribution of the +/-1 outcomes A and B.  Tables are stored as a
(2, 2, 2, 2) array indexed [x, y, A, B] with outcome index 0 meaning +1 and
index 1 meaning -1.

A behavior's 16 entries are validated once and kept as Python floats next to the
table built from them; every kernel reads them, in numpy's order of operations:
the bytes stay numpy's, without its per-call cost on tiny arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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


class _memo:
    """``functools.cached_property`` without its lock, which Python before 3.12 takes on every first read.

    A non-data descriptor: the first read of the attribute calls ``func`` and
    stores its value in the instance's ``__dict__``, where every later read finds it.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _clean_entries(v: list[float]) -> tuple[float, ...]:
    """The one validator of a table's 16 entries, Python floats at index 8x + 4y + 2A + B: checked and clamped."""
    if not all(map(math.isfinite, v)):
        raise InvalidInputError("behavior table contains non-finite entries")
    low = min(v)
    if low < -ROUNDOFF:
        raise InvalidInputError(f"behavior entry {low:.3e} below -{ROUNDOFF:g}")
    # float round-off in computed tables may leave entries slightly below 0; -0.0 becomes +0.0
    v = tuple(v) if low > 0.0 else tuple([x if x > 0.0 else 0.0 for x in v])
    sums = _block_sums(v)  # an overflowing sum is inf, refused just below
    off = [abs(s - 1.0) for s in sums]
    if max(off) > PROBABILITY_SLACK:
        k = off.index(max(off))  # the first worst block in C order
        raise InvalidInputError(f"block ({SETTING_LABELS_A[k >> 1]},{SETTING_LABELS_B[k & 1]}) "
                                f"sums to {sums[k]:.12g}, not 1")
    return v


def _block_sums(v) -> list[float]:
    """The four block sums of a flat table, each added left to right as numpy's ``sum(axis=(2, 3))`` does."""
    return [v[0] + v[1] + v[2] + v[3], v[4] + v[5] + v[6] + v[7], v[8] + v[9] + v[10] + v[11],
            v[12] + v[13] + v[14] + v[15]]


def _expected_products(v) -> list[float]:
    """E(x,y) = P(+,+) - P(+,-) - P(-,+) + P(-,-) of a flat table, added in the order numpy's einsum adds them."""
    return [v[0] - v[1] - v[2] + v[3], v[4] - v[5] - v[6] + v[7], v[8] - v[9] - v[10] + v[11],
            v[12] - v[13] - v[14] + v[15]]


@dataclass(frozen=True, eq=False)
class Behavior:
    """Validated table P(A,B|x,y), clamped at 0, blocks normalized within PROBABILITY_SLACK; entries in ``_entries``."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.shape != (2, 2, 2, 2):
            raise InvalidInputError(f"behavior table must have shape (2, 2, 2, 2), got {table.shape}")
        self._store(_clean_entries(table.ravel().tolist()))  # in C order, index 8x + 4y + 2A + B

    @classmethod
    def _of(cls, v: list[float]) -> Behavior:
        """The behavior with the 16 entries ``v`` (Python floats, index 8x + 4y + 2A + B), without an array."""
        b = object.__new__(cls)
        b._store(_clean_entries(v))
        return b

    def _store(self, entries: tuple[float, ...]) -> None:
        table = np.fromiter(entries, float, 16).reshape(2, 2, 2, 2)  # the bytes of np.array(entries), sooner
        table.setflags(write=False)
        self.__dict__.update(table=table, _entries=entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Behavior) and self._entries == other._entries

    @_memo
    def _no_signaling(self) -> NoSignalingReport:
        """``no_signaling``'s report, computed on first use."""
        v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 = self._entries
        # |P(A|x,b) - P(A|x,b')| per A for x = a, a', then |P(B|a,y) - P(B|a',y)| per B for y = b, b'
        alice = [max(abs((v0 + v1) - (v4 + v5)), abs((v2 + v3) - (v6 + v7))),
                 max(abs((v8 + v9) - (v12 + v13)), abs((v10 + v11) - (v14 + v15)))]
        bob = [max(abs((v0 + v2) - (v8 + v10)), abs((v1 + v3) - (v9 + v11))),
               max(abs((v4 + v6) - (v12 + v14)), abs((v5 + v7) - (v13 + v15)))]
        ok = max(alice) <= PROBABILITY_SLACK and max(bob) <= PROBABILITY_SLACK
        residuals = np.array(alice + bob)  # one read-only array; each party's half is a view of it
        residuals.setflags(write=False)
        return NoSignalingReport(ok=ok, alice_residuals=residuals[:2], bob_residuals=residuals[2:])


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
    shapes = (e.shape, ma.shape, mb.shape)
    if shapes != ((2, 2), (2,), (2,)):
        raise InvalidInputError(f"need 2x2 correlators and 2 marginals per party, got shapes {shapes}")
    return Behavior._of(_table_from_means(e.tolist(), ma.tolist(), mb.tolist()))


def _table_from_means(e: list[list[float]], ma: list[float], mb: list[float]) -> list[float]:
    """Entry 8x + 4y + 2A + B = (1 + A ma[x] + B mb[y] + AB e[x][y]) / 4 from Python floats, unvalidated.

    A product with -1 is a negation and adding a negation is a subtraction, both
    exact, so each block is written out with its signs.
    """
    v = []
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        m, n, c = ma[x], mb[y], e[x][y]
        v += [(1.0 + m + n + c) / 4.0, (1.0 + m - n - c) / 4.0, (1.0 - m + n - c) / 4.0, (1.0 - m - n + c) / 4.0]
    return v


def correlators(b: Behavior) -> np.ndarray:
    """The four expected products (E(a,b), E(a,b'), E(a',b), E(a',b'))."""
    return np.array(_expected_products(b._entries))


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
        v = _table_from_means(e.tolist(), ma.tolist(), mb.tolist())
        if min(v) >= 0.0:
            return Behavior._of(v)
    return b0
