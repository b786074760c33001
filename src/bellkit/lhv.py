"""Local-hidden-variable models and the CHSH combination.

A model is a finite hidden-variable domain with a prior and per-value local
response probabilities.  Averaging the factorized responses over the prior
yields a behavior; the CHSH combination of its correlators never exceeds 2 in
magnitude, while the deterministic strategies realize exactly |S| = 2.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .behavior import Behavior
from .errors import InvalidInputError
from .tolerance import BOUND_SLACK, ROUNDOFF, probability_vector


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed +/-1 outcomes for each of the four settings."""

    a_out: int
    a_prime_out: int
    b_out: int
    b_prime_out: int

    def __post_init__(self):
        for name, val in (("a_out", self.a_out), ("a_prime_out", self.a_prime_out),
                          ("b_out", self.b_out), ("b_prime_out", self.b_prime_out)):
            if val not in (+1, -1):
                raise InvalidInputError(f"{name} must be +1 or -1, got {val!r}")

    def chsh_value(self) -> int:
        """S for this strategy, in exact integer arithmetic."""
        return (self.a_out * self.b_out + self.a_out * self.b_prime_out
                + self.a_prime_out * self.b_out - self.a_prime_out * self.b_prime_out)


# characters a hidden-value label may not contain
_CSV_UNSAFE = re.compile('[,"\r\n]')
# lone surrogates, the only code points that a str holds and UTF-8 cannot encode
_NOT_UTF8 = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True, eq=False)
class LHVModel:
    """Finite hidden-variable model: prior over labels plus local response tables.

    ``alice_response[k, x]`` is P(A=+1 | setting x, hidden value k) with x = 0
    for a and 1 for a'; ``bob_response`` likewise for b, b'.  The prior must
    pass ``probability_vector`` and is renormalized to exact unit mass on input.
    Labels must be distinct UTF-8 text free of commas, double quotes, CR and LF,
    since each is written unquoted as one field of a sampled CSV row.
    """

    labels: tuple[str, ...]
    prior: np.ndarray
    alice_response: np.ndarray
    bob_response: np.ndarray

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        n = len(labels)
        if n == 0:
            raise InvalidInputError("hidden-variable domain is empty")
        for label in labels:
            if _CSV_UNSAFE.search(label):
                raise InvalidInputError(f"label {label!r} contains a comma, double quote, CR or LF")
            if _NOT_UTF8.search(label):
                raise InvalidInputError(f"label {label!r} cannot be encoded as UTF-8")
        if len(set(labels)) != n:
            repeated = next(s for s in labels if labels.count(s) > 1)
            raise InvalidInputError(f"label {repeated!r} names more than one hidden value")
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (n,):
            raise InvalidInputError(f"prior must have shape ({n},), got {prior.shape}")
        prior = probability_vector(prior, "prior")
        resp_a = np.asarray(self.alice_response, dtype=float)
        resp_b = np.asarray(self.bob_response, dtype=float)
        for name, resp in (("alice_response", resp_a), ("bob_response", resp_b)):
            if resp.shape != (n, 2):
                raise InvalidInputError(f"{name} must have shape ({n}, 2), got {resp.shape}")
            # negated >= / <= forms so that NaN entries fail the check too
            if not resp.min() >= -ROUNDOFF or not resp.max() <= 1.0 + ROUNDOFF:
                raise InvalidInputError(f"{name} entries must lie in [0, 1]")
        resp_a = resp_a.clip(0.0, 1.0)
        resp_b = resp_b.clip(0.0, 1.0)
        for arr in (resp_a, resp_b):
            arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "alice_response", resp_a)
        object.__setattr__(self, "bob_response", resp_b)

    @property
    def size(self) -> int:
        return len(self.labels)


def lhv_behavior(model: LHVModel) -> Behavior:
    """The factorized behavior sum_k P(k) P(A|x,k) P(B|y,k)."""
    # stack P(A|x,k) for A = +1, -1 along a new outcome axis: shape (k, x, A)
    pa = np.stack([model.alice_response, 1.0 - model.alice_response], axis=2)
    pb = np.stack([model.bob_response, 1.0 - model.bob_response], axis=2)
    table = np.einsum("k,kxi,kyj->xyij", model.prior, pa, pb)
    return Behavior(table)


def chsh(e) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    e = np.asarray(e, dtype=float)
    if e.shape != (4,):
        raise InvalidInputError(f"need 4 correlators (ab, ab', a'b, a'b'), got shape {e.shape}")
    if np.max(np.abs(e)) > 1.0 + BOUND_SLACK:
        raise InvalidInputError(f"correlator {e[np.argmax(np.abs(e))]:.12g} outside [-1, 1]")
    return float(e[0] + e[1] + e[2] - e[3])


def enumerate_deterministic() -> list[tuple[DeterministicStrategy, int]]:
    """All 16 deterministic strategies with their S values.

    Order is lexicographic in (a_out, a_prime_out, b_out, b_prime_out) with +1
    before -1; every |S| equals 2.
    """
    out = []
    for signs in itertools.product((+1, -1), repeat=4):
        s = DeterministicStrategy(*signs)
        out.append((s, s.chsh_value()))
    return out


def strategy_to_model(s: DeterministicStrategy) -> LHVModel:
    """Embed a deterministic strategy as a single-value model with 0/1 responses."""
    def plus_prob(out: int) -> float:
        return 1.0 if out == +1 else 0.0

    return LHVModel(
        labels=("l0",),
        prior=np.array([1.0]),
        alice_response=np.array([[plus_prob(s.a_out), plus_prob(s.a_prime_out)]]),
        bob_response=np.array([[plus_prob(s.b_out), plus_prob(s.b_prime_out)]]),
    )


def model_chsh(model: LHVModel) -> float:
    """S via per-value conditional means, averaged over the prior.

    With abar(x,k) = 2 P(A=+1|x,k) - 1 and bbar likewise, S(k) combines the
    four products with the CHSH signs and S = sum_k P(k) S(k).  The triangle
    bound |u+v| + |u-v| <= 2 for |u|,|v| <= 1 forces |S| <= 2.
    """
    abar = 2.0 * model.alice_response - 1.0
    bbar = 2.0 * model.bob_response - 1.0
    s_k = (abar[:, 0] * bbar[:, 0] + abar[:, 0] * bbar[:, 1]
           + abar[:, 1] * bbar[:, 0] - abar[:, 1] * bbar[:, 1])
    return float(model.prior @ s_k)


def mix_models(m1: LHVModel, m2: LHVModel, w: float) -> LHVModel:
    """Prior mixture w*m1 + (1-w)*m2 on the disjoint union of the domains."""
    if not 0.0 <= w <= 1.0:
        raise InvalidInputError(f"mixture weight must be in [0, 1], got {w}")
    return LHVModel(
        labels=tuple(f"p.{s}" for s in m1.labels) + tuple(f"q.{s}" for s in m2.labels),
        prior=np.concatenate([w * m1.prior, (1.0 - w) * m2.prior]),
        alice_response=np.vstack([m1.alice_response, m2.alice_response]),
        bob_response=np.vstack([m1.bob_response, m2.bob_response]),
    )


def random_model(rng: np.random.Generator, n_lambda: int | None = None) -> LHVModel:
    """Pseudo-random model: uniform responses, symmetric Dirichlet(1) prior.

    Covers the interior of the model polytope; used by the property suite.
    """
    n = int(rng.integers(1, 6)) if n_lambda is None else int(n_lambda)
    if n < 1:
        raise InvalidInputError(f"n_lambda must be >= 1, got {n}")
    return LHVModel(
        labels=tuple(f"l{i}" for i in range(n)),
        prior=rng.dirichlet(np.ones(n)),
        alice_response=rng.uniform(0.0, 1.0, size=(n, 2)),
        bob_response=rng.uniform(0.0, 1.0, size=(n, 2)),
    )


@lru_cache(maxsize=1)
def deterministic_vertex_tables() -> np.ndarray:
    """(16, 2, 2, 2, 2) array: behavior tables of the strategies in enumeration order."""
    tables = np.stack([lhv_behavior(strategy_to_model(s)).table
                       for s, _ in enumerate_deterministic()])
    tables.setflags(write=False)
    return tables


def deterministic_behavior(s: DeterministicStrategy) -> Behavior:
    """The (0/1-valued) behavior realized by a deterministic strategy."""
    return lhv_behavior(strategy_to_model(s))
