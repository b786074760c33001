"""Local-hidden-variable models and the CHSH combination.

A model is a finite hidden-variable domain with a prior and per-value local
response probabilities.  Averaging the factorized responses over the prior
yields a behavior; the CHSH combination of its correlators never exceeds 2 in
magnitude, while the deterministic strategies realize exactly |S| = 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .behavior import DETERMINISTIC_OUTCOMES, Behavior
from .errors import InvalidInputError, excerpt
from .tolerance import BOUND_SLACK, ROUNDOFF, probability_vector


# characters a hidden-value label may not contain: those that would break its
# CSV field, and the lone surrogates, the only code points that a str holds and
# UTF-8 cannot encode
_CSV_UNSAFE = ',"\r\n'
_UNSAFE_LABEL = re.compile(f"[{_CSV_UNSAFE}\ud800-\udfff]")


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
        labels = tuple(map(str, self.labels))
        n = len(labels)
        if n == 0:
            raise InvalidInputError("hidden-variable domain is empty")
        # one search over all labels; the loop only picks the message
        if _UNSAFE_LABEL.search("".join(labels)):
            label = next(s for s in labels if _UNSAFE_LABEL.search(s))
            if any(c in label for c in _CSV_UNSAFE):
                raise InvalidInputError(f"label {excerpt(repr(label))} contains a comma, double quote, CR or LF")
            raise InvalidInputError(f"label {excerpt(repr(label))} cannot be encoded as UTF-8")
        if len(set(labels)) != n:
            repeated = next(s for s in labels if labels.count(s) > 1)
            raise InvalidInputError(f"label {excerpt(repr(repeated))} names more than one hidden value")
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (n,):
            raise InvalidInputError(f"prior must have shape ({n},), got {prior.shape}")
        prior = probability_vector(prior, "prior")
        resp_a = np.asarray(self.alice_response, dtype=float)
        resp_b = np.asarray(self.bob_response, dtype=float)
        for name, resp in (("alice_response", resp_a), ("bob_response", resp_b)):
            if resp.shape != (n, 2):
                raise InvalidInputError(f"{name} must have shape ({n}, 2), got {resp.shape}")
        # both tables checked and clipped as one (2n, 2) array; each stored table is a read-only view of it
        resp = np.concatenate((resp_a, resp_b))
        if not _in_unit_interval(resp):
            name = "bob_response" if _in_unit_interval(resp_a) else "alice_response"
            raise InvalidInputError(f"{name} entries must lie in [0, 1]")
        resp = resp.clip(0.0, 1.0)
        resp.setflags(write=False)
        resp_a, resp_b = resp[:n], resp[n:]
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "alice_response", resp_a)
        object.__setattr__(self, "bob_response", resp_b)

    @property
    def size(self) -> int:
        return len(self.labels)


def _in_unit_interval(resp: np.ndarray) -> bool:
    """Every entry within ``ROUNDOFF`` of [0, 1]; a NaN entry fails both comparisons."""
    return bool(resp.min() >= -ROUNDOFF and resp.max() <= 1.0 + ROUNDOFF)


def _outcome_axis(response: np.ndarray) -> np.ndarray:
    """P(+1|x,k) and P(-1|x,k) along a new last outcome axis: (k, x) -> (k, x, 2)."""
    return np.stack([response, 1.0 - response], axis=2)


def lhv_behavior(model: LHVModel) -> Behavior:
    """The factorized behavior sum_k P(k) P(A|x,k) P(B|y,k)."""
    pa, pb = _outcome_axis(model.alice_response), _outcome_axis(model.bob_response)
    table = np.einsum("k,kxi,kyj->xyij", model.prior, pa, pb)
    return Behavior(table)


def chsh(e) -> float | np.ndarray:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b'): a float for 4 correlators, an array for (n, 4)."""
    e = np.asarray(e, dtype=float)
    # Python floats for 4 correlators in range: the same IEEE sums, without numpy's per-scalar
    # cost; a NaN fails the comparison, and every refusal takes the checks below
    if e.shape == (4,):
        ab, abp, apb, apbp = v = e.tolist()
        if all(abs(x) <= 1.0 + BOUND_SLACK for x in v):
            return ab + abp + apb - apbp
    if e.ndim > 2 or e.shape[-1:] != (4,):
        raise InvalidInputError(f"need 4 correlators (ab, ab', a'b, a'b'), got shape {e.shape}")
    # negated <= so that a NaN correlator fails the check too
    if not np.abs(e).max(initial=0.0) <= 1.0 + BOUND_SLACK:
        raise InvalidInputError(f"correlator {e.flat[np.argmax(np.abs(e))]:.12g} outside [-1, 1]")
    ab, abp, apb, apbp = e.T
    return ab + abp + apb - apbp


def enumerate_deterministic() -> list[tuple[tuple[int, int, int, int], int]]:
    """All 16 deterministic strategies as ((a, a', b, b'), S), in DETERMINISTIC_OUTCOMES order.

    Outcomes and S are plain ints; every |S| equals 2.
    """
    a, ap, b, bp = DETERMINISTIC_OUTCOMES.T
    values = chsh(np.stack([a * b, a * bp, ap * b, ap * bp], axis=1))
    return [(tuple(s), int(v)) for s, v in zip(DETERMINISTIC_OUTCOMES.tolist(), values)]


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
