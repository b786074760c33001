"""Local-hidden-variable models and the CHSH combination.

A model is a finite hidden-variable domain with a prior and per-value local
response probabilities.  Averaging the factorized responses over the prior
yields a behavior; the CHSH combination of its correlators never exceeds 2 in
magnitude, while the deterministic strategies realize exactly |S| = 2.
"""

from __future__ import annotations

import itertools
import re

from .behavior import DETERMINISTIC_OUTCOMES, Behavior, _Frozen, _array_memo
from .errors import InvalidInputError, excerpt
from .tolerance import BOUND_SLACK, ROUNDOFF, flat_values, probabilities


# characters a hidden-value label may not contain: those that would break its
# CSV field, and the lone surrogates, the only code points that a str holds and
# UTF-8 cannot encode
_CSV_UNSAFE = ',"\r\n'
_UNSAFE_LABEL = re.compile(f"[{_CSV_UNSAFE}\ud800-\udfff]")


class LHVModel(_Frozen):
    """Finite hidden-variable model: prior over labels plus local response tables.

    ``alice_response[k, x]`` is P(A=+1 | setting x, hidden value k) with x = 0
    for a and 1 for a'; ``bob_response`` likewise for b, b'.  The prior must
    pass ``probabilities`` and is renormalized to exact unit mass on input.
    Labels must be distinct UTF-8 text free of commas, double quotes, CR and LF,
    since each is written unquoted as one field of a sampled CSV row.  Kept as Python
    floats, ``_alice`` and ``_bob`` with P(+1 | x, k) at index 2k + x; arrays on first read.
    """

    labels: tuple[str, ...]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, labels, prior, alice_response, bob_response):
        labels = tuple(map(str, labels))
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
        prior = probabilities(flat_values(prior, (n,), "prior"), "prior")
        resp = [flat_values(alice_response, (n, 2), "alice_response"),
                flat_values(bob_response, (n, 2), "bob_response")]
        for name, r in zip(("alice_response", "bob_response"), resp):
            if not all(-ROUNDOFF <= x <= 1.0 + ROUNDOFF for x in r):  # a NaN entry fails both comparisons
                raise InvalidInputError(f"{name} entries must lie in [0, 1]")
        # clipped as numpy's clip(0.0, 1.0) clips, which keeps -0.0
        alice, bob = ([0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in r] for r in resp)
        self.__dict__.update(labels=labels, _prior=prior, _alice=alice, _bob=bob)

    prior = _array_memo("_prior")
    alice_response = _array_memo("_alice", (-1, 2))
    bob_response = _array_memo("_bob", (-1, 2))

    @property
    def size(self) -> int:
        return len(self.labels)


def lhv_behavior(model: LHVModel) -> Behavior:
    """The factorized behavior sum_k P(k) P(A|x,k) P(B|y,k), on Python floats in the order of numpy's einsum."""
    alice, bob = [], []  # P(k) P(A|x,k) over k at index 2x + A, and P(B|y,k) over k at index 2y + B
    for x in (0, 1):
        a, b = model._alice[x::2], model._bob[x::2]
        alice += ([p * r for p, r in zip(model._prior, a)], [p * (1.0 - r) for p, r in zip(model._prior, a)])
        bob += (b, [1.0 - r for r in b])
    v = []  # entry 8x + 4y + 2A + B adds (P(k) P(A|x,k)) P(B|y,k) over k left to right, as einsum does
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        acc = 0.0
        for s, t in zip(alice[2 * x + a], bob[2 * y + b]):
            acc += s * t
        v.append(acc)
    return Behavior._of(v)


def chsh(e) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') for the 4 correlators (ab, ab', a'b, a'b'), as a float."""
    v = flat_values(e, (4,), "correlators (ab, ab', a'b, a'b')")
    # a NaN fails the comparison; the worst is the first NaN, else the first of the largest |e|
    if not all(abs(x) <= 1.0 + BOUND_SLACK for x in v):
        raise InvalidInputError(f"correlator {max(v, key=lambda x: (x != x, abs(x))):.12g} outside [-1, 1]")
    ab, abp, apb, apbp = v
    return ab + abp + apb - apbp


def enumerate_deterministic() -> list[tuple[tuple[int, int, int, int], int]]:
    """All 16 deterministic strategies as ((a, a', b, b'), S), in DETERMINISTIC_OUTCOMES order.

    Outcomes and S are plain ints; every |S| equals 2.
    """
    return [((a, ap, b, bp), int(chsh([float(a * b), float(a * bp), float(ap * b), float(ap * bp)])))
            for a, ap, b, bp in DETERMINISTIC_OUTCOMES]


def random_model(rng: np.random.Generator, n_lambda: int | None = None) -> LHVModel:
    """Pseudo-random model: uniform responses, symmetric Dirichlet(1) prior.

    Covers the interior of the model polytope; used by the property suite.
    """
    n = int(rng.integers(1, 6)) if n_lambda is None else int(n_lambda)
    if n < 1:
        raise InvalidInputError(f"n_lambda must be >= 1, got {n}")
    return LHVModel(
        labels=tuple(f"l{i}" for i in range(n)),
        prior=rng.dirichlet([1.0] * n),
        alice_response=rng.uniform(0.0, 1.0, size=(n, 2)),
        bob_response=rng.uniform(0.0, 1.0, size=(n, 2)),
    )
