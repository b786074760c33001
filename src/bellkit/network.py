"""The five-variable causal network behind a local model.

The directed structure is fixed: a hidden source value feeds both outcomes,
each party's setting feeds only that party's outcome, and the source and the
two settings are mutually independent.  ``exact_joint`` multiplies the
factors out; ``verify_markov`` checks the implied conditional independencies
on a joint table (from a spec or hand-built, so that violations are testable);
``sample`` draws ancestrally with a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .behavior import Behavior, SETTING_LABELS_A, SETTING_LABELS_B, correlators
from .errors import InsufficientDataError, InvalidInputError
from .lhv import LHVModel, chsh
from .tolerance import ROUNDOFF, probability_vector

GENERATOR_NAME = "numpy.random.PCG64"
GENERATOR_VERSION = np.__version__

# records per step in sample(), _code_counts() and SampleDataset.to_csv; bounds their temporaries
_CHUNK = 1 << 16
# largest record count sample() draws: the record codes and their CSV text are
# held whole in memory, ~29 bytes per record at peak (a 2-value network: a fresh
# `bellkit sample` peaks at 64 MB at -n 1e6 and 120 MB at -n 3e6)
MAX_RECORDS = 10 ** 9


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Conditional-probability-table encoding of the source/settings/outcomes DAG.

    ``alice_cpt[k, x]`` is P(A=+1 | x, hidden value k); setting priors default
    to the symmetric (1/2, 1/2) when omitted.
    """

    model: LHVModel
    setting_prior_a: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))
    setting_prior_b: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))

    def __post_init__(self):
        for attr, name in (("setting_prior_a", "settingPriorA"), ("setting_prior_b", "settingPriorB")):
            object.__setattr__(self, attr, _setting_prior(getattr(self, attr), name))


def _setting_prior(values, name: str) -> np.ndarray:
    """``values`` as one party's distribution over its two settings; ``name`` names it in errors."""
    p = np.asarray(values, dtype=float)
    if p.shape != (2,):
        raise InvalidInputError(f"{name} must have 2 entries, got shape {p.shape}")
    return probability_vector(p, name)


def exact_joint(spec: NetworkSpec) -> np.ndarray:
    """Joint P(k, x, y, A, B) as an array of shape (n_lambda, 2, 2, 2, 2).

    Outcome axes use index 0 for +1 and 1 for -1, as in behavior tables.
    """
    model = spec.model
    pa = np.stack([model.alice_response, 1.0 - model.alice_response], axis=2)  # (k, x, A)
    pb = np.stack([model.bob_response, 1.0 - model.bob_response], axis=2)      # (k, y, B)
    return np.einsum("k,x,y,kxi,kyj->kxyij",
                     model.prior, spec.setting_prior_a, spec.setting_prior_b, pa, pb)


def conditional_behavior(joint: np.ndarray) -> Behavior:
    """P(A,B|x,y) from a joint table: marginalize the source, divide by P(x,y)."""
    joint = np.asarray(joint, dtype=float)
    p_xyab = joint.sum(axis=0)
    p_xy = p_xyab.sum(axis=(2, 3))
    if np.min(p_xy) <= 0.0:
        raise InvalidInputError("some setting pair has zero probability; conditioning undefined")
    return Behavior(p_xyab / p_xy[:, :, None, None])


@dataclass(frozen=True)
class MarkovReport:
    """Max absolute conditional-independence residuals for the three checks.

    ``source_settings`` covers mutual independence of the source value and the
    two settings; ``alice_screening`` covers A independent of (y, B) given
    (x, source); ``bob_screening`` is the mirror image.
    """

    source_settings: float
    alice_screening: float
    bob_screening: float

    @property
    def max_residual(self) -> float:
        return max(self.source_settings, self.alice_screening, self.bob_screening)

    def ok(self) -> bool:
        return self.max_residual <= ROUNDOFF


def verify_markov(spec_or_joint: NetworkSpec | np.ndarray) -> MarkovReport:
    """Conditional-independence residuals of a joint over (source, x, y, A, B).

    Accepts either a spec (whose exact joint is generated first) or a raw
    joint table, so that hand-built violating joints can be fed in directly.
    """
    if isinstance(spec_or_joint, NetworkSpec):
        joint = exact_joint(spec_or_joint)
    else:
        joint = np.asarray(spec_or_joint, dtype=float)
        if joint.ndim != 5 or joint.shape[1:] != (2, 2, 2, 2):
            raise InvalidInputError(
                f"joint must have shape (n, 2, 2, 2, 2), got {joint.shape}")
        joint = probability_vector(joint, "joint")

    p_kxy = joint.sum(axis=(3, 4))
    p_k = p_kxy.sum(axis=(1, 2))
    p_x = p_kxy.sum(axis=(0, 2))
    p_y = p_kxy.sum(axis=(0, 1))
    res_src = float(np.max(np.abs(p_kxy - np.einsum("k,x,y->kxy", p_k, p_x, p_y))))

    return MarkovReport(source_settings=res_src,
                        alice_screening=_screening_residual(joint),
                        bob_screening=_screening_residual(joint.transpose(0, 2, 1, 4, 3)))


def _screening_residual(joint: np.ndarray) -> float:
    """Max |P(y,A,B|x,k) - P(A|x,k) P(y,B|x,k)| over all (k, x) slices: A independent of (y, B).

    Slices without mass contribute 0.  Bob's residual is this one on the joint
    with the parties swapped, axes (k, y, x, B, A).
    """
    mass = joint.sum(axis=(2, 3, 4), keepdims=True)
    q = np.divide(joint, mass, out=np.zeros_like(joint), where=mass > 0.0)  # (k, x, y, A, B)
    qa = q.sum(axis=(2, 4))[:, :, None, :, None]
    qyb = q.sum(axis=3)[:, :, :, None, :]
    return float(np.max(np.abs(q - qa * qyb)))


@dataclass(frozen=True, eq=False)
class SampleDataset:
    """Ancestrally sampled records, immutable after creation.

    Record i is the code 16*lam + 8*x + 4*y + 2*[A = -1] + [B = -1]: ``lam``
    indexes ``labels``, ``x`` and ``y`` are setting indices (0 = unprimed),
    and the low two bits flag a -1 outcome.  Every code in
    [0, 16*len(labels)) is a valid record.

    ``code`` is stored read-only in the smallest signed integer dtype that
    holds 16*len(labels) - 1 (``_code_dtype``): int8 up to 8 labels, int16 up
    to 2048, int32 beyond.  The decoding shifts and masks above stay in range
    in that dtype; cast with ``astype(np.intp)`` before any other arithmetic.
    """

    labels: tuple[str, ...]
    code: np.ndarray

    def __post_init__(self):
        code = np.asarray(self.code)
        if code.ndim != 1 or code.dtype.kind not in "iu":
            raise InvalidInputError(
                f"record codes must be a 1-d integer array, got {code.dtype} of shape {code.shape}")
        if code.size and (code.min() < 0 or code.max() >= 16 * len(self.labels)):
            raise InvalidInputError(f"record codes must lie in [0, {16 * len(self.labels)})")
        # a view, so that the caller's array stays writable
        code = code.astype(_code_dtype(len(self.labels)), copy=False).view()
        code.setflags(write=False)
        object.__setattr__(self, "code", code)

    @property
    def count(self) -> int:
        return int(self.code.size)

    def to_csv(self) -> str:
        """CSV text with header ``lambda,x,y,A,B`` and one row per record.

        The row text of each code that occurs is formatted once, and the rows
        are gathered by code ``_CHUNK`` records at a time.
        """
        rows = np.empty(16 * len(self.labels), dtype=object)
        for c in np.flatnonzero(_code_counts(self.code, rows.size)).tolist():
            rows[c] = (f"{self.labels[c >> 4]},{SETTING_LABELS_A[c >> 3 & 1]},"
                       f"{SETTING_LABELS_B[c >> 2 & 1]},{'-1' if c & 2 else '+1'},"
                       f"{'-1' if c & 1 else '+1'}\n")
        parts = ["lambda,x,y,A,B\n"]
        for s in range(0, self.code.size, _CHUNK):
            parts.append("".join(rows[self.code[s:s + _CHUNK]].tolist()))
        return "".join(parts)


def _code_counts(code: np.ndarray, size: int) -> np.ndarray:
    """Occurrences of each code in [0, size) as int64, one ``np.bincount`` per ``_CHUNK`` records."""
    counts = np.zeros(size, dtype=np.int64)
    for s in range(0, code.size, _CHUNK):
        counts += np.bincount(code[s:s + _CHUNK], minlength=size)
    return counts


def _code_dtype(n_labels: int) -> np.dtype:
    """The smallest signed dtype holding codes below 16 * n_labels; signed, so ``1 - 2 * bit`` cannot wrap."""
    return np.min_scalar_type(-16 * n_labels)


def sample(spec: NetworkSpec, n: int, seed: int) -> SampleDataset:
    """Draw ``n`` records by ancestral sampling in order (source, x, y, A, B).

    One child stream of the seed sequence per sampled field, so the draw for
    each field is bit-reproducible for a fixed (spec, n, seed) and generator
    version regardless of intermediate consumption.  Records are drawn
    ``_CHUNK`` at a time into one preallocated code array; PCG64 yields the
    same doubles in chunks as in one call, so the chunk size changes no record.
    """
    if not 1 <= n <= MAX_RECORDS:
        raise InvalidInputError(f"sample count -n must be between 1 and {MAX_RECORDS}, got {n}")
    streams = [np.random.Generator(np.random.PCG64(child))
               for child in np.random.SeedSequence(seed).spawn(5)]
    model = spec.model
    cum_prior = np.cumsum(model.prior)
    code = np.empty(n, dtype=_code_dtype(model.size))
    for s in range(0, n, _CHUNK):
        m = min(_CHUNK, n - s)
        lam = np.searchsorted(cum_prior, streams[0].random(m), side="right")
        lam = np.minimum(lam, model.size - 1)  # guard against cumsum rounding at 1.0
        # settings as 0/1 integers, since a boolean array would index as a mask
        x = (streams[1].random(m) >= spec.setting_prior_a[0]).view(np.uint8)
        y = (streams[2].random(m) >= spec.setting_prior_b[0]).view(np.uint8)
        chunk = 16 * lam + 8 * x + 4 * y
        chunk += 2 * (streams[3].random(m) >= model.alice_response[lam, x])  # A = -1
        chunk += streams[4].random(m) >= model.bob_response[lam, y]          # B = -1
        code[s:s + m] = chunk
    return SampleDataset(labels=model.labels, code=code)


@dataclass(frozen=True)
class ChshEstimate:
    """Sample CHSH with its standard error and per-block record counts."""

    s: float
    stderr: float
    per_block_counts: tuple[int, int, int, int]


def estimate_chsh(dataset: SampleDataset) -> ChshEstimate:
    """Per-block means of A*B combined with the CHSH signs, in closed form from code counts.

    The counts are summed over the hidden value into a (x, y, A, B) table.
    In a block of m records of which k have A*B = -1, the mean of A*B is
    (m - 2k)/m and its unbiased variance estimate is 4k(m - k)/(m(m - 1)), so
    stderr = sqrt(sum_blocks 4k(m - k) / (m^2 (m - 1))).  The sum is one exact
    fraction of integers, divided once before the square root, so neither value
    depends on record order.  Every block must contain at least 2 records.
    """
    counts = _code_counts(dataset.code, 16 * len(dataset.labels)).reshape(-1, 2, 2, 2, 2).sum(axis=0)
    m = counts.sum(axis=(2, 3))
    if m.min() < 2:
        x, y = np.argwhere(m < 2)[0]
        raise InsufficientDataError(f"block ({SETTING_LABELS_A[x]},{SETTING_LABELS_B[y]}) has "
                                    f"{m[x, y]} record(s); need at least 2 per block")
    k = counts[:, :, 0, 1] + counts[:, :, 1, 0]  # A*B = -1 iff exactly one outcome is -1
    s = chsh(((m - 2 * k) / m).ravel())
    num, den = 0, 1
    for mi, ki in zip(m.ravel().tolist(), k.ravel().tolist()):
        block_den = mi * mi * (mi - 1)
        num, den = num * block_den + 4 * ki * (mi - ki) * den, den * block_den
    return ChshEstimate(s=s, stderr=math.sqrt(num / den),
                        per_block_counts=tuple(m.ravel().tolist()))


def exact_chsh(spec: NetworkSpec) -> float:
    """CHSH of the behavior obtained by conditioning the exact joint on (x, y)."""
    return chsh(correlators(conditional_behavior(exact_joint(spec))))
