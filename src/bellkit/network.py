"""The five-variable causal network behind a local model.

The directed structure is fixed: a hidden source value feeds both outcomes,
each party's setting feeds only that party's outcome, and the source and the
two settings are mutually independent.  ``exact_joint`` multiplies the
factors out; ``verify_markov`` checks the implied conditional independencies
on a joint table (from a spec or hand-built, so that violations are testable);
``sample`` draws ancestrally with a seeded generator, and ``exact_chsh`` gives
the S that its estimate tracks: the model's, whatever the setting priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .behavior import Behavior, SETTING_LABELS_A, SETTING_LABELS_B, _memo, correlators
from .errors import InsufficientDataError, InvalidInputError
from .lhv import LHVModel, _outcome_axis, chsh, lhv_behavior
from .tolerance import probability_vector

GENERATOR_NAME = "numpy.random.PCG64"
GENERATOR_VERSION = np.__version__

# rows per step in sample(), SampleDataset._code_counts and sweep(), and per CSV piece that
# `bellkit sample` and `bellkit sweep` write; bounds their temporaries
_CHUNK = 1 << 16
# largest record count sample() draws: the record codes are held whole in memory,
# 1 byte per record up to 8 hidden values and 2 up to 2048, and `bellkit sample`
# writes their CSV text _CHUNK rows at a time (a 2-value network: a fresh
# `bellkit sample` peaks at 39 MB at -n 1e6, 48 MB at -n 1e7 and 134 MB at -n 1e8,
# ~33 MB of it start-up, and sample() takes ~25-45 ms per 10^6 records, most of
# it drawing the five streams' doubles, on a 2-CPU x86-64 VM)
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
            p = np.asarray(getattr(self, attr), dtype=float)
            if p.shape != (2,):
                raise InvalidInputError(f"{name} must have 2 entries, got shape {p.shape}")
            object.__setattr__(self, attr, probability_vector(p, name))


def exact_joint(spec: NetworkSpec) -> np.ndarray:
    """Joint P(k, x, y, A, B) as an array of shape (n_lambda, 2, 2, 2, 2).

    Outcome axes use index 0 for +1 and 1 for -1, as in behavior tables.
    """
    model = spec.model
    pa, pb = _outcome_axis(model.alice_response), _outcome_axis(model.bob_response)
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

    @_memo
    def _code_counts(self) -> np.ndarray:
        """Occurrences of each code in [0, 16*len(labels)) as int64; counted on first use, read-only.

        The CSV rows and ``estimate_chsh`` both read it, so the codes are
        counted once per dataset, one ``np.bincount`` per ``_CHUNK`` records.
        """
        counts = np.zeros(16 * len(self.labels), dtype=np.int64)
        for s in range(0, self.count, _CHUNK):
            counts += np.bincount(self.code[s:s + _CHUNK], minlength=counts.size)
        counts.setflags(write=False)
        return counts

    @_memo
    def _rows(self) -> np.ndarray:
        """Each code's CSV row text, None for a code that does not occur; formatted on first use, read-only."""
        rows = np.empty(16 * len(self.labels), dtype=object)
        for c in np.flatnonzero(self._code_counts).tolist():
            rows[c] = (f"{self.labels[c >> 4]},{SETTING_LABELS_A[c >> 3 & 1]},"
                       f"{SETTING_LABELS_B[c >> 2 & 1]},{'-1' if c & 2 else '+1'},"
                       f"{'-1' if c & 1 else '+1'}\n")
        rows.setflags(write=False)
        return rows

    def to_csv(self, start: int = 0, stop: int | None = None) -> str:
        """CSV text of records ``[start, stop)``, led by the header ``lambda,x,y,A,B`` iff ``start == 0``.

        The texts of consecutive ranges join to the text of their union, so a
        caller can write the file piece by piece.  The rows are gathered by
        code from ``_rows``.
        """
        header = "lambda,x,y,A,B\n" if start == 0 else ""
        return header + "".join(self._rows[self.code[start:stop]].tolist())


def _code_dtype(n_labels: int) -> np.dtype:
    """The smallest signed dtype holding codes below 16 * n_labels; signed, so ``1 - 2 * bit`` cannot wrap."""
    return np.min_scalar_type(-16 * n_labels)


def _guide_table(cut: np.ndarray, size: int) -> np.ndarray:
    """Indexed-search table over the nondecreasing cut points ``cut`` in ``size`` equal buckets of [0, 1).

    Entry i counts the cut points <= i/size, or is -1 where a cut point lies
    strictly inside (i/size, (i+1)/size).  ``size`` must be a power of two, so
    that ``cut * size`` is exact.
    """
    scaled = cut * size
    table = np.searchsorted(scaled, np.arange(size), side="right")
    table[scaled[(scaled < size) & (scaled != np.floor(scaled))].astype(np.intp)] = -1
    return table


def _hidden_values(u: np.ndarray, cut: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cut, u, side="right")`` for keys ``u`` in [0, 1), through a ``_guide_table``.

    A key's bucket is i = floor(u * size), exact for a power-of-two size, so
    i/size <= u < (i+1)/size: the cut points <= u are the table's count, unless
    one lies inside the bucket.  Only the keys in such buckets are searched.
    """
    lam = table.take((u * table.size).astype(np.intp))
    late = np.flatnonzero(lam < 0)
    lam[late] = np.searchsorted(cut, u[late], side="right")
    return lam


def sample(spec: NetworkSpec, n: int, seed: int) -> SampleDataset:
    """Draw ``n`` records by ancestral sampling in order (source, x, y, A, B).

    One child stream of the seed sequence per sampled field, so the draw for
    each field is bit-reproducible for a fixed (spec, n, seed) and generator
    version regardless of intermediate consumption.  Records are drawn
    ``_CHUNK`` at a time into one preallocated code array; PCG64 yields the
    same doubles in chunks as in one call, so the chunk size changes no record.

    The hidden value of key u is the number of interior cut points
    ``cumsum(prior)[:-1]`` that are <= u.  That equals the inverse-CDF index
    ``min(searchsorted(cumsum(prior), u, "right"), K - 1)``: the cumulative sum
    of nonnegative terms never decreases, so the last cut point is <= u only
    when all are.  It is found by indexed search (Chen & Asau, AIIE Trans. 6,
    163 (1974); Devroye, Non-Uniform Random Variate Generation, III.2.4
    (1986)), which is exact for any power-of-two table size: the size changes
    only how many keys fall back to a binary search, never a record.
    """
    if not 1 <= n <= MAX_RECORDS:
        raise InvalidInputError(f"sample count -n must be between 1 and {MAX_RECORDS}, got {n}")
    streams = [np.random.Generator(np.random.PCG64(child))
               for child in np.random.SeedSequence(seed).spawn(5)]
    model = spec.model
    cut = np.cumsum(model.prior)[:-1]
    # the table costs ~size to build, and a key falls back to the binary search
    # with chance at most (K - 1)/size, so a power of two near sqrt(n * K)
    # balances the two; at most _CHUNK entries, the length of one chunk's keys
    table = _guide_table(cut, min(_CHUNK, 1 << math.isqrt(n * model.size - 1).bit_length()))
    # P(+1 | x, k) at flat index 2*k + x
    alice, bob = model.alice_response.ravel(), model.bob_response.ravel()
    code = np.empty(n, dtype=_code_dtype(model.size))
    for s in range(0, n, _CHUNK):
        m = min(_CHUNK, n - s)
        alice_index = _hidden_values(streams[0].random(m), cut, table)
        alice_index <<= 1
        x = streams[1].random(m) >= spec.setting_prior_a[0]
        y = streams[2].random(m) >= spec.setting_prior_b[0]
        bob_index = alice_index + y
        alice_index += x
        # 16*lam + 8*x + 4*y + 2*[A = -1] + [B = -1] in Horner form from 2*lam + x,
        # in the code dtype, where no partial sum exceeds the final code
        out = code[s:s + m]
        out[...] = alice_index
        out <<= 1
        out += y
        out <<= 1
        out += streams[3].random(m) >= alice.take(alice_index)  # A = -1
        out <<= 1
        out += streams[4].random(m) >= bob.take(bob_index)      # B = -1
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
    counts = dataset._code_counts.reshape(-1, 2, 2, 2, 2).sum(axis=0)
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
    """S of the spec's model by the path of ``bellkit chsh`` on a model file, to the last bit.

    The settings are independent of the source, so P(A,B|x,y) is the model's
    ``lhv_behavior`` sum_k P(k) P(A|x,k) P(B|y,k) for any setting priors.
    """
    return chsh(correlators(lhv_behavior(spec.model)))
