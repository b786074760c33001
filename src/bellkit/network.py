"""The five-variable causal network behind a local model.

The directed structure is fixed: a hidden source value feeds both outcomes,
each party's setting feeds only that party's outcome, and the source and the
two settings are mutually independent.  ``exact_joint`` multiplies the
factors out; ``verify_markov`` checks the implied conditional independencies
on a joint table (from a spec or hand-built, so that violations are testable);
``sample`` draws ancestrally with a seeded generator.
"""

from __future__ import annotations

import io as _io
from dataclasses import dataclass, field

import numpy as np

from .behavior import Behavior, SETTING_LABELS_A, SETTING_LABELS_B, correlators
from .errors import InsufficientDataError, InvalidInputError
from .lhv import LHVModel, PRIOR_TOL, chsh

GENERATOR_NAME = "numpy.random.PCG64"
GENERATOR_VERSION = np.__version__


def _validated_prob_pair(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise InvalidInputError(f"{name} must have 2 entries, got shape {arr.shape}")
    if np.min(arr) < 0.0 or not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} entries must be nonnegative and finite")
    if abs(arr.sum() - 1.0) > PRIOR_TOL:
        raise InvalidInputError(f"{name} sums to {arr.sum():.12g}, not 1")
    arr = arr / arr.sum()
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "setting_prior_a",
                           _validated_prob_pair(self.setting_prior_a, "settingPriorA"))
        object.__setattr__(self, "setting_prior_b",
                           _validated_prob_pair(self.setting_prior_b, "settingPriorB"))


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

    def ok(self, tol: float = 1e-12) -> bool:
        return self.max_residual <= tol


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
        if np.min(joint) < -1e-12:
            raise InvalidInputError("joint has negative entries")
        if abs(joint.sum() - 1.0) > PRIOR_TOL:
            raise InvalidInputError(f"joint sums to {joint.sum():.12g}, not 1")

    p_kxy = joint.sum(axis=(3, 4))
    p_k = p_kxy.sum(axis=(1, 2))
    p_x = p_kxy.sum(axis=(0, 2))
    p_y = p_kxy.sum(axis=(0, 1))
    res_src = float(np.max(np.abs(p_kxy - np.einsum("k,x,y->kxy", p_k, p_x, p_y))))

    # A independent of (y, B) given (x, k): within each (k, x) slice the
    # conditional over (A, y, B) must factor into P(A|x,k) * P(y,B|x,k)
    res_a = 0.0
    res_b = 0.0
    n = joint.shape[0]
    for k in range(n):
        for x in range(2):
            slice_ayb = joint[k, x]            # (y, A, B)
            mass = slice_ayb.sum()
            if mass <= 0.0:
                continue
            q = slice_ayb / mass
            qa = q.sum(axis=(0, 2))            # (A,)
            qyb = q.sum(axis=1)                # (y, B)
            res_a = max(res_a, float(np.max(np.abs(q - np.einsum("i,yj->yij", qa, qyb)))))
        for y in range(2):
            slice_bxa = joint[k, :, y]         # (x, A, B)
            mass = slice_bxa.sum()
            if mass <= 0.0:
                continue
            q = slice_bxa / mass
            qb = q.sum(axis=(0, 1))            # (B,)
            qxa = q.sum(axis=2)                # (x, A)
            res_b = max(res_b, float(np.max(np.abs(q - np.einsum("j,xi->xij", qb, qxa)))))
    return MarkovReport(source_settings=res_src, alice_screening=res_a, bob_screening=res_b)


@dataclass(frozen=True, eq=False)
class SampleDataset:
    """Ancestrally sampled records, immutable after creation.

    ``lam`` holds indices into ``labels``; ``x`` and ``y`` are setting indices
    (0 = unprimed); ``a`` and ``b`` hold the +/-1 outcomes.  Metadata records
    the seed and the generator identity/version the stream depends on.
    """

    labels: tuple[str, ...]
    lam: np.ndarray
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    seed: int
    generator: str = GENERATOR_NAME
    generator_version: str = GENERATOR_VERSION

    def __post_init__(self):
        for name in ("lam", "x", "y", "a", "b"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.lam.shape[0]
        if any(getattr(self, name).shape != (n,) for name in ("x", "y", "a", "b")):
            raise InvalidInputError("record arrays must share one length")
        if n and (self.lam.min() < 0 or self.lam.max() >= len(self.labels)):
            raise InvalidInputError("lambda index out of range")
        for name in ("x", "y"):
            arr = getattr(self, name)
            if n and not np.all((arr == 0) | (arr == 1)):
                raise InvalidInputError(f"{name} values must be 0 or 1")
        for name in ("a", "b"):
            arr = getattr(self, name)
            if n and not np.all(np.abs(arr) == 1):
                raise InvalidInputError(f"{name} values must be +1 or -1")

    @property
    def count(self) -> int:
        return int(self.lam.shape[0])

    def to_csv(self) -> str:
        """CSV text with header ``lambda,x,y,A,B`` and one row per record."""
        buf = _io.StringIO()
        buf.write("lambda,x,y,A,B\n")
        for k, x, y, a, b in zip(self.lam, self.x, self.y, self.a, self.b):
            buf.write(f"{self.labels[k]},{SETTING_LABELS_A[x]},{SETTING_LABELS_B[y]},{a:+d},{b:+d}\n")
        return buf.getvalue()


def sample(spec: NetworkSpec, n: int, seed: int) -> SampleDataset:
    """Draw ``n`` records by ancestral sampling in order (source, x, y, A, B).

    One child stream of the seed sequence per sampled field, so the draw for
    each field is bit-reproducible for a fixed (spec, n, seed) and generator
    version regardless of intermediate consumption.
    """
    if n < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {n}")
    streams = [np.random.Generator(np.random.PCG64(child))
               for child in np.random.SeedSequence(seed).spawn(5)]
    model = spec.model
    lam = np.searchsorted(np.cumsum(model.prior), streams[0].random(n), side="right")
    lam = np.minimum(lam, model.size - 1)  # guard against cumsum rounding at 1.0
    x = (streams[1].random(n) >= spec.setting_prior_a[0]).astype(np.int64)
    y = (streams[2].random(n) >= spec.setting_prior_b[0]).astype(np.int64)
    a = np.where(streams[3].random(n) < model.alice_response[lam, x], 1, -1).astype(np.int64)
    b = np.where(streams[4].random(n) < model.bob_response[lam, y], 1, -1).astype(np.int64)
    return SampleDataset(labels=model.labels, lam=lam, x=x, y=y, a=a, b=b, seed=int(seed))


@dataclass(frozen=True)
class ChshEstimate:
    """Sample CHSH with its standard error and per-block record counts."""

    s: float
    stderr: float
    per_block_counts: tuple[int, int, int, int]


def estimate_chsh(dataset: SampleDataset) -> ChshEstimate:
    """Per-block means of A*B combined with the CHSH signs.

    The standard error adds the per-block variances of the block means:
    stderr = sqrt(sum_blocks var_hat / n_block), with the unbiased variance
    estimate.  Every block must contain at least 2 records.
    """
    products = (dataset.a * dataset.b).astype(float)
    means = np.empty((2, 2))
    var_of_mean = np.empty((2, 2))
    counts = np.empty((2, 2), dtype=int)
    for x in range(2):
        for y in range(2):
            mask = (dataset.x == x) & (dataset.y == y)
            m = int(mask.sum())
            counts[x, y] = m
            if m < 2:
                raise InsufficientDataError(
                    f"block ({SETTING_LABELS_A[x]},{SETTING_LABELS_B[y]}) has "
                    f"{m} record(s); need at least 2 per block"
                )
            block = products[mask]
            means[x, y] = block.mean()
            var_of_mean[x, y] = block.var(ddof=1) / m
    s = chsh(np.array([means[0, 0], means[0, 1], means[1, 0], means[1, 1]]))
    stderr = float(np.sqrt(var_of_mean.sum()))
    return ChshEstimate(s=s, stderr=stderr,
                        per_block_counts=(int(counts[0, 0]), int(counts[0, 1]),
                                          int(counts[1, 0]), int(counts[1, 1])))


def exact_chsh(spec: NetworkSpec) -> float:
    """CHSH of the behavior obtained by conditioning the exact joint on (x, y)."""
    return chsh(correlators(conditional_behavior(exact_joint(spec))))
