"""Shared fixtures and helpers for the suite."""

from __future__ import annotations

import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellkit import (
    Behavior,
    InvalidInputError,
    LHVModel,
    LocalDecomposition,
    NonlocalWitness,
    UnitVector3,
    chsh,
    correlators,
    lhv_behavior,
    quantum_behavior,
    singlet,
    tsirelson_settings,
)
from bellkit.behavior import OUTCOME_VALUES, SETTING_LABELS_A, SETTING_LABELS_B, NoSignalingReport, require_no_signaling
from bellkit.tolerance import AMPLITUDE_SLACK, BOUND_SLACK, PROBABILITY_SLACK, ROUNDOFF

# outcome values by index, used to form expectation weights
_VALS = np.array(OUTCOME_VALUES, dtype=float)


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")


def _rusage_rise(field: str, setup: str, measured: str, *argv: str) -> int:
    """The rise of ``getrusage(RUSAGE_SELF).<field>`` across the code ``measured`` in a fresh interpreter.

    ``setup`` runs first.  Both are Python source run with ``sys`` imported
    and ``argv`` as ``sys.argv[1:]``.  That interpreter is started by a small
    one in between: a child's ru_maxrss starts at its parent's high-water
    mark, and pytest's own would hide the rise.
    """
    launch = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"
    code = (f"import resource, sys\n{setup}\n"
            f"before = resource.getrusage(resource.RUSAGE_SELF).{field}\n"
            f"{measured}\n"
            f"print(resource.getrusage(resource.RUSAGE_SELF).{field} - before)\n")
    out = subprocess.run([sys.executable, "-c", launch, "-c", code, *argv], env=src_env(),
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def peak_rise_mb(setup: str, measured: str, *argv: str) -> float:
    """The ru_maxrss rise in MB across ``measured`` after ``setup``, run as ``_rusage_rise`` runs them.

    ru_maxrss is in KiB on Linux only.
    """
    return _rusage_rise("ru_maxrss", setup, measured, *argv) / 1024


def minor_fault_rise(setup: str, measured: str, *argv: str) -> int:
    """The ru_minflt rise across ``measured`` after ``setup``, run as ``_rusage_rise`` runs them.

    A minor fault is a page the kernel maps in without reading it from disk,
    as it does for each fresh page of a large allocation.
    """
    return _rusage_rise("ru_minflt", setup, measured, *argv)


@pytest.fixture(scope="session")
def singlet_behavior() -> Behavior:
    """Singlet outcome table at the maximal-violation settings."""
    return quantum_behavior(singlet(), tsirelson_settings().as_tuple())


# Independent oracle for the quantum layer: projectors and Kronecker products
# on the 4-dimensional state, sharing no arithmetic with bellkit's (a, b, T) core.

_AXES = (UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0), UnitVector3(0.0, 0.0, 1.0))
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def pauli_dot(v) -> np.ndarray:
    """The spin observable v.sigma = v.x sigma_x + v.y sigma_y + v.z sigma_z as a 2x2 matrix."""
    return v.x * _PAULI[0] + v.y * _PAULI[1] + v.z * _PAULI[2]


def _expectation(psi, op4: np.ndarray) -> float:
    val = np.vdot(psi.amp, op4 @ psi.amp)
    assert abs(val.imag) <= 1e-12
    return float(val.real)


def _projectors(v) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors (1 + v.sigma)/2 and (1 - v.sigma)/2."""
    m = pauli_dot(v)
    eye = np.eye(2, dtype=complex)
    return (eye + m) / 2.0, (eye - m) / 2.0


def kron_correlation(psi, u, v) -> float:
    """<psi| (u.sigma) (x) (v.sigma) |psi>."""
    return _expectation(psi, np.kron(pauli_dot(u), pauli_dot(v)))


def kron_correlation_matrix(psi) -> np.ndarray:
    return np.array([[kron_correlation(psi, u, v) for v in _AXES] for u in _AXES])


def kron_behavior_table(psi, settings) -> np.ndarray:
    """Entry [x, y, A, B] = <psi| Pi_A(x) (x) Pi_B(y) |psi> for settings (u, u', v, v')."""
    alice = [_projectors(w) for w in settings[:2]]
    bob = [_projectors(w) for w in settings[2:]]
    table = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for i in range(2):
                for j in range(2):
                    table[x, y, i, j] = _expectation(psi, np.kron(alice[x][i], bob[y][j]))
    return table


def random_direction(rng) -> UnitVector3:
    """A uniformly distributed direction: a standard normal 3-vector, normalized."""
    v = rng.standard_normal(3)
    return UnitVector3(*(v / np.linalg.norm(v)))


def chsh_via_behavior(psi, settings) -> float:
    """S of ``MeasurementSettings`` through the projector outcome table."""
    return chsh(correlators(Behavior(kron_behavior_table(psi, settings.as_tuple()))))


# Independent oracle for the 16 deterministic strategies: one-value models
# with 0/1 responses, averaged by lhv_behavior, in place of bellkit's one-hot tables.

def deterministic_model(a: int, ap: int, b: int, bp: int) -> LHVModel:
    """The strategy with outcomes (a, a', b, b') as a single-value model with 0/1 responses."""
    def plus_prob(out: int) -> float:
        return 1.0 if out == +1 else 0.0

    return LHVModel(
        labels=("l0",),
        prior=np.array([1.0]),
        alice_response=np.array([[plus_prob(a), plus_prob(ap)]]),
        bob_response=np.array([[plus_prob(b), plus_prob(bp)]]),
    )


# Independent formula for a model's S, sharing no table with bellkit's
# lhv_behavior -> correlators -> chsh path.

def model_chsh(model: LHVModel) -> float:
    """S via per-value conditional means, averaged over the prior.

    With abar(x,k) = 2 P(A=+1|x,k) - 1 and bbar likewise, the correlators
    E(x,y) = sum_k P(k) abar(x,k) bbar(y,k) go through ``chsh``.  Per value,
    the triangle bound |u+v| + |u-v| <= 2 for |u|,|v| <= 1 forces |S| <= 2.
    The prior product is a BLAS call, so its last bit may depend on the CPU.
    """
    abar = 2.0 * model.alice_response - 1.0
    bbar = 2.0 * model.bob_response - 1.0
    return chsh(model.prior @ (abar[:, :, None] * bbar[:, None, :]).reshape(-1, 4))


def oracle_vertex_tables() -> np.ndarray:
    """(16, 2, 2, 2, 2) tables of the strategies, lexicographic in (a, a', b, b') with +1 first."""
    return np.stack([lhv_behavior(deterministic_model(*s)).table
                     for s in itertools.product((+1, -1), repeat=4)])


# Independent reference for local_decomposition's verdict: barycentric weights
# in every spanning vertex simplex, one inverse per simplex, in place of the chord.

def collins_gisin(t: np.ndarray) -> np.ndarray:
    """(1, P(A=+|a), P(A=+|a'), P(B=+|b), P(B=+|b'), P(+,+|x,y) for xy = ab, ab', a'b, a'b')."""
    return np.array([1.0, t[0, 0, 0].sum(), t[1, 0, 0].sum(), t[0, 0, :, 0].sum(), t[0, 1, :, 0].sum(),
                     t[0, 0, 0, 0], t[0, 1, 0, 0], t[1, 0, 0, 0], t[1, 1, 0, 0]])


@functools.lru_cache(maxsize=1)
def simplex_inverses() -> tuple[np.ndarray, np.ndarray]:
    """The spanning vertex 9-subsets in lexicographic order, and their rounded inverses [coordinate, slot, simplex]."""
    vertices = np.array([collins_gisin(t) for t in oracle_vertex_tables()])
    subsets, inverses = [], []
    for subset in itertools.combinations(range(16), 9):
        m = vertices[list(subset)]
        if abs(np.linalg.det(m)) > 0.5:
            subsets.append(subset)
            inverses.append(np.rint(np.linalg.inv(m)))
    return np.array(subsets), np.stack(inverses, axis=-1)


def inverse_stack_decomposition(b) -> LocalDecomposition | None:
    """A decomposition of ``b`` in the vertex simplex whose smallest weight is largest, or None past BOUND_SLACK."""
    table = np.asarray(b.table)
    target = table / table.sum(axis=(2, 3), keepdims=True)
    subsets, inverses = simplex_inverses()
    weights = np.tensordot(collins_gisin(target), inverses, axes=1)  # [slot, simplex]
    best = np.argmax(weights.min(axis=0))
    if -4.0 * weights[:, best].min() > BOUND_SLACK:
        return None
    full = np.zeros(16)
    full[subsets[best]] = weights[:, best]
    return LocalDecomposition(full)


# References for the Python-float kernels: the numpy bodies that the code in
# behavior.py, polytope.py, theses.py, optimize.py, quantum.py, lhv.py and
# tolerance.py replaced, with a probability's and a norm's sum taken left to
# right by np.cumsum.  Each pair must give the same bytes and refuse with the
# same message.

def numpy_probability_vector(values, what: str) -> np.ndarray:
    p = np.asarray(values, dtype=float)
    if p.size == 0:
        raise InvalidInputError(f"{what} is empty")
    # left to right from 0.0: adding 0.0 first only turns a sum of -0.0 into +0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = 0.0 + float(np.cumsum(p)[-1])
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise InvalidInputError(f"{what} has non-finite entries")
    if p.min() < -PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} entry {p.min():.3e} below -{PROBABILITY_SLACK:g}")
    if abs(total - 1.0) > PROBABILITY_SLACK:
        raise InvalidInputError(f"{what} sums to {total:.12g}, not 1 within {PROBABILITY_SLACK:g}")
    p = p.clip(0.0, None)
    p /= 0.0 + np.cumsum(p)[-1]
    p.setflags(write=False)
    return p


def numpy_lhv_table(model) -> np.ndarray:
    """The factorized table sum_k P(k) P(A|x,k) P(B|y,k) by numpy's einsum."""
    pa, pb = (np.stack([r, 1.0 - r], axis=2) for r in (model.alice_response, model.bob_response))
    return np.einsum("k,kxi,kyj->xyij", model.prior, pa, pb)


def _numpy_amplitudes(amp) -> np.ndarray:
    a = np.asarray(amp, dtype=complex)
    if a.shape != (4,):
        raise InvalidInputError(f"state amplitudes must have shape (4,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("state amplitudes contain non-finite values")
    return a


def _numpy_norm_sq(amp: np.ndarray) -> float:
    """re^2 + im^2 of each amplitude, added left to right."""
    with np.errstate(over="ignore"):
        return float(np.cumsum(amp.real * amp.real + amp.imag * amp.imag)[-1])


def _numpy_normalised(amp: np.ndarray, norm: float) -> np.ndarray:
    """``amp`` with each part times 1/norm, read-only."""
    a = np.empty(4, dtype=complex)
    a.real, a.imag = amp.real * (1.0 / norm), amp.imag * (1.0 / norm)
    a.setflags(write=False)
    return a


def numpy_state_amplitudes(amp) -> np.ndarray:
    """The amplitudes ``TwoQubitState(amp)`` stores: checked, then normalised."""
    a = _numpy_amplitudes(amp)
    norm_sq = _numpy_norm_sq(a)
    if abs(norm_sq - 1.0) > ROUNDOFF:
        raise InvalidInputError(f"state norm^2 = {norm_sq:.12g} deviates from 1 beyond {ROUNDOFF:g}")
    return _numpy_normalised(a, math.sqrt(norm_sq))


def numpy_from_amplitudes(amp) -> np.ndarray:
    """The amplitudes ``TwoQubitState.from_amplitudes(amp)`` stores: checked at the amplitude slack, then normalised."""
    a = _numpy_amplitudes(amp)
    norm = math.sqrt(_numpy_norm_sq(a))
    if abs(norm - 1.0) > AMPLITUDE_SLACK:
        raise InvalidInputError(f"amplitude norm {norm:.12g} deviates from 1 beyond {AMPLITUDE_SLACK:g}")
    return _numpy_normalised(a, norm)


def numpy_random_amplitudes(rng) -> np.ndarray:
    """The amplitudes ``random_pure_state(rng)`` stores: complex Gaussians, normalised."""
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return _numpy_normalised(amp, math.sqrt(_numpy_norm_sq(amp)))


def numpy_clean_table(p) -> np.ndarray:
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


def numpy_no_signaling(b) -> NoSignalingReport:
    p_a = b.table.sum(axis=3)  # P(A|x,y), indexed [x, y, A]
    p_b = b.table.sum(axis=2)  # P(B|x,y), indexed [x, y, B]
    alice = abs(p_a[:, 0] - p_a[:, 1]).max(axis=1)
    bob = abs(p_b[0] - p_b[1]).max(axis=1)
    alice.setflags(write=False)
    bob.setflags(write=False)
    ok = bool(alice.max() <= PROBABILITY_SLACK and bob.max() <= PROBABILITY_SLACK)
    return NoSignalingReport(ok=ok, alice_residuals=alice, bob_residuals=bob)


def numpy_table_from_means(e: np.ndarray, ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Entry [x, y, A, B] = (1 + A ma[x] + B mb[y] + AB e[x, y]) / 4, unvalidated."""
    a_term = np.multiply.outer(ma, _VALS)[:, None, :, None]
    b_term = np.multiply.outer(mb, _VALS)[None, :, None, :]
    ab_term = np.multiply.outer(e, np.multiply.outer(_VALS, _VALS))
    return (1.0 + a_term + b_term + ab_term) / 4.0


def numpy_correlators(b) -> np.ndarray:
    """The four expected products (E(a,b), E(a,b'), E(a',b), E(a',b'))."""
    e = np.einsum("xyij,i,j->xy", b.table, _VALS, _VALS)
    return np.array([e[0, 0], e[0, 1], e[1, 0], e[1, 1]])


def numpy_decomposition_weights(weights) -> np.ndarray:
    """``LocalDecomposition``'s weights: 16 entries through ``numpy_probability_vector``."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (16,):
        raise InvalidInputError(f"weights must have shape (16,), got {w.shape}")
    return numpy_probability_vector(w, "weights")


def numpy_local_decomposition(b) -> np.ndarray | None:
    """The weights of the Fine-theorem decomposition of ``b`` through the chord A-A', or None if it is not local."""
    require_no_signaling(b, "local decomposition")
    target = b.table / b.table.sum(axis=(2, 3), keepdims=True)
    p0, p1 = target[:, 0, 0].sum(axis=-1)  # P(A_x=+), read in block (x, b)
    q = target[0, :, :, 0].sum(axis=-1)  # P(B_y=+) over y, read in block (a, y)
    r0, r1 = target[:, :, 0, 0]  # P(A_x=+, B_y=+) over y, for x = a, a'
    t_lo = max(0.0, p0 + p1 - 1.0, *(r0 + r1 - q), *(p0 + p1 + q - r0 - r1 - 1.0))
    t_hi = min(p0, p1, *(p0 - r0 + r1), *(p1 + r0 - r1))
    if 4.0 * (t_lo - t_hi) > BOUND_SLACK:
        return None
    t = 0.5 * (t_lo + t_hi)
    top = 1.0 - p0 - p1 - q + t + r0 + r1  # P(-,-,-) + u_y
    u = 0.5 * (np.maximum.reduce([np.zeros(2), t + r0 - p0, t + r1 - p1, r0 + r1 - q])
               + np.minimum.reduce([np.full(2, t), r0, r1, top]))
    # cells [y, a0, a1, b_y] of both triangles, outcome index 0 meaning +1
    cells = np.stack([u, t - u, r0 - u, p0 - t - r0 + u, r1 - u, p1 - t - r1 + u,
                      q - r0 - r1 + u, top - u], axis=-1).reshape(2, 2, 2, 2).clip(0.0, None)
    pair = cells[1].sum(axis=-1, keepdims=True)  # P(a0, a1), from triangle b'
    given = np.divide(cells[1], pair, out=np.zeros((2, 2, 2)), where=pair > 0.0)  # P(b1 | a0, a1)
    return numpy_decomposition_weights((cells[0][..., :, None] * given[..., None, :]).ravel())


def numpy_nonlocal_witness(b) -> NonlocalWitness:
    require_no_signaling(b, "Alice's marginal P(A|x)")
    p_axy = b.table.sum(axis=3)
    p_a = 0.5 * (p_axy[:, 0, :] + p_axy[:, 1, :])
    denom = p_a[:, None, :, None]
    p_b = np.divide(b.table, denom, out=np.full((2, 2, 2, 2), 0.5), where=denom > 0.0)
    return NonlocalWitness(p_a_given_x=p_a, p_b_given_xya=p_b)


def unit_vector_components(x, y, z) -> tuple[float, float, float]:
    """``UnitVector3``'s stored components: finite components first, then the norm within PROBABILITY_SLACK."""
    v = (float(x), float(y), float(z))
    if not all(math.isfinite(c) for c in v):
        raise InvalidInputError(f"direction has non-finite components: {v}")
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if abs(norm - 1.0) > PROBABILITY_SLACK:
        raise InvalidInputError(f"direction norm {norm:.12g} deviates from 1 beyond {PROBABILITY_SLACK:g}")
    return v[0] / norm, v[1] / norm, v[2] / norm


def svd_best_s(psi) -> float:
    """The largest S of a pure state, 2 sqrt(s1^2 + s2^2) from numpy's (LAPACK's) singular values of its T."""
    sv = np.linalg.svd(psi.correlations[2], compute_uv=False)
    return 2.0 * math.hypot(sv[0], sv[1])


def left_to_right(terms):
    """The sum of ``terms`` added left to right, from the first term on."""
    acc = terms[0]
    for x in terms[1:]:
        acc += x
    return acc


# the identity and the three Paulis as nested lists of Python complex numbers
_SIGMA_LISTS = [np.eye(2, dtype=complex).tolist(), *(p.tolist() for p in _PAULI)]


def loop_bloch_and_tensor(amp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) in the written order of ``TwoQubitState``'s core, one loop per index.

    c_k holds the amplitudes with Bob's index k.  For each operator s on
    Alice's qubit (the identity, then sigma_x, sigma_y, sigma_z),
    K[k][l] = sum_j conj(c_k[j]) (sum_n s[j][n] c_l[n]), and its row of
    expectations is (K00 + K11, 2 Re K01, 2 Im K01, K00 - K11).
    """
    m = np.asarray(amp).tolist()
    cols = [[m[0], m[2]], [m[1], m[3]]]
    rows = []
    for s in _SIGMA_LISTS:
        k = [[left_to_right([cols[i][j].conjugate() * left_to_right([s[j][n] * cols[l][n] for n in range(2)])
                             for j in range(2)]) for l in range(2)] for i in range(2)]
        k00, k01, k11 = k[0][0].real, k[0][1], k[1][1].real
        rows.append([k00 + k11, 2.0 * k01.real, 2.0 * k01.imag, k00 - k11])
    r = np.array(rows)
    return r[1:, 0].copy(), r[0, 1:].copy(), r[1:, 1:].copy()


def written_dot(x, y) -> float:
    """The sum of x_i y_i added left to right to an accumulator of +0.0, as a BLAS kernel without FMA adds it."""
    acc = 0.0
    for i, j in zip(x, y):
        acc += i * j
    return acc


def written_order_products(a, b, t, settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U T V^T, U a, V b) for the directions (u, u', v, v') by ``written_dot``, with (U T) first."""
    dirs = [(w.x, w.y, w.z) for w in settings]
    ut = [[written_dot(u, col) for col in zip(*t.tolist())] for u in dirs[:2]]
    return (np.array([[written_dot(row, v) for v in dirs[2:]] for row in ut]),
            np.array([written_dot(u, a.tolist()) for u in dirs[:2]]),
            np.array([written_dot(v, b.tolist()) for v in dirs[2:]]))


def written_order_sweep(psi, steps: int, start: float = 0.0, end: float = 360.0) -> np.ndarray:
    """``sweep``'s rows one angle at a time: Bob's pair rotated, then S from ``written_dot`` correlators."""
    thetas = start + (end - start) * np.arange(steps) / (steps - 1)
    rad = np.radians(thetas)
    dirs = [(w.x, w.y, w.z) for w in tsirelson_settings().as_tuple()]
    ut = [[written_dot(u, col) for col in zip(*psi.correlations[2].tolist())] for u in dirs[:2]]
    rows = []
    for theta, c, s in zip(thetas.tolist(), np.cos(rad).tolist(), np.sin(rad).tolist()):
        bob = [(x * c - y * s, y * c + x * s, z) for x, y, z in dirs[2:]]
        ab, abp, apb, apbp = [written_dot(row, v) for row in ut for v in bob]
        rows.append((theta, ab + abp + apb - apbp))
    return np.array(rows)


def closed_form_sweep(psi, steps: int, start: float = 0.0, end: float = 360.0) -> np.ndarray:
    """``sweep``'s rows one angle at a time as alpha cos theta + beta sin theta + 0.0.

    alpha and beta are the CHSH sums, by ``written_dot``, of the four correlators'
    cos and sin coefficients (p x + q y and q x - p y, for (p, q, r) a row of U T and
    (x, y, z) one of Bob's pair), which are S at 0 and at 90 degrees.
    """
    thetas = start + (end - start) * np.arange(steps) / (steps - 1)
    rad = np.radians(thetas)
    dirs = [(w.x, w.y, w.z) for w in tsirelson_settings().as_tuple()]
    ut = [[written_dot(u, col) for col in zip(*psi.correlations[2].tolist())] for u in dirs[:2]]
    signs = (1.0, 1.0, 1.0, -1.0)
    alpha = written_dot(signs, [written_dot((p, q), (x, y)) for p, q, _ in ut for x, y, _ in dirs[2:]])
    beta = written_dot(signs, [written_dot((q, p), (x, -y)) for p, q, _ in ut for x, y, _ in dirs[2:]])
    rows = [(theta, alpha * c + beta * s + 0.0)
            for theta, c, s in zip(thetas.tolist(), np.cos(rad).tolist(), np.sin(rad).tolist())]
    return np.array(rows)


def numpy_chsh(e) -> float:
    e = np.asarray(e, dtype=float)
    if e.shape != (4,):
        raise InvalidInputError(f"correlators (ab, ab', a'b, a'b') must have shape (4,), got {e.shape}")
    if not np.abs(e).max() <= 1.0 + BOUND_SLACK:
        raise InvalidInputError(f"correlator {e[np.argmax(np.abs(e))]:.12g} outside [-1, 1]")
    ab, abp, apb, apbp = e.tolist()
    return ab + abp + apb - apbp


# Independent oracle for the superdeterministic witness: one transcript per
# nonzero table entry, each setting pair of probability 1/4, in a loop.

def transcript_witness(b) -> tuple[tuple[tuple[int, int, int, int], ...], np.ndarray]:
    """The atoms (x, y, A, B), outcomes +/-1, of mass ``0.25 * b.table`` > 0 in C order, and their prior."""
    mass = 0.25 * b.table
    atoms, weights = [], []
    for x, y, i, j in itertools.product(range(2), repeat=4):
        if mass[x, y, i, j] > 0.0:
            atoms.append((x, y, 1 - 2 * i, 1 - 2 * j))
            weights.append(mass[x, y, i, j])
    prior = np.array(weights)
    return tuple(atoms), prior / prior.sum()


# Writers of the three file formats that bellkit.io reads.

def behavior_json(b) -> dict:
    """A behavior file's object: each setting pair's 2x2 block keyed "x,y"."""
    return {"blocks": {f"{lx},{ly}": b.table[x, y].tolist() for x, lx in enumerate(SETTING_LABELS_A)
                       for y, ly in enumerate(SETTING_LABELS_B)}}


def model_json(model) -> dict:
    """A model file's object: one entry per hidden value."""
    rows = zip(model.labels, model.prior.tolist(), model.alice_response.tolist(), model.bob_response.tolist())
    return {"lambda": [{"label": label, "prob": p, "pA_plus": {"a": ra[0], "a'": ra[1]},
                        "pB_plus": {"b": rb[0], "b'": rb[1]}} for label, p, ra, rb in rows]}


def network_json(spec) -> dict:
    """A network file's object: the model's, plus both setting priors."""
    pa, pb = spec.setting_prior_a.tolist(), spec.setting_prior_b.tolist()
    return {**model_json(spec.model), "settingPriorA": {"a": pa[0], "a'": pa[1]},
            "settingPriorB": {"b": pb[0], "b'": pb[1]}}


def relabelings():
    """Table transforms that permute settings/outcomes; locality is invariant."""

    def swap_alice_settings(t: np.ndarray) -> np.ndarray:
        return t[::-1].copy()

    def swap_bob_settings(t: np.ndarray) -> np.ndarray:
        return t[:, ::-1].copy()

    def flip_alice_outcomes_on_a(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[0] = out[0, :, ::-1]
        return out

    def flip_alice_outcomes_on_a_prime(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[1] = out[1, :, ::-1]
        return out

    def flip_bob_outcomes_on_b(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[:, 0] = out[:, 0, :, ::-1]
        return out

    def flip_bob_outcomes_on_b_prime(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[:, 1] = out[:, 1, :, ::-1]
        return out

    def swap_parties(t: np.ndarray) -> np.ndarray:
        return np.transpose(t, (1, 0, 3, 2)).copy()

    return [
        swap_alice_settings,
        swap_bob_settings,
        flip_alice_outcomes_on_a,
        flip_alice_outcomes_on_a_prime,
        flip_bob_outcomes_on_b,
        flip_bob_outcomes_on_b_prime,
        swap_parties,
    ]


# Independent oracle for network.verify_markov's screening residuals: the
# per-slice loop over hidden values and settings that the array code replaced.

def loop_screening_residuals(joint: np.ndarray) -> tuple[float, float]:
    """(Alice's, Bob's) max screening residual over the (k, x) and (k, y) slices with mass."""
    res_a = 0.0
    res_b = 0.0
    for k in range(joint.shape[0]):
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
    return res_a, res_b


# Independent oracles for the record code: the sampler and estimator that kept
# five arrays per dataset, and the writer that the per-code row table replaced.

def five_array_sample(spec, n: int, seed: int):
    """(lam, x, y, a, b) drawn from the same five PCG64 streams as ``bellkit.sample``."""
    streams = [np.random.Generator(np.random.PCG64(child))
               for child in np.random.SeedSequence(seed).spawn(5)]
    model = spec.model
    lam = np.searchsorted(np.cumsum(model.prior), streams[0].random(n), side="right")
    lam = np.minimum(lam, model.size - 1)
    x = (streams[1].random(n) >= spec.setting_prior_a[0]).astype(np.int64)
    y = (streams[2].random(n) >= spec.setting_prior_b[0]).astype(np.int64)
    a = np.where(streams[3].random(n) < model.alice_response[lam, x], 1, -1).astype(np.int64)
    b = np.where(streams[4].random(n) < model.bob_response[lam, y], 1, -1).astype(np.int64)
    return lam, x, y, a, b


def five_array_estimate(x, y, a, b):
    """(S, stderr, per-block counts) from per-block means of A*B, blocks masked on x and y.

    The variances are summed record by record in exact rational arithmetic, and
    the one float division is the last step before the square root.
    """
    products = a * b
    means = np.empty((2, 2))
    var_of_mean = Fraction(0)
    counts = []
    for xi in range(2):
        for yi in range(2):
            block = products[(x == xi) & (y == yi)]
            counts.append(block.size)
            means[xi, yi] = block.astype(float).mean()
            mean = Fraction(int(block.sum()), block.size)
            squares = sum((v - mean) ** 2 for v in block.tolist())
            var_of_mean += squares / ((block.size - 1) * block.size)
    s = chsh(np.array([means[0, 0], means[0, 1], means[1, 0], means[1, 1]]))
    return s, math.sqrt(float(var_of_mean)), tuple(counts)


def record_code(lam, x, y, a, b) -> np.ndarray:
    """16*lam + 8*x + 4*y + 2*[A = -1] + [B = -1], record by record."""
    return 16 * lam + 8 * x + 4 * y + 2 * (a < 0) + (b < 0)


def piece_bounds(cuts) -> list[tuple[int, int | None]]:
    """[start, stop) of the consecutive pieces that ``cuts`` (each >= 1) make of a file; the last stop is None."""
    starts = [0, *sorted(cuts)]
    return list(zip(starts, starts[1:] + [None]))


def loop_csv(labels, lam, x, y, a, b) -> str:
    """The CSV text of records given as five arrays, formatted record by record."""
    out = ["lambda,x,y,A,B\n"]
    for k, xi, yi, ai, bi in zip(lam, x, y, a, b):
        out.append(f"{labels[k]},{SETTING_LABELS_A[xi]},{SETTING_LABELS_B[yi]},{ai:+d},{bi:+d}\n")
    return "".join(out)
