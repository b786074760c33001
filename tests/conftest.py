"""Shared fixtures and helpers for the suite."""

from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellkit import (
    Behavior,
    UnitVector3,
    chsh,
    correlators,
    quantum_behavior,
    singlet,
    tsirelson_settings,
)
from bellkit.behavior import SETTING_LABELS_A, SETTING_LABELS_B


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


def chsh_via_behavior(psi, settings) -> float:
    """S of ``MeasurementSettings`` through the projector outcome table."""
    return chsh(correlators(Behavior(kron_behavior_table(psi, settings.as_tuple()))))


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


def loop_csv(labels, lam, x, y, a, b) -> str:
    """The CSV text of records given as five arrays, formatted record by record."""
    out = ["lambda,x,y,A,B\n"]
    for k, xi, yi, ai, bi in zip(lam, x, y, a, b):
        out.append(f"{labels[k]},{SETTING_LABELS_A[xi]},{SETTING_LABELS_B[yi]},{ai:+d},{bi:+d}\n")
    return "".join(out)
