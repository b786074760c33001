"""Shared fixtures and helpers for the suite."""

from __future__ import annotations

import numpy as np
import pytest

from bellkit import (
    Behavior,
    UnitVector3,
    chsh,
    correlators,
    pauli_dot,
    quantum_behavior,
    singlet,
    tsirelson_settings,
)


@pytest.fixture(scope="session")
def singlet_behavior() -> Behavior:
    """Singlet outcome table at the maximal-violation settings."""
    return quantum_behavior(singlet(), tsirelson_settings().as_tuple())


# Independent oracle for the quantum layer: projectors and Kronecker products
# on the 4-dimensional state, sharing no arithmetic with bellkit's (a, b, T) core.

_AXES = (UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0), UnitVector3(0.0, 0.0, 1.0))


def _expectation(psi, op4: np.ndarray) -> float:
    val = np.vdot(psi.amp, op4 @ psi.amp)
    assert abs(val.imag) <= 1e-12
    return float(val.real)


def _projectors(v) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors (1 + v.sigma)/2 and (1 - v.sigma)/2."""
    m = pauli_dot(v).m
    eye = np.eye(2, dtype=complex)
    return (eye + m) / 2.0, (eye - m) / 2.0


def kron_correlation(psi, u, v) -> float:
    """<psi| (u.sigma) (x) (v.sigma) |psi>."""
    return _expectation(psi, np.kron(pauli_dot(u).m, pauli_dot(v).m))


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
