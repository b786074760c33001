import math

import numpy as np
import pytest

from bellkit import (
    InvalidInputError,
    TSIRELSON,
    TwoQubitState,
    basis_state,
    chsh_of_settings,
    random_pure_state,
    seesaw_maximize,
    singlet,
    sweep,
    tsirelson_settings,
)
from bellkit.optimize import _top_eigenvectors
from bellkit.tolerance import PROBABILITY_SLACK, ROUNDOFF
from conftest import chsh_via_behavior, random_direction, svd_best_s

SQRT2 = math.sqrt(2.0)


def assert_optimum(psi):
    """``seesaw_maximize`` against numpy's SVD figure, S at its own settings, and 2 sqrt(1 + C^2).

    For a pure state the largest S is 2 sqrt(1 + C^2), with C = 2|psi00 psi11 - psi01 psi10|
    the concurrence (Gisin, Phys. Lett. A 154, 201 (1991)), a figure that does not read T.
    """
    result = seesaw_maximize(psi, seed=0)
    assert abs(result.best_s - svd_best_s(psi)) <= ROUNDOFF
    assert abs(chsh_of_settings(psi, result.settings) - result.best_s) <= ROUNDOFF
    for w in result.settings.as_tuple():
        assert abs(math.sqrt(w.x * w.x + w.y * w.y + w.z * w.z) - 1.0) <= PROBABILITY_SLACK
    p, q, r, s = psi.amp.tolist()
    assert abs(result.best_s - 2.0 * math.sqrt(1.0 + (2.0 * abs(p * s - q * r)) ** 2)) <= ROUNDOFF


def random_unitary(rng) -> np.ndarray:
    """A random 2x2 unitary: the Q of a complex Gaussian matrix."""
    return np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]


def schmidt_state(rng, t: float) -> TwoQubitState:
    """cos(t) |u0 v0> + sin(t) |u1 v1> in random local bases u, v: concurrence sin(2t)."""
    u, v = random_unitary(rng), random_unitary(rng)
    amp = math.cos(t) * np.kron(u[:, 0], v[:, 0]) + math.sin(t) * np.kron(u[:, 1], v[:, 1])
    return TwoQubitState.from_amplitudes(amp)


def product_state_grid_maximum() -> float:
    """Independent oracle for the |00> maximum: 1-degree grid in the polar angle.

    For |00> the correlation is cos(polar_u) * cos(polar_v), so S depends only
    on the four polar angles.  Alice's two angles enter linearly through their
    cosines and the grid contains the exact maximizers (0 and 180 degrees), so
    maximizing her cosines over the grid is exact; Bob's pair is enumerated.
    """
    cos_grid = np.cos(np.deg2rad(np.arange(0, 181)))
    cb, cg = np.meshgrid(cos_grid, cos_grid)
    return float(np.max(np.abs(cb + cg) + np.abs(cb - cg)))


class TestChshOfSettings:
    def test_singlet_reference_configuration(self):
        s = chsh_of_settings(singlet(), tsirelson_settings())
        assert s == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_singlet_all_parallel(self):
        from bellkit import MeasurementSettings, UnitVector3

        z = UnitVector3(0.0, 0.0, 1.0)
        s = chsh_of_settings(singlet(), MeasurementSettings(z, z, z, z))
        assert s == pytest.approx(-2.0, abs=1e-12)

    def test_product_state_all_parallel(self):
        from bellkit import MeasurementSettings, UnitVector3

        z = UnitVector3(0.0, 0.0, 1.0)
        s = chsh_of_settings(basis_state(0), MeasurementSettings(z, z, z, z))
        assert s == pytest.approx(2.0, abs=1e-12)

    def test_agrees_with_behavior_pathway(self):
        rng = np.random.default_rng(19)
        from bellkit import MeasurementSettings

        for _ in range(25):
            psi = random_pure_state(rng)
            settings = MeasurementSettings(*(random_direction(rng) for _ in range(4)))
            assert chsh_of_settings(psi, settings) == pytest.approx(
                chsh_via_behavior(psi, settings), abs=1e-12
            )


class TestSeesaw:
    def test_singlet_reaches_tsirelson(self):
        result = seesaw_maximize(singlet(), seed=424242)
        assert result.converged
        assert abs(result.best_s) >= TSIRELSON - 1e-6
        assert abs(result.best_s) <= TSIRELSON + 1e-9
        # the reported settings actually realize the reported S
        assert chsh_of_settings(singlet(), result.settings) == pytest.approx(
            result.best_s, abs=1e-9
        )

    def test_product_state_matches_grid_oracle(self):
        oracle = product_state_grid_maximum()
        assert oracle == pytest.approx(2.0, abs=1e-12)
        result = seesaw_maximize(basis_state(0), seed=5)
        assert abs(result.best_s) == pytest.approx(oracle, abs=1e-6)

    def test_multistart_robustness(self):
        hits = 0
        for seed in range(10):
            result = seesaw_maximize(singlet(), seed=seed)
            hits += abs(result.best_s) >= TSIRELSON - 1e-4
        assert hits == 10

    def test_optimum_on_3000_random_states(self):
        rng = np.random.default_rng(3000)
        for _ in range(3000):
            assert_optimum(random_pure_state(rng))

    def test_bound_on_random_states(self):
        rng = np.random.default_rng(999)
        for seed in range(200):
            result = seesaw_maximize(random_pure_state(rng), seed=seed)
            if result.converged:
                assert abs(result.best_s) <= TSIRELSON + 1e-9


def random_rotation(rng) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((3, 3)))[0]


def symmetric_matrices(rng):
    """Symmetric 3x3 matrices R diag(lam) R^T: distinct, repeated, nearly repeated and equal eigenvalues, either
    end farthest from the others, at scales from 1e-150 to 1e150; and diagonal ones, zero included."""
    for k in range(2000):
        x, y = rng.standard_normal(2)
        lam = [rng.standard_normal(3), [x, x, y], [x, x, x], [1.0, 1.0, 1e-12 * y], [1.0, 1.0 - 1e-9 * abs(x), y],
               [-1.0, -1.0 + 10.0 ** rng.uniform(-15.0, -1.0), y],
               rng.standard_normal(3) * 10.0 ** rng.uniform(-150.0, 150.0)][k % 7]
        r = random_rotation(rng)
        m = r @ np.diag(lam) @ r.T
        yield (m + m.T) / 2.0
    for d in ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, -3.0, 2.0], [-1.0, -1.0, -5.0]):
        yield np.diag(d)


def test_top_eigenvectors_of_symmetric_matrices():
    """Orthonormal within 4e-15, each within 1e-14 of an eigenvector for its eigenvalue, and the eigenvalue sum S reads."""
    rng = np.random.default_rng(3301)
    for m in symmetric_matrices(rng):
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = m.tolist()
        n1, n2 = map(np.array, _top_eigenvectors(a00, a01, a02, a11, a12, a22))
        lam = np.linalg.eigvalsh(m)  # ascending
        scale = max(np.abs(m).max(), np.finfo(float).tiny)
        assert max(abs(n1 @ n1 - 1.0), abs(n2 @ n2 - 1.0), abs(n1 @ n2)) <= 4e-15
        assert np.linalg.norm(m @ n1 - lam[2] * n1) <= 1e-14 * scale
        assert np.linalg.norm(m @ n2 - lam[1] * n2) <= 1e-14 * scale
        assert abs(n1 @ m @ n1 + n2 @ m @ n2 - lam[2] - lam[1]) <= 1e-14 * scale


class TestSweep:
    def test_zero_angle_is_maximal_violation(self):
        rows = sweep(singlet(), steps=5, theta_start_deg=0.0, theta_end_deg=90.0)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_two_step_sweep_to_45_degrees(self):
        rows = sweep(singlet(), steps=2, theta_start_deg=0.0, theta_end_deg=45.0)
        assert rows.shape == (2, 2) and rows.dtype == np.float64
        assert rows[0][0] == 0.0 and rows[1][0] == 45.0
        assert rows[0][1] == pytest.approx(-2 * SQRT2, abs=1e-12)
        assert rows[1][1] == pytest.approx(-2.0, abs=1e-9)

    def test_s_column_is_contiguous(self):
        # a strided S column is copied whole by each of cmd_sweep's argmin/argmax
        assert sweep(singlet(), steps=9)[:, 1].flags.c_contiguous

    def test_rejects_single_step(self):
        with pytest.raises(InvalidInputError):
            sweep(singlet(), steps=1)

    def test_full_turn_returns_to_start(self):
        rows = sweep(singlet(), steps=9, theta_start_deg=0.0, theta_end_deg=360.0)
        assert rows[0][1] == pytest.approx(rows[-1][1], abs=1e-9)
