import math

import numpy as np
import pytest

from bellkit import (
    InvalidInputError,
    TSIRELSON,
    basis_state,
    chsh_of_settings,
    random_pure_state,
    seesaw_maximize,
    singlet,
    sweep,
    tsirelson_settings,
)
from conftest import chsh_via_behavior, random_direction

SQRT2 = math.sqrt(2.0)


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

    def test_bound_on_random_states(self):
        rng = np.random.default_rng(999)
        for seed in range(200):
            result = seesaw_maximize(random_pure_state(rng), seed=seed)
            if result.converged:
                assert abs(result.best_s) <= TSIRELSON + 1e-9


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
