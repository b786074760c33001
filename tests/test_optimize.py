import math
import struct

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
from bellkit.optimize import _sweep_coefficients
from bellkit.tolerance import PROBABILITY_SLACK, ROUNDOFF
from conftest import chsh_via_behavior, random_direction, svd_best_s
from test_cli import GENERIC_SPEC

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


def state_of_parts(parts) -> TwoQubitState:
    """The state of 8 reals (re, im per amplitude), built as ``bellkit optimize`` builds a typed spec."""
    return TwoQubitState.from_amplitudes(tuple(complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)))


def ulp_nudge(x: float, k: int) -> float:
    """x moved by k ulp, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def directions(result) -> list[float]:
    """The 12 components of an optimum's four directions."""
    return [c for w in result.settings.as_tuple() for c in (w.x, w.y, w.z)]


def optimum_bytes(result) -> bytes:
    """``best_s`` and the four directions as their 13 doubles' bytes, so that a signed zero counts."""
    return struct.pack("13d", result.best_s, *directions(result))


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
        rng = np.random.default_rng(10)
        for psi in [singlet(), *(random_pure_state(rng) for _ in range(50))]:
            first = optimum_bytes(seesaw_maximize(psi, seed=0))
            assert all(optimum_bytes(seesaw_maximize(psi, seed=seed)) == first for seed in range(1, 10))
        assert abs(seesaw_maximize(singlet(), seed=0).best_s) >= TSIRELSON - 1e-4

    def test_optimum_on_3000_random_states(self):
        rng = np.random.default_rng(3000)
        for _ in range(3000):
            assert_optimum(random_pure_state(rng))

    def test_bound_on_random_states(self):
        rng = np.random.default_rng(999)
        for seed in range(200):
            result = seesaw_maximize(random_pure_state(rng), seed=seed)
            assert abs(result.best_s) <= TSIRELSON + 1e-9

    def test_directions_stable_under_2ulp_nudges(self):
        """Nudging each amplitude part by up to 2 ulp moves the four directions by at most 1e-14/|b|.

        The nudge moves Bob's Bloch vector b by ~1e-16 and so its direction, the optimum's n1, by ~1e-16/|b|:
        the bound is ~1e-14 for the generic spec and t = 0.3, but 5e-9 for t = pi/4 - 1e-6, where |b| = 2e-6
        and the exact optimum of the nudged state is itself that far away.  n2, Alice's pair and Bob's pair
        follow n1 as smoothly.
        """
        rng = np.random.default_rng(2)
        parts = [[float(x) for x in GENERIC_SPEC.split(",")]]
        for t in (0.3, math.pi / 4 - 1e-6):
            for _ in range(20):
                parts.append([x for c in schmidt_state(rng, t).amp.tolist() for x in (c.real, c.imag)])
        for p in parts:
            psi = state_of_parts(p)
            base = directions(seesaw_maximize(psi, seed=0))
            tol = 1e-14 / math.hypot(*psi._bloch_and_tensor[1])
            for _ in range(100):
                nudged = state_of_parts([ulp_nudge(x, int(k)) for x, k in zip(p, rng.integers(-2, 3, 8))])
                moved = directions(seesaw_maximize(nudged, seed=0))
                assert max(abs(x - y) for x, y in zip(moved, base)) <= tol

    def test_calls_no_trigonometry(self, monkeypatch):
        rng = np.random.default_rng(200)
        states = [singlet(), *map(basis_state, range(4)), *(random_pure_state(rng) for _ in range(200))]

        def refuse(*args):
            raise AssertionError("trigonometry called")

        for name in ("acos", "cos", "sin", "atan2"):
            monkeypatch.setattr(math, name, refuse)
        for psi in states:
            seesaw_maximize(psi, seed=0)


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
        # a strided S column is copied whole by each of cmd_sweep's min/max
        assert sweep(singlet(), steps=9)[:, 1].flags.c_contiguous

    def test_rejects_single_step(self):
        with pytest.raises(InvalidInputError):
            sweep(singlet(), steps=1)

    def test_full_turn_returns_to_start(self):
        rows = sweep(singlet(), steps=9, theta_start_deg=0.0, theta_end_deg=360.0)
        assert rows[0][1] == pytest.approx(rows[-1][1], abs=1e-9)

    def test_bobs_pair_lies_in_the_xy_plane(self):
        # the condition under which S along the rotation about z has no constant term
        settings = tsirelson_settings()
        assert (settings.bob_v.z, settings.bob_v_prime.z) == (0.0, 0.0)

    def test_no_s_is_negative_zero(self):
        # the basis states give alpha = beta = 0, whose products with cos and sin are -0.0 in some quadrants
        rng = np.random.default_rng(3601)
        states = [singlet(), *map(basis_state, range(4)), TwoQubitState(np.array([0.6, 0.0, 0.8, 0.0])),
                  *(random_pure_state(rng) for _ in range(50))]
        for psi in states:
            for bounds in ((0.0, 360.0), tuple(rng.uniform(-720.0, 720.0, 2).tolist())):
                s = sweep(psi, 361, *bounds)[:, 1]
                assert not np.signbit(s[s == 0.0]).any()

    def test_exact_extremes_bound_every_grid_value(self):
        rng = np.random.default_rng(3602)
        for psi in [singlet(), *map(basis_state, range(4)), *(random_pure_state(rng) for _ in range(100))]:
            amplitude = math.hypot(*_sweep_coefficients(psi))
            s = sweep(psi, 3601)[:, 1]
            assert -amplitude <= s.min() and s.max() <= amplitude

    def test_exact_maximum_never_exceeds_the_optimum(self):
        # the rotation reaches a subset of all settings
        rng = np.random.default_rng(3603)
        for _ in range(1000):
            psi = random_pure_state(rng)
            assert math.hypot(*_sweep_coefficients(psi)) <= seesaw_maximize(psi, seed=0).best_s
