import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    InvalidInputError,
    MeasurementSettings,
    TwoQubitState,
    UnitVector3,
    basis_state,
    correlation_matrix,
    correlators,
    no_signaling,
    quantum_behavior,
    random_pure_state,
    seesaw_maximize,
    singlet,
    tsirelson_settings,
)
from conftest import (
    chsh_via_behavior,
    kron_behavior_table,
    kron_correlation,
    kron_correlation_matrix,
    pauli_dot,
    random_direction,
)

SQRT2 = math.sqrt(2.0)
Z = UnitVector3(0.0, 0.0, 1.0)
X = UnitVector3(1.0, 0.0, 0.0)


def unit_vectors(min_norm=0.2):
    """Hypothesis strategy: raw 3-vectors with usable norm, then normalized."""
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    return (
        st.tuples(coord, coord, coord)
        .filter(lambda v: math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2) > min_norm)
        .map(lambda v: UnitVector3(*(np.array(v) / np.linalg.norm(v))))
    )


class TestUnitVector3:
    def test_renormalizes_small_drift(self):
        v = UnitVector3(0.0, 0.0, 1.0 + 1e-10)
        assert v.z == pytest.approx(1.0, abs=1e-12)
        assert v.x ** 2 + v.y ** 2 + v.z ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_drift(self):
        with pytest.raises(InvalidInputError):
            UnitVector3(0.0, 0.0, 1.0 + 1e-8)
        with pytest.raises(InvalidInputError):
            UnitVector3(1.0, 1.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            UnitVector3(math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("components, message", [
        ((math.nan, 0.0, 0.0), "direction has non-finite components: (nan, 0.0, 0.0)"),
        ((0.0, math.inf, 0.0), "direction has non-finite components: (0.0, inf, 0.0)"),
        ((1e200, 0.0, 0.0), "direction norm inf deviates from 1 beyond 1e-09"),
        ((0.5, 0.0, 0.0), "direction norm 0.5 deviates from 1 beyond 1e-09"),
    ], ids=["nan", "inf", "overflowing-norm", "short"])
    def test_refusal_messages(self, components, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            UnitVector3(*components)


class TestPauliDot:
    def test_z_axis_is_sigma_z(self):
        np.testing.assert_allclose(pauli_dot(Z), [[1, 0], [0, -1]], atol=0)

    def test_x_axis_is_sigma_x(self):
        np.testing.assert_allclose(pauli_dot(X), [[0, 1], [1, 0]], atol=0)

    def test_xy_diagonal(self):
        # (sigma_x + sigma_y)/sqrt(2) written out entrywise
        v = UnitVector3(1 / SQRT2, 1 / SQRT2, 0.0)
        expected = np.array(
            [[0, (1 - 1j) / SQRT2], [(1 + 1j) / SQRT2, 0]], dtype=complex
        )
        np.testing.assert_allclose(pauli_dot(v), expected, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(unit_vectors())
    def test_squares_to_identity(self, v):
        m = pauli_dot(v)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)


class TestSinglet:
    def test_amplitudes(self):
        np.testing.assert_allclose(
            singlet().amp,
            [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],
            atol=1e-16,
        )

    def test_norm_and_overlap(self):
        psi = singlet()
        assert np.sum(np.abs(psi.amp) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(psi.amp, psi.amp).real == pytest.approx(1.0, abs=1e-12)


class TestStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))

    def test_rejects_overflowing_norm(self):
        with pytest.raises(InvalidInputError, match="norm"):
            TwoQubitState(np.array([1e200, 0.0, 0.0, 0.0], dtype=complex))

    def test_from_amplitudes_loose_tolerance(self):
        psi = TwoQubitState.from_amplitudes(np.array([1 + 1e-7, 0, 0, 0], dtype=complex))
        assert abs(psi.amp[0]) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InvalidInputError):
            TwoQubitState.from_amplitudes(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


class TestCorrelation:
    def test_singlet_parallel(self):
        z = Z.as_array()
        assert z @ correlation_matrix(singlet()) @ z == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_reference_pair(self):
        v = np.array([1 / SQRT2, 1 / SQRT2, 0.0])
        assert X.as_array() @ correlation_matrix(singlet()) @ v == pytest.approx(-1 / SQRT2, abs=1e-12)

    def test_product_state_parallel(self):
        z = Z.as_array()
        assert z @ correlation_matrix(basis_state(0)) @ z == pytest.approx(1.0, abs=1e-12)

    def test_singlet_law_random_pairs(self):
        rng = np.random.default_rng(20240811)
        t = correlation_matrix(singlet())
        for _ in range(100):
            u = random_direction(rng).as_array()
            v = random_direction(rng).as_array()
            assert abs(u @ t @ v + u @ v) <= 1e-12

    def test_matches_bilinear_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = random_pure_state(rng)
            u = random_direction(rng)
            v = random_direction(rng)
            assert kron_correlation(psi, u, v) == pytest.approx(
                u.as_array() @ correlation_matrix(psi) @ v.as_array(), abs=1e-12
            )


class TestQuantumBehavior:
    def test_singlet_marginals_are_half(self):
        rng = np.random.default_rng(3)
        settings_vecs = tuple(random_direction(rng) for _ in range(4))
        b = quantum_behavior(singlet(), settings_vecs)
        for x in range(2):
            for y in range(2):
                np.testing.assert_allclose(b.table[x, y].sum(axis=1), [0.5, 0.5], atol=1e-12)
                np.testing.assert_allclose(b.table[x, y].sum(axis=0), [0.5, 0.5], atol=1e-12)

    def test_singlet_reference_block(self, singlet_behavior):
        # from E = -1/sqrt(2) and uniform marginals: P(A,B) = (1 + A*B*E)/4
        expected_pp = (1.0 - 1.0 / SQRT2) / 4.0
        assert expected_pp == pytest.approx(0.0732233, abs=5e-8)
        assert singlet_behavior.table[0, 0, 0, 0] == pytest.approx(expected_pp, abs=1e-12)

    def test_blocks_normalized(self, singlet_behavior):
        np.testing.assert_allclose(
            singlet_behavior.table.sum(axis=(2, 3)), np.ones((2, 2)), atol=1e-12
        )

    def test_correlators_match_correlation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            psi = random_pure_state(rng)
            vecs = tuple(random_direction(rng) for _ in range(4))
            b = quantum_behavior(psi, vecs)
            e = correlators(b)
            t = correlation_matrix(psi)
            expected = [u.as_array() @ t @ v.as_array() for u in vecs[:2] for v in vecs[2:]]
            np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_no_signaling_within_1e12(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            psi = random_pure_state(rng)
            vecs = tuple(random_direction(rng) for _ in range(4))
            report = no_signaling(quantum_behavior(psi, vecs))
            assert report.ok
            assert report.max_residual <= 1e-12

    def test_eigenstate_is_deterministic(self):
        b = quantum_behavior(basis_state(0), (Z, Z, Z, Z))
        for x in range(2):
            for y in range(2):
                assert b.table[x, y, 0, 0] == pytest.approx(1.0, abs=1e-12)


class TestCorrelationMatrix:
    def test_singlet_is_minus_identity(self):
        np.testing.assert_allclose(correlation_matrix(singlet()), -np.eye(3), atol=1e-12)

    def test_product_state(self):
        np.testing.assert_allclose(
            correlation_matrix(basis_state(0)), np.diag([0.0, 0.0, 1.0]), atol=1e-12
        )

    def test_entries_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = correlation_matrix(random_pure_state(rng))
            assert np.max(np.abs(t)) <= 1.0 + 1e-12


def pure_states():
    """Hypothesis strategy: 8 reals (re, im per amplitude) with usable norm, normalized."""
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    return (
        st.lists(coord, min_size=8, max_size=8)
        .map(lambda v: np.array(v[0::2]) + 1j * np.array(v[1::2]))
        .filter(lambda amp: np.linalg.norm(amp) > 0.2)
        .map(lambda amp: TwoQubitState(amp / np.linalg.norm(amp)))
    )


@settings(max_examples=200, deadline=None)
@given(pure_states(), st.tuples(*(unit_vectors() for _ in range(4))),
       st.tuples(*(unit_vectors() for _ in range(4))))
def test_tensor_core_matches_projector_oracle(psi, dirs, other_dirs):
    b = quantum_behavior(psi, dirs)
    assert np.max(np.abs(b.table - kron_behavior_table(psi, dirs))) <= 1e-12
    assert np.max(np.abs(correlation_matrix(psi) - kron_correlation_matrix(psi))) <= 1e-12
    for u in dirs[:2]:
        for v in dirs[2:]:
            bilinear = u.as_array() @ correlation_matrix(psi) @ v.as_array()
            assert abs(bilinear - kron_correlation(psi, u, v)) <= 1e-12
    # the closed-form optimum is reached at its settings and beaten by none
    result = seesaw_maximize(psi, seed=0)
    assert abs(chsh_via_behavior(psi, result.settings) - result.best_s) <= 1e-12
    assert abs(chsh_via_behavior(psi, MeasurementSettings(*other_dirs))) <= result.best_s + 1e-12


def test_reference_settings_are_unit():
    s = tsirelson_settings()
    for v in s.as_tuple():
        assert v.x ** 2 + v.y ** 2 + v.z ** 2 == pytest.approx(1.0, abs=1e-12)
