import math
import re

import numpy as np
import pytest

from bellkit import (
    Behavior,
    InvalidInputError,
    behavior_from_correlators,
    correlators,
    lhv_behavior,
    no_signaling,
    pr_box,
    random_no_signaling_behavior,
    uniform_behavior,
)
from bellkit.behavior import deterministic_vertex_tables
from conftest import deterministic_model, oracle_vertex_tables

SQRT2 = math.sqrt(2.0)


def signaling_table() -> np.ndarray:
    """Alice's outcome flips with Bob's setting: a hard no-signaling violation."""
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0] = [[1.0, 0.0], [0.0, 0.0]]  # P(A=+1|a,b) = 1
    t[0, 1] = [[0.0, 0.0], [1.0, 0.0]]  # P(A=+1|a,b') = 0
    return t


class TestBehaviorValidation:
    def test_tiny_negative_clamped(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, 0] = -5e-13
        t[0, 0, 1, 1] = 0.5 + 5e-13
        b = Behavior(t)
        assert b.table[0, 0, 0, 0] == 0.0

    def test_large_negative_rejected(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, 0] = -1e-9
        with pytest.raises(InvalidInputError):
            Behavior(t)

    def test_bad_normalization_names_block(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[1, 0, 0, 0] = 0.3
        with pytest.raises(InvalidInputError, match=r"\(a',b\)"):
            Behavior(t)

    def test_two_bad_blocks_name_the_worse(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, 0] += 0.05
        t[1, 1, 0, 0] += 0.2
        with pytest.raises(InvalidInputError, match=r"block \(a',b'\) sums to 1\.2,"):
            Behavior(t)

    def test_negative_zero_stored_as_positive_zero(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 1, 1, 0] = -0.0
        t[0, 1, 1, 1] = 0.5
        b = Behavior(t)
        assert not np.signbit(b.table).any()

    def test_overflowing_block_sum_rejected(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0] = 1e308
        with pytest.raises(InvalidInputError, match=r"\(a,b\) sums to inf"):  # pyproject makes a RuntimeWarning fail it
            Behavior(t)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 2, 2, 1), (16,), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=r"must have shape \(2, 2, 2, 2\)"):
            Behavior(np.full(shape, 0.25))

    def test_table_is_immutable(self):
        b = uniform_behavior()
        with pytest.raises(ValueError):
            b.table[0, 0, 0, 0] = 1.0


class TestCorrelators:
    def test_uniform_vanishes(self):
        np.testing.assert_allclose(correlators(uniform_behavior()), 0.0, atol=0)

    def test_singlet_reference_values(self, singlet_behavior):
        np.testing.assert_allclose(
            correlators(singlet_behavior),
            [-1 / SQRT2, -1 / SQRT2, -1 / SQRT2, 1 / SQRT2],
            atol=1e-12,
        )

    def test_deterministic_all_plus(self):
        b = lhv_behavior(deterministic_model(1, 1, 1, 1))
        np.testing.assert_allclose(correlators(b), [1.0, 1.0, 1.0, 1.0], atol=0)


class TestNoSignaling:
    def test_uniform_passes(self):
        assert no_signaling(uniform_behavior()).ok

    def test_pr_box_passes(self):
        report = no_signaling(pr_box())
        assert report.ok and report.max_residual <= 1e-15

    def test_constructed_violation_fails(self):
        report = no_signaling(Behavior(signaling_table()))
        assert not report.ok
        assert report.alice_residuals[0] == pytest.approx(1.0)

    def test_truth_value_is_the_verdict(self):
        # without __bool__ a report would be truthy, so `if no_signaling(b):` would pass this table
        assert bool(no_signaling(Behavior(signaling_table()))) is False
        assert bool(no_signaling(uniform_behavior())) is True

    def test_quantum_behavior_passes(self, singlet_behavior):
        assert no_signaling(singlet_behavior).max_residual <= 1e-12


class TestFromCorrelators:
    def test_roundtrip_means(self):
        rng = np.random.default_rng(23)
        e = rng.uniform(-0.4, 0.4, size=(2, 2))
        ma = rng.uniform(-0.3, 0.3, size=2)
        mb = rng.uniform(-0.3, 0.3, size=2)
        b = behavior_from_correlators(e, ma, mb)
        np.testing.assert_allclose(
            correlators(b), [e[0, 0], e[0, 1], e[1, 0], e[1, 1]], atol=1e-12
        )
        for x in range(2):
            assert b.table[x, 0, 0].sum() - b.table[x, 0, 1].sum() == pytest.approx(
                ma[x], abs=1e-12
            )

    @pytest.mark.parametrize("e, ma, message", [
        (0.5, None, "correlators must have shape (2, 2), got ()"),
        (np.zeros(4), None, "correlators must have shape (2, 2), got (4,)"),
        (np.zeros((2, 2)), np.zeros(3), "alice_marginals must have shape (2,), got (3,)"),
    ], ids=["0.5-None", "e1-None", "e2-ma2"])
    def test_wrong_shapes_rejected(self, e, ma, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            behavior_from_correlators(e, ma)

    def test_pr_box_blocks(self):
        b = pr_box()
        np.testing.assert_allclose(b.table[0, 0], [[0.5, 0.0], [0.0, 0.5]], atol=0)
        np.testing.assert_allclose(b.table[1, 1], [[0.0, 0.5], [0.5, 0.0]], atol=0)


class TestRandomNoSignaling:
    def test_valid_and_no_signaling(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            b = random_no_signaling_behavior(rng)
            assert b.table.min() >= 0.0
            assert no_signaling(b).max_residual <= 1e-12


class TestDeterministicVertexTables:
    def test_equal_to_one_value_models(self):
        tables = deterministic_vertex_tables()
        assert np.array_equal(tables, oracle_vertex_tables())
        assert not tables.flags.writeable
