import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    DeterministicStrategy,
    InvalidInputError,
    LHVModel,
    chsh,
    correlators,
    deterministic_behavior,
    enumerate_deterministic,
    is_local,
    lhv_behavior,
    mix_models,
    model_chsh,
    no_signaling,
    random_model,
    strategy_to_model,
)

SQRT2 = math.sqrt(2.0)

# S values of the 16 strategies in enumeration order, worked out by hand
EXPECTED_S = [2, 2, -2, -2, 2, -2, 2, -2, -2, 2, -2, 2, -2, -2, 2, 2]


def all_plus_model() -> LHVModel:
    return strategy_to_model(DeterministicStrategy(1, 1, 1, 1))


def fair_coins_model() -> LHVModel:
    return LHVModel(
        labels=("l0",),
        prior=np.array([1.0]),
        alice_response=np.full((1, 2), 0.5),
        bob_response=np.full((1, 2), 0.5),
    )


class TestLhvBehavior:
    def test_deterministic_all_plus(self):
        b = lhv_behavior(all_plus_model())
        for x in range(2):
            for y in range(2):
                assert b.table[x, y, 0, 0] == 1.0

    def test_fair_coins_give_uniform(self):
        np.testing.assert_allclose(lhv_behavior(fair_coins_model()).table, 0.25, atol=0)

    def test_two_opposite_strategies(self):
        model = mix_models(
            strategy_to_model(DeterministicStrategy(1, 1, 1, 1)),
            strategy_to_model(DeterministicStrategy(-1, -1, -1, -1)),
            0.5,
        )
        b = lhv_behavior(model)
        np.testing.assert_allclose(correlators(b), [1.0, 1.0, 1.0, 1.0], atol=1e-15)
        for x in range(2):
            for y in range(2):
                assert b.table[x, y, 0, 0] == pytest.approx(0.5, abs=1e-15)
                assert b.table[x, y, 1, 1] == pytest.approx(0.5, abs=1e-15)
                assert b.table[x, y, 0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_prior_mass_validated(self):
        with pytest.raises(InvalidInputError):
            LHVModel(
                labels=("l0", "l1"),
                prior=np.array([0.5, 0.4]),
                alice_response=np.full((2, 2), 0.5),
                bob_response=np.full((2, 2), 0.5),
            )

    def test_prior_renormalized_within_tolerance(self):
        model = LHVModel(
            labels=("l0", "l1"),
            prior=np.array([0.5, 0.5 + 5e-10]),
            alice_response=np.full((2, 2), 0.5),
            bob_response=np.full((2, 2), 0.5),
        )
        assert model.prior.sum() == pytest.approx(1.0, abs=1e-15)

    def test_response_range_validated(self):
        with pytest.raises(InvalidInputError):
            LHVModel(
                labels=("l0",),
                prior=np.array([1.0]),
                alice_response=np.array([[1.2, 0.5]]),
                bob_response=np.full((1, 2), 0.5),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_non_finite_and_negative_priors_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            LHVModel(
                labels=("l0", "l1"),
                prior=np.array([bad, 1.0]),
                alice_response=np.full((2, 2), 0.5),
                bob_response=np.full((2, 2), 0.5),
            )

    def test_nan_response_rejected(self):
        with pytest.raises(InvalidInputError):
            LHVModel(
                labels=("l0",),
                prior=np.array([1.0]),
                alice_response=np.array([[math.nan, 0.5]]),
                bob_response=np.full((1, 2), 0.5),
            )

    @pytest.mark.parametrize("label", ["\ud800", "l\udfff0"], ids=["lone", "inside"])
    def test_label_not_encodable_as_utf8_rejected(self, label):
        # a lone surrogate is a valid str but no UTF-8 text, so no CSV row could hold it
        with pytest.raises(InvalidInputError, match="cannot be encoded as UTF-8"):
            LHVModel(
                labels=("l0", label),
                prior=np.array([0.5, 0.5]),
                alice_response=np.full((2, 2), 0.5),
                bob_response=np.full((2, 2), 0.5),
            )


class TestChsh:
    def test_reference_correlators(self):
        s = chsh([-1 / SQRT2, -1 / SQRT2, -1 / SQRT2, 1 / SQRT2])
        assert s == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_all_equal(self):
        assert chsh([1.0, 1.0, 1.0, 1.0]) == 2.0

    def test_algebraic_maximum(self):
        assert chsh([1.0, 1.0, 1.0, -1.0]) == 4.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            chsh([1.1, 0.0, 0.0, 0.0])


class TestEnumerateDeterministic:
    def test_count_and_values(self):
        entries = enumerate_deterministic()
        assert len(entries) == 16
        assert [v for _, v in entries] == EXPECTED_S
        assert all(isinstance(v, int) and abs(v) == 2 for _, v in entries)

    def test_lexicographic_order(self):
        entries = enumerate_deterministic()
        first, _ = entries[0]
        assert (first.a_out, first.a_prime_out, first.b_out, first.b_prime_out) == (1, 1, 1, 1)
        second, _ = entries[1]
        assert (second.a_out, second.a_prime_out, second.b_out, second.b_prime_out) == (1, 1, 1, -1)
        last, _ = entries[-1]
        assert (last.a_out, last.a_prime_out, last.b_out, last.b_prime_out) == (-1, -1, -1, -1)

    def test_strategy_validation(self):
        with pytest.raises(InvalidInputError):
            DeterministicStrategy(1, 1, 1, 0)


class TestModelChsh:
    def test_deterministic_all_plus(self):
        assert model_chsh(all_plus_model()) == 2.0

    def test_fair_coins_vanish(self):
        assert model_chsh(fair_coins_model()) == 0.0

    def test_mixture_of_maximizers_stays_bounded(self):
        maximizers = [s for s, v in enumerate_deterministic() if v == 2]
        model = mix_models(strategy_to_model(maximizers[0]), strategy_to_model(maximizers[1]), 0.5)
        assert abs(model_chsh(model)) <= 2.0 + 1e-12

    def test_roundtrip_all_sixteen(self):
        for strategy, s_value in enumerate_deterministic():
            assert model_chsh(strategy_to_model(strategy)) == float(s_value)

    def test_two_paths_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            model = random_model(rng)
            direct = model_chsh(model)
            via_behavior = chsh(correlators(lhv_behavior(model)))
            assert direct == pytest.approx(via_behavior, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=8, max_size=8),
    st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=2, max_size=2),
)
def test_stochastic_bound_holds(responses, raw_prior):
    prior = np.array(raw_prior) / sum(raw_prior)
    model = LHVModel(
        labels=("l0", "l1"),
        prior=prior,
        alice_response=np.array(responses[:4]).reshape(2, 2),
        bob_response=np.array(responses[4:]).reshape(2, 2),
    )
    assert abs(model_chsh(model)) <= 2.0 + 1e-12


def test_random_models_are_local():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        b = lhv_behavior(random_model(rng))
        report = no_signaling(b)
        assert report.ok and report.max_residual <= 1e-12
        assert is_local(b)


def test_convexity_of_behaviors():
    rng = np.random.default_rng(55)
    for _ in range(50):
        m1 = random_model(rng)
        m2 = random_model(rng)
        w = float(rng.uniform())
        mixed = lhv_behavior(mix_models(m1, m2, w))
        pointwise = w * lhv_behavior(m1).table + (1.0 - w) * lhv_behavior(m2).table
        np.testing.assert_allclose(mixed.table, pointwise, atol=1e-12)


def test_triangle_lemma_on_grid():
    # |x+y| + |x-y| <= 2 whenever |x|, |y| <= 1
    grid = np.linspace(-1.0, 1.0, 201)
    x, y = np.meshgrid(grid, grid)
    assert np.max(np.abs(x + y) + np.abs(x - y)) <= 2.0 + 1e-15


def test_deterministic_behavior_is_zero_one():
    for strategy, _ in enumerate_deterministic():
        table = deterministic_behavior(strategy).table
        assert set(np.unique(table)) <= {0.0, 1.0}
