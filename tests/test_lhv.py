import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    InvalidInputError,
    LHVModel,
    chsh,
    correlators,
    enumerate_deterministic,
    is_local,
    lhv_behavior,
    no_signaling,
    random_model,
)
from bellkit.tolerance import ROUNDOFF
from conftest import deterministic_model, model_chsh

SQRT2 = math.sqrt(2.0)

# S values of the 16 strategies in enumeration order, worked out by hand
EXPECTED_S = [2, 2, -2, -2, 2, -2, 2, -2, -2, 2, -2, 2, -2, -2, 2, 2]


def all_plus_model() -> LHVModel:
    return deterministic_model(1, 1, 1, 1)


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
        # all outcomes +1 or all -1, with equal weight
        model = LHVModel(labels=("plus", "minus"), prior=np.array([0.5, 0.5]),
                         alice_response=np.array([[1.0, 1.0], [0.0, 0.0]]),
                         bob_response=np.array([[1.0, 1.0], [0.0, 0.0]]))
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

    @pytest.mark.parametrize("labels, bad, message", [
        (("l0", "a,b", "l\ud800"), 1, "contains a comma, double quote, CR or LF"),
        (("l\ud800", 'a"b'), 0, "cannot be encoded as UTF-8"),
        (("l0", "\ud800\r"), 1, "contains a comma, double quote, CR or LF"),
    ], ids=["first_is_csv_unsafe", "first_is_not_utf8", "both_in_one"])
    def test_first_unsafe_label_named(self, labels, bad, message):
        # the first offending label is named; a label with both faults gets the CSV message
        n = len(labels)
        with pytest.raises(InvalidInputError, match=re.escape(f"label {labels[bad]!r} {message}")):
            LHVModel(labels=labels, prior=np.full(n, 1 / n),
                     alice_response=np.full((n, 2), 0.5), bob_response=np.full((n, 2), 0.5))

    @pytest.mark.parametrize("alice, bob, name", [
        (1.2, 0.5, "alice_response"), (0.5, -0.1, "bob_response"),
        (math.nan, math.nan, "alice_response"), (0.5, math.nan, "bob_response"),
    ])
    def test_out_of_range_response_table_named(self, alice, bob, name):
        with pytest.raises(InvalidInputError, match=f"^{name} entries must lie in"):
            LHVModel(labels=("l0", "l1"), prior=np.array([0.5, 0.5]),
                     alice_response=np.array([[0.5, 0.5], [0.5, alice]]),
                     bob_response=np.array([[bob, 0.5], [0.5, 0.5]]))

    def test_responses_within_roundoff_clipped_read_only(self):
        model = LHVModel(labels=("l0", "l1"), prior=np.array([0.5, 0.5]),
                         alice_response=np.array([[1.0 + 0.5 * ROUNDOFF, 0.25], [0.5, 0.75]]),
                         bob_response=np.array([[0.125, 0.5], [-0.5 * ROUNDOFF, 1.0]]))
        assert model.alice_response.tolist() == [[1.0, 0.25], [0.5, 0.75]]
        assert model.bob_response.tolist() == [[0.125, 0.5], [0.0, 1.0]]
        assert not model.alice_response.flags.writeable and not model.bob_response.flags.writeable

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

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError, match="correlator nan outside"):
            chsh([math.nan, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("e, message", [
        ([math.nan, 0.0, 0.0, 0.0], "correlator nan outside [-1, 1]"),
        ([0.0, 1.5, 0.0, 0.0], "correlator 1.5 outside [-1, 1]"),
        ([0.0, 0.0, 0.0], "need 4 correlators (ab, ab', a'b, a'b'), got shape (3,)"),
    ], ids=["nan", "out-of-range", "shape"])
    def test_refusal_messages(self, e, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            chsh(e)

    def test_single_set_gives_a_float(self):
        assert type(chsh(np.array([0.5, 0.25, -0.25, 0.5]))) is float

    def test_batch_equals_each_row_bit_for_bit(self):
        e = np.random.default_rng(404).uniform(-1.0, 1.0, size=(1000, 4))
        s = chsh(e)
        assert s.dtype == np.float64 and s.shape == (1000,)
        assert s.tobytes() == np.array([chsh(row) for row in e]).tobytes()

    def test_empty_batch_gives_empty_array(self):
        assert chsh(np.zeros((0, 4))).shape == (0,)

    def test_nan_in_one_batch_row_rejected(self):
        e = np.zeros((50, 4))
        e[37, 2] = math.nan
        with pytest.raises(InvalidInputError, match="correlator nan outside"):
            chsh(e)

    def test_out_of_range_batch_row_named(self):
        e = np.zeros((5, 4))
        e[3, 1] = -1.25
        with pytest.raises(InvalidInputError, match="correlator -1.25 outside"):
            chsh(e)

    @pytest.mark.parametrize("shape", [(3,), (5,), (10, 3), (10, 5), (2, 2, 4), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="need 4 correlators"):
            chsh(np.zeros(shape))


class TestEnumerateDeterministic:
    def test_count_and_values(self):
        entries = enumerate_deterministic()
        assert len(entries) == 16
        assert [v for _, v in entries] == EXPECTED_S
        assert all(isinstance(v, int) and abs(v) == 2 for _, v in entries)

    def test_lexicographic_order(self):
        strategies = [s for s, _ in enumerate_deterministic()]
        assert strategies == list(itertools.product((1, -1), repeat=4))
        assert all(type(out) is int for s in strategies for out in s)


class TestModelChsh:
    def test_deterministic_all_plus(self):
        assert model_chsh(all_plus_model()) == 2.0

    def test_fair_coins_vanish(self):
        assert model_chsh(fair_coins_model()) == 0.0

    def test_mixture_of_maximizers_stays_bounded(self):
        maximizers = [deterministic_model(*s) for s, v in enumerate_deterministic() if v == 2][:2]
        model = LHVModel(labels=("l0", "l1"), prior=np.array([0.5, 0.5]),
                         alice_response=np.vstack([m.alice_response for m in maximizers]),
                         bob_response=np.vstack([m.bob_response for m in maximizers]))
        assert abs(model_chsh(model)) <= 2.0 + 1e-12

    def test_roundtrip_all_sixteen(self):
        for strategy, s_value in enumerate_deterministic():
            assert model_chsh(deterministic_model(*strategy)) == float(s_value)

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
        mixed = lhv_behavior(LHVModel(
            labels=tuple(f"p.{s}" for s in m1.labels) + tuple(f"q.{s}" for s in m2.labels),
            prior=np.concatenate([w * m1.prior, (1.0 - w) * m2.prior]),
            alice_response=np.vstack([m1.alice_response, m2.alice_response]),
            bob_response=np.vstack([m1.bob_response, m2.bob_response])))
        pointwise = w * lhv_behavior(m1).table + (1.0 - w) * lhv_behavior(m2).table
        np.testing.assert_allclose(mixed.table, pointwise, atol=1e-12)


def test_triangle_lemma_on_grid():
    # |x+y| + |x-y| <= 2 whenever |x|, |y| <= 1
    grid = np.linspace(-1.0, 1.0, 201)
    x, y = np.meshgrid(grid, grid)
    assert np.max(np.abs(x + y) + np.abs(x - y)) <= 2.0 + 1e-15


def test_deterministic_behavior_is_zero_one():
    for strategy, _ in enumerate_deterministic():
        table = lhv_behavior(deterministic_model(*strategy)).table
        assert set(np.unique(table)) <= {0.0, 1.0}
