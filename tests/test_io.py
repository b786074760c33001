import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    InvalidInputError,
    NetworkSpec,
    lhv_behavior,
    random_model,
    sweep,
    singlet,
    uniform_behavior,
)
from bellkit.io import (
    behavior_from_json,
    digest_inputs,
    fmt,
    load_json,
    model_from_json,
    network_from_json,
    sweep_rows_to_csv,
)
from bellkit.network import _CHUNK
from conftest import behavior_json, model_json, network_json, piece_bounds


# one hidden value that always answers +1; its label is absent
_ONE_ENTRY = {"prob": 1.0, "pA_plus": {"a": 1, "a'": 1}, "pB_plus": {"b": 1, "b'": 1}}


class TestBehaviorFormat:
    def test_roundtrip(self, singlet_behavior):
        data = behavior_json(singlet_behavior)
        again = behavior_from_json(data)
        np.testing.assert_array_equal(again.table, singlet_behavior.table)

    def test_roundtrip_through_text(self, singlet_behavior):
        text = json.dumps(behavior_json(singlet_behavior))
        np.testing.assert_array_equal(
            behavior_from_json(load_json(text)).table, singlet_behavior.table
        )

    def test_missing_block_named(self):
        data = behavior_json(uniform_behavior())
        del data["blocks"]["a',b"]
        with pytest.raises(InvalidInputError, match=r"missing block \"a',b\""):
            behavior_from_json(data)

    def test_json_syntax_error_carries_line(self):
        with pytest.raises(InvalidInputError, match="line 3, column 4: Expecting property name"):
            load_json('{\n "blocks": {\n   oops\n }\n}')

    def test_invalid_probabilities_rejected(self):
        data = behavior_json(uniform_behavior())
        data["blocks"]["a,b"] = [[0.9, 0.4], [0.0, 0.0]]
        with pytest.raises(InvalidInputError, match=re.escape("block (a,b) sums to 1.3, not 1")):
            behavior_from_json(data)


class TestModelFormat:
    def test_roundtrip(self):
        model = random_model(np.random.default_rng(12), n_lambda=3)
        again = model_from_json(model_json(model))
        assert again.labels == model.labels
        np.testing.assert_allclose(again.prior, model.prior, atol=1e-15)
        np.testing.assert_allclose(again.alice_response, model.alice_response, atol=1e-15)
        np.testing.assert_allclose(again.bob_response, model.bob_response, atol=1e-15)
        np.testing.assert_allclose(
            lhv_behavior(again).table, lhv_behavior(model).table, atol=1e-15
        )

    def test_missing_prob(self):
        with pytest.raises(InvalidInputError, match='lambda entry 0 is missing "prob"'):
            model_from_json({"lambda": [{"label": "l0", "pA_plus": {"a": 1, "a'": 1},
                                         "pB_plus": {"b": 1, "b'": 1}}]})

    def test_missing_setting_in_response(self):
        with pytest.raises(InvalidInputError, match=re.escape('lambda entry 0: "pA_plus" is missing setting "a\'"')):
            model_from_json({"lambda": [{"label": "l0", "prob": 1.0,
                                         "pA_plus": {"a": 1},
                                         "pB_plus": {"b": 1, "b'": 1}}]})

    def test_bad_prior_mass(self):
        entry = {"label": "l0", "prob": 0.5,
                 "pA_plus": {"a": 1, "a'": 1}, "pB_plus": {"b": 1, "b'": 1}}
        with pytest.raises(InvalidInputError, match="prior sums to 0.5, not 1"):
            model_from_json({"lambda": [entry]})

    def test_empty_lambda_list(self):
        with pytest.raises(InvalidInputError, match='"lambda" must be a non-empty list'):
            model_from_json({"lambda": []})

    def test_absent_label_defaults_to_entry_index(self):
        assert model_from_json({"lambda": [_ONE_ENTRY]}).labels == ("l0",)


class TestNetworkFormat:
    def test_roundtrip_with_priors(self):
        spec = NetworkSpec(
            model=random_model(np.random.default_rng(3), n_lambda=2),
            setting_prior_a=np.array([0.25, 0.75]),
            setting_prior_b=np.array([0.6, 0.4]),
        )
        again = network_from_json(network_json(spec))
        np.testing.assert_allclose(again.setting_prior_a, [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(again.setting_prior_b, [0.6, 0.4], atol=1e-15)

    def test_priors_default_when_absent(self):
        model = random_model(np.random.default_rng(3), n_lambda=2)
        spec = network_from_json(model_json(model))
        np.testing.assert_allclose(spec.setting_prior_a, [0.5, 0.5], atol=0)

    def test_model_file_is_valid_network_file(self):
        model = random_model(np.random.default_rng(14), n_lambda=2)
        text = json.dumps(model_json(model))
        spec = network_from_json(json.loads(text))
        np.testing.assert_allclose(
            lhv_behavior(spec.model).table, lhv_behavior(model).table, atol=1e-15
        )


@pytest.mark.parametrize("parse, data, message", [
    (behavior_from_json, [], 'expected an object with a "blocks" key'),
    (model_from_json, {"lambda": [{}]}, 'lambda entry 0 is missing "prob"'),
    (model_from_json, {"lambda": [{**_ONE_ENTRY, "prob": 0.5}]}, "prior sums to 0.5, not 1 within 1e-09"),
    (network_from_json, {"lambda": 1}, '"lambda" must be a non-empty list'),
    (network_from_json, {"lambda": [_ONE_ENTRY], "settingPriorA": {"a": 1.5, "a'": 0.5}},
     "settingPriorA sums to 2, not 1 within 1e-09"),
])
def test_parse_errors_name_no_file(parse, data, message):
    # the parsers read a value, not a file, and the constructors' errors pass through
    # as they are: a caller that read a file adds its path
    with pytest.raises(InvalidInputError) as excinfo:
        parse(data)
    assert str(excinfo.value) == message


class TestCsvAndFormatting:
    def test_sweep_csv_full_precision(self):
        rows = sweep(singlet(), steps=2, theta_start_deg=0.0, theta_end_deg=45.0)
        text = sweep_rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "theta_degrees,S"
        parsed = float(lines[1].split(",")[1])
        assert abs(parsed + 2 * math.sqrt(2)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(2, 3000), piece=st.sampled_from([1, 7, _CHUNK, None]),
           cuts=st.lists(st.integers(1, 3000), max_size=12), seed=st.integers(0, 2**32 - 1))
    def test_sweep_csv_pieces_join_to_the_whole(self, steps, piece, cuts, seed):
        # pieces of a fixed size, as the CLI cuts them, or cut at random points (None)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(steps, 2)) * 10.0 ** rng.integers(-300, 300, size=(steps, 2))
        rows[rng.random((steps, 2)) < 0.1] = -0.0
        bounds = piece_bounds(range(piece, steps, piece) if piece else [c for c in cuts if c <= steps])
        pieces = [sweep_rows_to_csv(rows, start, stop) for start, stop in bounds]
        loop = "theta_degrees,S\n" + "".join(f"{float(t)!r},{float(s)!r}\n" for t, s in rows)
        assert "".join(pieces) == sweep_rows_to_csv(rows) == loop
        assert [p.startswith("theta_degrees,S\n") for p in pieces] == [start == 0 for start, _ in bounds]

    def test_fmt_seven_decimals(self):
        assert fmt(-2 * math.sqrt(2)) == "-2.8284271"
        assert fmt(0.07322330470336313) == "0.0732233"

    def test_digest_is_stable(self):
        d1 = digest_inputs({"b": 2, "a": 1})
        d2 = digest_inputs({"a": 1, "b": 2})
        assert d1 == d2 and len(d1) == 64
