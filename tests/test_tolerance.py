import re
from pathlib import Path

import numpy as np
import pytest

import bellkit
from bellkit import InvalidInputError, NetworkSpec, random_model
from bellkit.tolerance import PROBABILITY_SLACK, probability_vector

_FLOAT_LITERAL = re.compile(r"\d+e-\d+")


def test_tolerance_literals_only_in_tolerance_module():
    package = Path(bellkit.__file__).parent
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(package.glob("*.py")) if path.name != "tolerance.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if _FLOAT_LITERAL.search(line)]
    assert found == []


class TestProbabilityVector:
    def test_entries_within_slack_clipped_and_renormalized(self):
        p = probability_vector([-0.5 * PROBABILITY_SLACK, 1.0 + 0.5 * PROBABILITY_SLACK], "p")
        assert p[0] == 0.0 and p[1] == 1.0
        assert not p.flags.writeable

    @pytest.mark.parametrize("values", [
        [-2 * PROBABILITY_SLACK, 1.0 + 2 * PROBABILITY_SLACK],  # entry below -slack
        [0.5, 0.5 + 2 * PROBABILITY_SLACK],                     # mass off by more than slack
        [np.inf, 0.0],
        [np.nan, 1.0],
        [1e308, 1e308],                                         # mass overflows to inf
    ])
    def test_rejected(self, values):
        with pytest.raises(InvalidInputError, match="p "):
            probability_vector(values, "p")

    @pytest.mark.parametrize("values, message", [
        ([np.inf, -np.inf], "p has non-finite entries"),      # the sum is NaN, with no warning
        ([np.nan, -1.0], "p has non-finite entries"),         # ahead of the negative entry
        ([1e308, 1e308], "p sums to inf, not 1"),             # finite entries, overflowing mass
        ([-0.5, 1.5], "p entry -5.000e-01 below"),
    ])
    def test_first_fault_named(self, values, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            probability_vector(values, "p")

    def test_setting_prior_slightly_negative_clipped(self):
        # setting priors follow the same rule as every other distribution
        spec = NetworkSpec(model=random_model(np.random.default_rng(0)),
                           setting_prior_a=[-0.5 * PROBABILITY_SLACK, 1.0])
        assert spec.setting_prior_a.tolist() == [0.0, 1.0]
