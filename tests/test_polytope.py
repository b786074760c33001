import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    Behavior,
    InvalidInputError,
    LocalDecomposition,
    TwoQubitState,
    behavior_from_correlators,
    chsh_variants,
    enumerate_deterministic,
    is_local,
    lhv_behavior,
    local_decomposition,
    pr_box,
    quantum_behavior,
    random_model,
    random_no_signaling_behavior,
    uniform_behavior,
)
from bellkit.tolerance import BOUND_SLACK, ROUNDOFF
from conftest import (
    inverse_stack_decomposition,
    linux_only,
    oracle_vertex_tables,
    peak_rise_mb,
    random_direction,
    relabelings,
)

# correlators (ab, ab', a'b, a'b') and outcome means (a, a'), (b, b') of the 16 deterministic strategies
_STRATEGIES = np.array([s for s, _ in enumerate_deterministic()], float)
_VERTEX_E = _STRATEGIES[:, [0, 0, 1, 1]] * _STRATEGIES[:, [2, 3, 2, 3]]
_VERTEX_MA, _VERTEX_MB = _STRATEGIES[:, :2], _STRATEGIES[:, 2:]
# the sign patterns of the 8 CHSH facets
_FACET_SIGNS = np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1],
                         [1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, -1, -1, 1]])


def assert_recomposes(deco: LocalDecomposition, b: Behavior, tol: float) -> None:
    """The certificate's weights are >= 0 and its mixture misses no table entry of ``b`` by more than ``tol``."""
    assert deco.weights.min() >= 0.0
    assert np.max(np.abs(deco.behavior().table - b.table)) <= tol


class TestChshVariants:
    def test_pr_box_hits_four(self):
        variants = chsh_variants([1.0, 1.0, 1.0, -1.0])
        assert variants.shape == (8,)
        assert np.max(variants) == 4.0
        assert np.min(variants) == -4.0

    def test_symmetric_zero(self):
        np.testing.assert_allclose(chsh_variants([0.0, 0.0, 0.0, 0.0]), 0.0, atol=0)


class TestIsLocal:
    def test_uniform_is_local(self):
        assert is_local(uniform_behavior())

    def test_singlet_reference_is_not(self, singlet_behavior):
        assert not is_local(singlet_behavior)

    def test_pr_box_is_not(self):
        assert not is_local(pr_box())

    def test_signaling_rejected(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
        t[0, 1] = [[0.0, 0.0], [1.0, 0.0]]
        for oracle in (is_local, local_decomposition):
            with pytest.raises(InvalidInputError, match="signals"):
                oracle(Behavior(t))

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            b = random_no_signaling_behavior(rng)
            verdict = is_local(b)
            assert (local_decomposition(b) is not None) == verdict
            for transform in relabelings():
                relabeled = Behavior(transform(np.asarray(b.table)))
                assert is_local(relabeled) == verdict
                # the chord A-A' is not symmetric under these maps, so each one takes its own path
                assert (local_decomposition(relabeled) is not None) == verdict


class TestLocalDecomposition:
    def test_uniform_feasible_and_reproduces(self):
        deco = local_decomposition(uniform_behavior())
        assert deco is not None
        assert deco.weights.sum() == pytest.approx(1.0, abs=1e-9)
        err = np.max(np.abs(deco.behavior().table - uniform_behavior().table))
        assert err <= 1e-7

    def test_deterministic_point_mass(self):
        # each vertex has P(a, a') = 0 on three of its four chord cells, where no division may run
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k, table in enumerate(oracle_vertex_tables()):
                deco = local_decomposition(Behavior(table))
                assert deco is not None
                assert np.array_equal(deco.weights, np.eye(16)[k])

    def test_singlet_reference_infeasible(self, singlet_behavior):
        assert local_decomposition(singlet_behavior) is None

    def test_pr_box_infeasible(self):
        assert local_decomposition(pr_box()) is None

    def test_lhv_behaviors_feasible_and_reproduced(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            b = lhv_behavior(random_model(rng))
            deco = local_decomposition(b)
            assert deco is not None
            assert np.max(np.abs(deco.behavior().table - b.table)) <= 1e-7

    def test_recomposes_criterion_6_draws(self):
        rng = np.random.default_rng(16180)  # criterion 6's draws
        local = 0
        for _ in range(1000):
            b = random_no_signaling_behavior(rng)
            deco = local_decomposition(b)
            if deco is not None:
                local += 1
                assert_recomposes(deco, b, ROUNDOFF)
        assert local >= 100

    def test_weight_validation(self):
        with pytest.raises(InvalidInputError):
            LocalDecomposition(np.full(16, 1.0 / 8.0))
        with pytest.raises(InvalidInputError):
            LocalDecomposition(np.concatenate([[-1e-6, 1.0 + 1e-6], np.zeros(14)]))

    @pytest.mark.parametrize("weights, message", [
        (np.zeros(15), "weights must have shape (16,), got (15,)"),
        (np.r_[np.nan, np.full(15, 1.0 / 15.0)], "weights has non-finite entries"),
        (np.r_[np.inf, np.zeros(15)], "weights has non-finite entries"),
        (np.r_[-1e-6, 1.0 + 1e-6, np.zeros(14)], "weights entry -1.000e-06 below -1e-09"),
        (np.full(16, 1.1 / 16.0), "weights sums to 1.1, not 1 within 1e-09"),
    ], ids=["shape", "nan", "inf", "negative", "mass"])
    def test_refusal_messages(self, weights, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            LocalDecomposition(weights)

    def test_nan_weight_rejected(self):
        weights = np.full(16, 1.0 / 16.0)
        weights[3] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            LocalDecomposition(weights)


class TestVertexSimplices:
    """The closed form against the vertex-simplex reference in conftest, and no table built on first use."""

    @linux_only
    def test_first_build_memory(self):
        # the closed form builds no table on first use, so the first call raises the
        # peak by ~0.4 MB; a table of vertex simplices built then would take MBs.  numpy,
        # which the weights' array needs, loads in the setup, as it is no part of the build
        setup = "import numpy\nfrom bellkit import local_decomposition, uniform_behavior"
        assert peak_rise_mb(setup, "local_decomposition(uniform_behavior())") < 1

    def test_weights_match_inverse_stack(self):
        rng = np.random.default_rng(16180)  # criterion 6's draws
        behaviors = [random_no_signaling_behavior(rng) for _ in range(1000)]
        rng = np.random.default_rng(577)
        for _ in range(200):
            amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = TwoQubitState.from_amplitudes(amp / np.linalg.norm(amp))
            behaviors.append(quantum_behavior(psi, tuple(random_direction(rng) for _ in range(4))))
        local = 0
        for b in behaviors:
            deco, reference = local_decomposition(b), inverse_stack_decomposition(b)
            assert (deco is None) == (reference is None) == (not is_local(b))
            if deco is not None:
                local += 1
                assert_recomposes(deco, b, ROUNDOFF)
                assert_recomposes(reference, b, ROUNDOFF)
        assert 100 <= local <= len(behaviors) - 100  # both answers must actually occur


@settings(max_examples=300, deadline=None)
@given(
    facet=st.integers(0, 7),
    alpha=st.sampled_from([1.0, 0.05]),
    push=st.sampled_from([-3.0, -1.5, -1.1, -0.9, -0.5, 0.5, 0.9, 1.1, 1.5, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracles_agree_across_facets(facet, alpha, push, seed):
    # a Dirichlet mixture of the 8 vertices on one CHSH facet, moved along its
    # normal so that this variant reads 2 + push * BOUND_SLACK; push = +-1 is
    # left out, since there both verdicts rest on round-off
    signs = _FACET_SIGNS[facet]
    on_facet = _VERTEX_E @ signs == 2
    w = np.random.default_rng(seed).dirichlet(np.full(8, alpha))
    e = w @ _VERTEX_E[on_facet] + push * BOUND_SLACK * signs / 4.0
    try:
        b = behavior_from_correlators(e.reshape(2, 2), w @ _VERTEX_MA[on_facet], w @ _VERTEX_MB[on_facet])
    except InvalidInputError:  # pushed past a positivity facet
        return
    deco = local_decomposition(b)
    assert (deco is not None) == is_local(b)
    if deco is not None:  # pushes of +0.5 and +0.9 reach the clipped cells inside the slack
        assert_recomposes(deco, b, BOUND_SLACK)


def test_oracle_equivalence_sample():
    # the full 1000-behavior run lives in the acceptance suite
    rng = np.random.default_rng(2718)
    seen = {True: 0, False: 0}
    for _ in range(200):
        b = random_no_signaling_behavior(rng)
        verdict = is_local(b)
        assert (local_decomposition(b) is not None) == verdict
        seen[verdict] += 1
    assert min(seen.values()) >= 10  # both classes must actually occur
