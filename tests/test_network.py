from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import network
from bellkit import (
    InsufficientDataError,
    InvalidInputError,
    LHVModel,
    NetworkSpec,
    SampleDataset,
    chsh,
    conditional_behavior,
    correlators,
    estimate_chsh,
    exact_chsh,
    exact_joint,
    lhv_behavior,
    random_model,
    sample,
    verify_markov,
)
from bellkit.tolerance import ROUNDOFF, probability_vector
from conftest import (
    deterministic_model,
    five_array_estimate,
    five_array_sample,
    linux_only,
    loop_csv,
    loop_screening_residuals,
    model_chsh,
    peak_rise_mb,
    piece_bounds,
    record_code,
)


def det_spec(outs=(1, 1, 1, 1)) -> NetworkSpec:
    return NetworkSpec(model=deterministic_model(*outs))


def coin_spec() -> NetworkSpec:
    model = LHVModel(
        labels=("l0",),
        prior=np.array([1.0]),
        alice_response=np.full((1, 2), 0.5),
        bob_response=np.full((1, 2), 0.5),
    )
    return NetworkSpec(model=model)


class TestExactJoint:
    def test_deterministic_four_atoms(self):
        joint = exact_joint(det_spec())
        assert joint.shape == (1, 2, 2, 2, 2)
        nonzero = joint[joint > 0]
        assert len(nonzero) == 4
        np.testing.assert_allclose(nonzero, 0.25, atol=0)

    def test_fair_coins_uniform(self):
        joint = exact_joint(coin_spec())
        np.testing.assert_allclose(joint, 1.0 / 16.0, atol=0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = NetworkSpec(model=random_model(rng))
            assert exact_joint(spec).sum() == pytest.approx(1.0, abs=1e-12)

    def test_conditioning_recovers_model_behavior(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            spec = NetworkSpec(
                model=random_model(rng),
                setting_prior_a=rng.dirichlet([2.0, 2.0]),
                setting_prior_b=rng.dirichlet([2.0, 2.0]),
            )
            conditioned = conditional_behavior(exact_joint(spec))
            np.testing.assert_allclose(
                conditioned.table, lhv_behavior(spec.model).table, atol=1e-12
            )

    def test_network_chsh_in_local_range(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            spec = NetworkSpec(model=random_model(rng))
            assert abs(exact_chsh(spec)) <= 2.0 + 1e-12


class TestVerifyMarkov:
    def test_valid_specs_have_tiny_residuals(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            spec = NetworkSpec(model=random_model(rng))
            report = verify_markov(spec)
            assert report.max_residual <= ROUNDOFF, report

    def test_source_setting_dependence_detected(self):
        # hidden value perfectly tracks Alice's setting
        joint = np.zeros((2, 2, 2, 2, 2))
        for y in range(2):
            joint[0, 0, y, 0, 0] = 0.25
            joint[1, 1, y, 0, 0] = 0.25
        report = verify_markov(joint)
        assert report.source_settings > 0.1
        assert report.max_residual > ROUNDOFF

    def test_outcome_crosstalk_detected(self):
        # Bob's outcome reads Alice's setting
        joint = np.zeros((1, 2, 2, 2, 2))
        for y in range(2):
            joint[0, 0, y, 0, 0] = 0.25  # x = a  -> B = +1
            joint[0, 1, y, 0, 1] = 0.25  # x = a' -> B = -1
        # the same joint with the parties swapped: Alice's outcome reads Bob's setting
        for reader, other, crosstalk in (("bob", "alice", joint),
                                         ("alice", "bob", joint.transpose(0, 2, 1, 4, 3))):
            report = verify_markov(crosstalk)
            assert getattr(report, f"{reader}_screening") > 0.1, reader
            assert getattr(report, f"{other}_screening") == 0.0, reader
            assert report.source_settings <= 1e-15

    def test_matches_per_slice_oracle(self):
        rng = np.random.default_rng(2015)
        for trial in range(100):
            raw = rng.random((int(rng.integers(1, 6)), 2, 2, 2, 2)) ** 3
            if trial % 3 == 0:  # a joint that factorizes, residuals at round-off
                raw = exact_joint(NetworkSpec(model=random_model(rng)))
            raw[rng.random(raw.shape[:2]) < 0.3] = 0.0  # empty some (k, x) slices
            if trial % 2:  # and some (k, y) slices
                raw[:, :, 1][rng.random(raw.shape[0]) < 0.5] = 0.0
            if raw.sum() == 0.0:
                continue
            raw /= raw.sum()
            report = verify_markov(raw)
            res_a, res_b = loop_screening_residuals(probability_vector(raw, "joint"))
            assert abs(report.alice_screening - res_a) <= 1e-15
            assert abs(report.bob_screening - res_b) <= 1e-15

    def test_raw_joint_validation(self):
        with pytest.raises(InvalidInputError):
            verify_markov(np.full((1, 2, 2, 2, 2), 1.0))  # sums to 16
        with pytest.raises(InvalidInputError):
            verify_markov(np.zeros((2, 2, 2, 2)))  # wrong rank
        with pytest.raises(InvalidInputError, match="joint is empty"):
            verify_markov(np.zeros((0, 2, 2, 2, 2)))  # no hidden values

    def test_raw_joint_with_nan_rejected(self):
        joint = np.full((1, 2, 2, 2, 2), 1.0 / 16.0)
        joint[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            verify_markov(joint)


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        spec = NetworkSpec(model=random_model(np.random.default_rng(1)))
        d1 = sample(spec, 500, seed=99)
        d2 = sample(spec, 500, seed=99)
        np.testing.assert_array_equal(d1.code, d2.code)
        assert d1.to_csv() == d2.to_csv()

    def test_different_seed_differs(self):
        spec = coin_spec()
        d1 = sample(spec, 500, seed=1)
        d2 = sample(spec, 500, seed=2)
        assert d1.to_csv() != d2.to_csv()

    def test_strategy_outputs_match(self):
        outs = (1, -1, -1, 1)
        code = sample(det_spec(outs), 2000, seed=7).code
        x, y = code >> 3 & 1, code >> 2 & 1
        a, b = 1 - 2 * (code >> 1 & 1), 1 - 2 * (code & 1)
        np.testing.assert_array_equal(a, np.where(x == 0, outs[0], outs[1]))
        np.testing.assert_array_equal(b, np.where(y == 0, outs[2], outs[3]))

    def test_block_counts_within_five_sigma(self):
        n = 100_000
        dataset = sample(coin_spec(), n, seed=12345)
        sigma = np.sqrt(n * 0.25 * 0.75)
        counts = np.array(estimate_chsh(dataset).per_block_counts)
        assert np.all(np.abs(counts - n / 4) <= 5 * sigma)
        assert counts.sum() == dataset.count

    @linux_only
    def test_peak_memory_of_a_million_records(self):
        # the draw is chunked and the estimator works block by block, so only the codes grow with n
        setup = ("import numpy as np\n"
                 "from bellkit import NetworkSpec, estimate_chsh, random_model, sample\n"
                 "spec = NetworkSpec(model=random_model(np.random.default_rng(0), n_lambda=2))")
        assert peak_rise_mb(setup, "estimate_chsh(sample(spec, 10**6, seed=0))") < 16

    def test_invalid_count(self):
        with pytest.raises(InvalidInputError):
            sample(coin_spec(), 0, seed=1)
        with pytest.raises(InvalidInputError, match="-n"):
            sample(coin_spec(), network.MAX_RECORDS + 1, seed=1)  # refused before any draw

    def test_csv_shape(self):
        dataset = sample(det_spec(), 3, seed=0)
        lines = dataset.to_csv().splitlines()
        assert lines[0] == "lambda,x,y,A,B"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_empty_dataset_csv_is_header(self):
        dataset = SampleDataset(labels=("l0",), code=np.array([], dtype=np.intp))
        assert dataset.to_csv() == "lambda,x,y,A,B\n"


class TestSampleDatasetValidation:
    @pytest.mark.parametrize("code", [[-1, 0], [0, 32], [0.0, 1.0], [[0, 1], [2, 3]], 3, [True, False]],
                             ids=["negative", "past_last_label", "float", "2d", "0d", "bool"])
    def test_refused(self, code):
        with pytest.raises(InvalidInputError, match="record codes"):
            SampleDataset(labels=("l0", "l1"), code=np.array(code))

    @pytest.mark.parametrize("values", [[0, 5, 31], []], ids=["codes", "empty"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
    def test_integer_codes_accepted_as_read_only_intp(self, dtype, values):
        # stored in the smallest signed dtype holding 16 * n_labels - 1: 31, 143 and 32783
        for n_labels, compact in ((2, np.int8), (9, np.int16), (2049, np.int32)):
            labels = tuple(f"l{k}" for k in range(n_labels))
            dataset = SampleDataset(labels=labels, code=np.array(values, dtype=dtype))
            assert dataset.code.dtype == compact
            assert dataset.code.tolist() == values
            assert not dataset.code.flags.writeable
            assert dataset.count == len(values)


def first_difference(got: str, want: str) -> str | None:
    """None if two texts are equal, else their first differing line: a short failure message in place of a diff."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: {g!r} != {w!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


@pytest.mark.parametrize("n_lambda", [1, 3, 2000])
@pytest.mark.parametrize("priors", [((0.5, 0.5), (0.5, 0.5)), ((0.7, 0.3), (0.2, 0.8))],
                         ids=["uniform", "uneven"])
def test_code_pipeline_matches_five_array_route(n_lambda, priors):
    # same streams, same record order: codes, CSV bytes and the estimate agree exactly,
    # also when chunks of 1 and 7 records put chunk edges inside the draw and the code counts
    spec = NetworkSpec(model=random_model(np.random.default_rng(n_lambda), n_lambda=n_lambda),
                       setting_prior_a=np.array(priors[0]), setting_prior_b=np.array(priors[1]))
    for seed in (0, 7, 2**63):
        arrays = five_array_sample(spec, 5000, seed)
        csv = loop_csv(spec.model.labels, *arrays)
        s, stderr, counts = five_array_estimate(*arrays[1:])
        for chunk in (1, 7, network._CHUNK):
            with mock.patch.object(network, "_CHUNK", chunk):
                dataset = sample(spec, 5000, seed=seed)
                text = dataset.to_csv()
            np.testing.assert_array_equal(dataset.code, record_code(*arrays))
            mismatch = first_difference(text, csv)
            assert mismatch is None, mismatch
            est = estimate_chsh(dataset)
            assert est.s == s
            assert est.stderr == stderr
            assert est.per_block_counts == counts


def inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The hidden value of each key as a binary search over the whole cumulative prior, clamped to the last value."""
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def hand_built_keys(cum: np.ndarray, size: int) -> np.ndarray:
    """Keys in [0, 1): each cumulative mass and bucket edge i/size with its float neighbours, 0 and 1 - 2^-53."""
    points = np.concatenate([cum, np.arange(size) / size])
    keys = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0), [0.0, 1.0 - 2.0 ** -53]])
    return keys[(keys >= 0.0) & (keys < 1.0)]


_LOOKUP_PRIORS = {
    "one_value": [1.0],
    "dyadic_pair": [0.5, 0.5],  # the only cut point is a bucket edge
    "zero_entries": [0.0, 0.25, 0.0, 0.0, 0.1, 0.65, 0.0],  # repeated cumulative masses
    "mass_below_one": [0.1] * 10,  # the cumulative sum ends at 1 - 2^-53
    "tiny_entries": [1e-300, 5e-324, 0.5, 0.5 - 1e-17],
    "two_thousand": np.random.default_rng(2000).dirichlet(np.ones(2000)).tolist(),
}


@pytest.mark.parametrize("size", [1, 2, 8, 1024, 1 << 16])
@pytest.mark.parametrize("prior", list(_LOOKUP_PRIORS.values()), ids=list(_LOOKUP_PRIORS))
def test_hidden_values_match_the_inverse_cdf(prior, size):
    # indexed search is exact for every power-of-two table size, at and next to each cut point and bucket edge
    cum = np.cumsum(prior)
    cut = cum[:-1]
    table = network._guide_table(cut, size)
    u = hand_built_keys(cum, size)
    np.testing.assert_array_equal(network._hidden_values(u, cut, table), inverse_cdf(cum, u))
    # a cut point leaves at most one bucket unsettled, and a bucket edge none
    assert np.count_nonzero(table < 0) <= np.count_nonzero(cut * size % 1)


def test_mass_below_one_reaches_the_last_value():
    cum = np.cumsum(_LOOKUP_PRIORS["mass_below_one"])
    assert cum[-1] < 1.0
    u = np.array([cum[-1], 1.0 - 2.0 ** -53])
    assert network._hidden_values(u, cum[:-1], network._guide_table(cum[:-1], 8)).tolist() == [9, 9]


@settings(max_examples=20, deadline=None)
@given(
    n_lambda=st.integers(1, 2100),
    zero_share=st.sampled_from([0.0, 0.5, 0.9]),
    n=st.sampled_from([network._CHUNK - 1, network._CHUNK, network._CHUNK + 1, 3 * network._CHUNK + 7]),
    prior_a=st.floats(0.0, 1.0),
    prior_b=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_matches_the_reference_sampler(n_lambda, zero_share, n, prior_a, prior_b, seed):
    # random priors with zero entries, uneven setting priors and chunk edges at, before and after n
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_lambda=n_lambda)
    prior = model.prior * (rng.random(n_lambda) >= zero_share)
    prior[rng.integers(n_lambda)] += 1.0 - prior.sum()
    spec = NetworkSpec(model=LHVModel(model.labels, prior, model.alice_response, model.bob_response),
                       setting_prior_a=np.array([prior_a, 1.0 - prior_a]),
                       setting_prior_b=np.array([prior_b, 1.0 - prior_b]))
    np.testing.assert_array_equal(sample(spec, n, seed=seed).code, record_code(*five_array_sample(spec, n, seed)))


def test_code_counts_taken_once_per_dataset():
    # the estimate and the CSV read one cached, read-only table: one np.bincount per chunk in all
    dataset = sample(coin_spec(), 3 * network._CHUNK + 7, seed=0)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
        estimate = estimate_chsh(dataset)
        dataset.to_csv(0, 10)
        assert estimate_chsh(dataset) == estimate
    assert bincount.call_count == 4
    assert not dataset._code_counts.flags.writeable


@settings(max_examples=150, deadline=None)
@given(
    n_lambda=st.integers(1, 2100),
    n=st.integers(1, 5000),
    stem=st.text(max_size=4),
    chunk=st.sampled_from([1, 7, network._CHUNK]),
    piece=st.sampled_from([1, 7, network._CHUNK, None]),
    cuts=st.lists(st.integers(1, 5000), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_lambda=1, n=1, stem="", chunk=network._CHUNK, piece=None, cuts=[], seed=0)
@example(n_lambda=2000, n=2000, stem="λé", chunk=7, piece=7, cuts=[], seed=1)
def test_to_csv_matches_row_loop(n_lambda, n, stem, chunk, piece, cuts, seed):
    # every (label, x, y, A, B) combination can occur, including n < 16 * n_lambda;
    # chunks of 1 and 7 records put chunk edges inside the code counts, and the file is cut
    # into pieces of a fixed size, as the CLI cuts it, or at random points (None)
    rng = np.random.default_rng(seed)
    labels = tuple(f"{stem}{k}" for k in range(n_lambda))
    arrays = (rng.integers(0, n_lambda, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
              rng.choice([1, -1], n), rng.choice([1, -1], n))
    dataset = SampleDataset(labels=labels, code=record_code(*arrays))
    bounds = piece_bounds(range(piece, n, piece) if piece else [c for c in cuts if c <= n])
    with mock.patch.object(network, "_CHUNK", chunk):
        pieces = [dataset.to_csv(start, stop) for start, stop in bounds]
        assert "".join(pieces) == dataset.to_csv() == loop_csv(labels, *arrays)
    # the header leads the first piece only
    assert [p.startswith("lambda,x,y,A,B\n") for p in pieces] == [start == 0 for start, _ in bounds]


def test_empty_dataset_csv_is_the_header():
    dataset = SampleDataset(labels=("l0", "l1"), code=np.empty(0, dtype=int))
    assert dataset.to_csv() == dataset.to_csv(0, 0) == "lambda,x,y,A,B\n"
    assert dataset.to_csv(1) == ""


class TestEstimateChsh:
    def test_deterministic_dataset(self):
        dataset = sample(det_spec(), 1000, seed=3)
        est = estimate_chsh(dataset)
        assert est.s == 2.0
        assert est.stderr == 0.0

    def test_missing_block_errors(self):
        zeros, ones = np.zeros(8, dtype=int), np.ones(8, dtype=int)
        dataset = SampleDataset(
            labels=("l0",),
            # x = 0 throughout, so setting a' never occurs
            code=record_code(lam=zeros, x=zeros, y=np.tile([0, 1], 4), a=ones, b=ones),
        )
        with pytest.raises(InsufficientDataError, match=r"\(a',b\)"):
            estimate_chsh(dataset)

    def test_first_short_block_is_named(self):
        # (a,b') holds 1 record and (a',b) none: the error names (a,b'), the first in order
        pairs = [(0, 0)] * 4 + [(0, 1)] + [(1, 1)] * 4
        x, y = (np.array(v) for v in zip(*pairs))
        ones = np.ones(x.size, dtype=int)
        dataset = SampleDataset(labels=("l0",), code=record_code(lam=0 * ones, x=x, y=y, a=ones, b=ones))
        with pytest.raises(InsufficientDataError, match=r"^block \(a,b'\) has 1 record\(s\)"):
            estimate_chsh(dataset)

    def test_record_order_leaves_the_estimate_unchanged(self):
        spec = NetworkSpec(model=random_model(np.random.default_rng(5), n_lambda=3))
        for seed in range(20):
            dataset = sample(spec, 20_000, seed=seed)
            shuffled = SampleDataset(labels=dataset.labels,
                                     code=np.random.default_rng(seed).permutation(dataset.code))
            assert estimate_chsh(shuffled) == estimate_chsh(dataset)

    def test_estimate_near_exact(self):
        rng = np.random.default_rng(77)
        spec = NetworkSpec(model=random_model(rng, n_lambda=4))
        exact = model_chsh(spec.model)
        est = estimate_chsh(sample(spec, 100_000, seed=2024))
        assert abs(est.s - exact) <= 5.0 * est.stderr

    def test_estimator_consistency(self):
        # fixed spec: the n=1e6 estimate beats the n=1e4 estimate almost always
        spec = NetworkSpec(model=random_model(np.random.default_rng(8), n_lambda=3))
        exact = model_chsh(spec.model)
        wins = 0
        for seed in range(100):
            coarse = estimate_chsh(sample(spec, 10_000, seed=seed)).s
            fine = estimate_chsh(sample(spec, 1_000_000, seed=10_000 + seed)).s
            wins += abs(fine - exact) < abs(coarse - exact)
        assert wins >= 95


class TestNetworkSpecValidation:
    def test_default_setting_priors_uniform(self):
        spec = coin_spec()
        np.testing.assert_allclose(spec.setting_prior_a, [0.5, 0.5], atol=0)
        np.testing.assert_allclose(spec.setting_prior_b, [0.5, 0.5], atol=0)

    def test_bad_setting_prior(self):
        with pytest.raises(InvalidInputError):
            NetworkSpec(model=coin_spec().model, setting_prior_a=np.array([0.7, 0.7]))

    def test_zero_prior_breaks_conditioning(self):
        spec = NetworkSpec(model=coin_spec().model, setting_prior_a=np.array([1.0, 0.0]))
        with pytest.raises(InvalidInputError):
            conditional_behavior(exact_joint(spec))

    def test_exact_chsh_matches_embedded_model(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            spec = NetworkSpec(model=random_model(rng))
            assert exact_chsh(spec) == pytest.approx(model_chsh(spec.model), abs=1e-12)
            # the path of `bellkit chsh` on a model file, to the last bit
            assert exact_chsh(spec) == chsh(correlators(lhv_behavior(spec.model)))

    def test_exact_chsh_does_not_depend_on_setting_priors(self):
        # the settings are drawn independently of the source, so P(A,B|x,y) is the model's for any priors
        rng = np.random.default_rng(62)
        for _ in range(200):
            model = random_model(rng, n_lambda=5)
            uniform = exact_chsh(NetworkSpec(model=model))
            skewed = exact_chsh(NetworkSpec(model=model, setting_prior_a=np.array([0.9, 0.1]),
                                            setting_prior_b=np.array([0.2, 0.8])))
            assert np.float64(skewed).tobytes() == np.float64(uniform).tobytes()
