"""The 16-entry kernels give the bytes of the numpy code they replaced.

Each kernel runs on Python floats in numpy's order of operations; its numpy
predecessor lives on in conftest as the reference.  Outputs are compared with
``tobytes()``, so a sign of zero or a last bit that differs fails, and inputs
that are refused must be refused with the same message.
"""

import numpy as np
import pytest

from bellkit import (
    InvalidInputError,
    LocalDecomposition,
    NoSignalingReport,
    TwoQubitState,
    correlators,
    local_decomposition,
    pr_box,
    quantum_behavior,
    random_no_signaling_behavior,
    seesaw_maximize,
    uniform_behavior,
)
from bellkit.behavior import _VALS, Behavior, _clean_table, _table_from_means, deterministic_vertex_tables
from bellkit.tolerance import BOUND_SLACK
from conftest import (
    numpy_clean_table,
    numpy_correlators,
    numpy_local_decomposition,
    numpy_no_signaling,
    numpy_table_from_means,
    random_direction,
)
from test_polytope import _FACET_SIGNS, _VERTEX_E, _VERTEX_MA, _VERTEX_MB


def _outcome(f, *args):
    """``f(*args)``, or the type and message of the InvalidInputError it raises."""
    try:
        return f(*args)
    except InvalidInputError as exc:
        return type(exc), str(exc)


def assert_same(new, ref):
    """Equal verdicts, messages and array bytes, dtypes, shapes and write flags."""
    if isinstance(ref, NoSignalingReport):
        assert new.ok is ref.ok
        assert_same(new.alice_residuals, ref.alice_residuals)
        assert_same(new.bob_residuals, ref.bob_residuals)
    elif isinstance(ref, LocalDecomposition):
        assert_same(new.weights, ref.weights)
    elif isinstance(ref, np.ndarray):
        assert (new.dtype, new.shape, new.flags.writeable) == (ref.dtype, ref.shape, ref.flags.writeable)
        assert new.tobytes() == ref.tobytes()
    else:
        assert type(new) is type(ref) and new == ref


def assert_kernels_match(table):
    """``_clean_table`` on ``table``, then the other kernels on the behavior it makes."""
    cleaned = _outcome(_clean_table, table)
    assert_same(cleaned, _outcome(numpy_clean_table, table))
    if isinstance(cleaned, tuple):  # refused, with the reference's message
        return
    b = Behavior(table)
    assert_same(correlators(b), numpy_correlators(b))
    assert_same(b._no_signaling, numpy_no_signaling(b))
    assert_same(_outcome(local_decomposition, b), _outcome(numpy_local_decomposition, b))


def assert_means_match(e, ma, mb):
    table = _table_from_means(e, ma, mb)
    assert_same(table, numpy_table_from_means(e, ma, mb))
    assert_kernels_match(table)


def means_of(table):
    """(e, ma, mb) read from a table as ``random_no_signaling_behavior`` reads them."""
    e = numpy_correlators(Behavior(table)).reshape(2, 2)
    return e, table[:, 0].sum(axis=2) @ _VALS, table[0].sum(axis=1) @ _VALS


def test_criterion_6_draws():
    rng = np.random.default_rng(16180)
    for _ in range(1000):
        table = random_no_signaling_behavior(rng).table
        assert_kernels_match(table)
        assert_means_match(*means_of(table))


@pytest.mark.parametrize("optimal", [True, False], ids=["optimal", "random"])
def test_quantum_behaviors(optimal):
    rng = np.random.default_rng(577)
    for _ in range(200):
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = TwoQubitState.from_amplitudes(amp / np.linalg.norm(amp))
        if optimal:
            settings = seesaw_maximize(psi, seed=0).settings.as_tuple()
        else:
            settings = tuple(random_direction(rng) for _ in range(4))
        a, b, t = psi.correlations
        dirs = np.array([w.as_array() for w in settings])
        assert_means_match(dirs[:2] @ t @ dirs[2:].T, dirs[:2] @ a, dirs[2:] @ b)
        assert_kernels_match(quantum_behavior(psi, settings).table)


def test_vertices_pr_box_and_uniform():
    for table in [*deterministic_vertex_tables(), pr_box().table, uniform_behavior().table]:
        assert_kernels_match(table)
        assert_means_match(*means_of(table))


@pytest.mark.parametrize("facet", range(8))
def test_facet_straddle_draws(facet):
    # test_polytope.test_oracles_agree_across_facets's mixtures, pushed across the CHSH facet
    signs = _FACET_SIGNS[facet]
    on_facet = _VERTEX_E @ signs == 2
    for alpha in (1.0, 0.05):
        for push in (-3.0, -1.5, -1.1, -1.0, -0.9, -0.5, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0):
            for seed in range(4):
                w = np.random.default_rng(seed).dirichlet(np.full(8, alpha))
                e = w @ _VERTEX_E[on_facet] + push * BOUND_SLACK * signs / 4.0
                assert_means_match(e.reshape(2, 2), w @ _VERTEX_MA[on_facet], w @ _VERTEX_MB[on_facet])


def _with_entries(table, entries):
    out = np.array(table, dtype=float)
    for index, value in entries.items():
        out[index] = value
    return out


def edge_tables():
    """Tables with -0.0 entries, clamped -5e-13 entries, and tables each check refuses."""
    bases = [*deterministic_vertex_tables(), pr_box().table]
    uniform = np.full((2, 2, 2, 2), 0.25)
    yield from (np.where(t == 0.0, -0.0, t) for t in bases)
    yield from (np.where(t == 0.0, -5e-13, t) for t in bases)
    yield np.full((2, 2, 2, 2), -0.0)  # refused: every block sums to 0
    for index in np.ndindex(2, 2, 2, 2):
        yield _with_entries(uniform, {index: -0.0})
        partner = (*index[:2], 1 - index[2], index[3])
        yield _with_entries(uniform, {index: -5e-13, partner: 0.5 + 5e-13})
    yield _with_entries(uniform, {(0, 0, 0, 0): -1e-9})
    yield _with_entries(uniform, {(0, 1, 1, 0): -2e-12, (1, 1, 0, 0): -3e-12})
    yield _with_entries(uniform, {(0, 0, 0, 0): np.nan})
    yield _with_entries(uniform, {(1, 1, 1, 1): -np.inf})
    yield _with_entries(uniform, {(0, 0): 1e308})
    yield _with_entries(uniform, {(0, 1, 0, 0): 0.3, (1, 0, 0, 0): 0.45})
    yield _with_entries(uniform, {(0, 1, 0, 0): 0.5, (1, 0, 0, 0): 0.0})  # a tie: the first block is named
    yield uniform[0]


def test_signed_zeros_clamps_and_refusals():
    for table in edge_tables():
        assert_kernels_match(table)
