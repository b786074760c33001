"""The Python-float kernels give the bytes of their numpy references.

Each kernel of the behavior layer, the model's behavior, the probability
check and a state's amplitudes runs on Python floats; its numpy predecessor
lives on in conftest as the reference, with each probability's and norm's sum
taken left to right as the kernel takes it.  The quantum layer's products
after (a, b, T) run in one written order, that of a BLAS kernel without fused
multiply-adds, against conftest's loop references, and give one digest under
every OpenBLAS kernel.  The optimum, which no longer reads LAPACK's SVD, is
checked by value against it (``assert_optimum``), and (a, b, T) by bytes in
test_caching.py.  Outputs are compared with ``tobytes()``, so a sign of zero
or a last bit that differs fails, and inputs that are refused must be refused
with the same message.
"""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellkit import (
    InvalidInputError,
    LHVModel,
    LocalDecomposition,
    MeasurementSettings,
    NonlocalWitness,
    NoSignalingReport,
    TwoQubitState,
    UnitVector3,
    basis_state,
    behavior_from_correlators,
    chsh,
    chsh_of_settings,
    chsh_variants,
    correlators,
    local_decomposition,
    nonlocal_witness,
    lhv_behavior,
    pr_box,
    quantum_behavior,
    random_model,
    random_no_signaling_behavior,
    random_pure_state,
    seesaw_maximize,
    singlet,
    sweep,
    uniform_behavior,
)
from bellkit.behavior import Behavior, _table_from_means, deterministic_vertex_tables
from bellkit.tolerance import BOUND_SLACK, PROBABILITY_SLACK, ROUNDOFF, probability_vector
from conftest import (
    _VALS,
    numpy_chsh,
    numpy_clean_table,
    numpy_correlators,
    numpy_decomposition_weights,
    numpy_from_amplitudes,
    numpy_lhv_table,
    numpy_local_decomposition,
    numpy_no_signaling,
    numpy_nonlocal_witness,
    numpy_probability_vector,
    numpy_random_amplitudes,
    numpy_state_amplitudes,
    numpy_table_from_means,
    random_direction,
    src_env,
    unit_vector_components,
    written_dot,
    written_order_products,
    written_order_sweep,
)
from test_optimize import assert_optimum, schmidt_state
from test_polytope import _FACET_SIGNS, _VERTEX_E, _VERTEX_MA, _VERTEX_MB


def _outcome(f, *args):
    """``f(*args)``, or the type and message of the InvalidInputError it raises."""
    try:
        return f(*args)
    except InvalidInputError as exc:
        return type(exc), str(exc)


def assert_same(new, ref):
    """Equal verdicts, messages, floats to the bit, and array bytes, dtypes, shapes and write flags."""
    if isinstance(ref, NoSignalingReport):
        assert new.ok is ref.ok
        assert_same(new.alice_residuals, ref.alice_residuals)
        assert_same(new.bob_residuals, ref.bob_residuals)
    elif isinstance(ref, NonlocalWitness):
        assert_same(new.p_a_given_x, ref.p_a_given_x)
        assert_same(new.p_b_given_xya, ref.p_b_given_xya)
    elif isinstance(ref, np.ndarray):
        assert (new.dtype, new.shape, new.flags.writeable) == (ref.dtype, ref.shape, ref.flags.writeable)
        assert new.tobytes() == ref.tobytes()
    elif isinstance(ref, float):
        assert type(new) is float and new.hex() == ref.hex()
    else:
        assert type(new) is type(ref) and new == ref


def decomposition_weights(b):
    """``local_decomposition(b)``'s weights, or None where it finds ``b`` nonlocal."""
    decomposition = local_decomposition(b)
    return None if decomposition is None else decomposition.weights


def unit_vector(*components) -> np.ndarray:
    """The components ``UnitVector3`` stores, as an array."""
    v = UnitVector3(*components)
    return np.array([v.x, v.y, v.z])


def reference_unit_vector(*components) -> np.ndarray:
    return np.array(unit_vector_components(*components))


def assert_kernels_match(table):
    """``Behavior``'s validation of ``table``, then the other kernels on the behavior it makes."""
    ref = _outcome(numpy_clean_table, table)
    b = _outcome(Behavior, table)
    if isinstance(ref, tuple):  # refused, with the reference's message
        assert_same(b, ref)
        return
    assert type(b._entries) is tuple and np.array(b._entries).tobytes() == ref.tobytes()
    assert_same(b.table, ref)
    e = correlators(b)
    assert_same(e, numpy_correlators(b))
    assert_same(_outcome(chsh, e), _outcome(numpy_chsh, e))
    assert_same(b._no_signaling, numpy_no_signaling(b))
    assert_same(_outcome(decomposition_weights, b), _outcome(numpy_local_decomposition, b))
    assert_same(_outcome(nonlocal_witness, b), _outcome(numpy_nonlocal_witness, b))


def from_entries(v):
    """The table of ``Behavior._of(v)``, the entry for Python floats."""
    return Behavior._of(v).table


def assert_means_match(e, ma, mb):
    v = _table_from_means(e.tolist(), ma.tolist(), mb.tolist())
    ref = numpy_table_from_means(e, ma, mb)
    assert type(v) is list and np.array(v).tobytes() == ref.tobytes()
    assert_same(_outcome(from_entries, v), _outcome(numpy_clean_table, ref))
    assert_kernels_match(np.array(v).reshape(2, 2, 2, 2))


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
            assert_optimum(psi)
            settings = seesaw_maximize(psi, seed=0).settings.as_tuple()
        else:
            # conftest.random_direction's draws, each compared before it becomes a setting
            units = [v / np.linalg.norm(v) for v in (rng.standard_normal(3) for _ in range(4))]
            for v in units:
                assert_same(unit_vector(*v), reference_unit_vector(*v))
            settings = tuple(UnitVector3(*v) for v in units)
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


def one_pass_tables():
    """Per position, in a block whose other entries sum to 1: NaN and +-inf, which clamping alone would pass,
    -0.0, and entries at and just past -ROUNDOFF; per block: sums just past the slack on either side."""
    uniform = np.full((2, 2, 2, 2), 0.25)
    for i in range(16):
        index = np.unravel_index(i, (2, 2, 2, 2))
        block = index[:2]
        # the other entries of the block hold 0.5, 0.5 and 0.0: a non-finite entry clamped to 0 would sum to 1
        halves = {(*block, *divmod((i + k) % 4, 2)): 0.5 for k in (1, 2)}
        halves[(*block, *divmod((i + 3) % 4, 2))] = 0.0
        for bad in (np.nan, np.inf, -np.inf, -0.0, -ROUNDOFF, np.nextafter(-ROUNDOFF, -1.0)):
            yield _with_entries(uniform, {**halves, index: bad})
    for k in range(4):
        for scale in (1.0 + 2.0 * PROBABILITY_SLACK, 1.0 - 2.0 * PROBABILITY_SLACK):
            table = uniform.copy()
            table[divmod(k, 2)] *= scale
            yield table


def test_one_pass_validation_on_both_entries():
    """Arrays and Python-float lists take one validator; each refusal carries numpy_clean_table's message."""
    non_finite = (InvalidInputError, "behavior table contains non-finite entries")
    outcomes = set()
    for table in one_pass_tables():
        ref = _outcome(numpy_clean_table, table)
        assert_kernels_match(table)  # the array entry
        assert_same(_outcome(from_entries, table.ravel().tolist()), ref)
        if not np.isfinite(table).all():
            assert ref == non_finite
        outcomes.add(" ".join(ref[1].split()[:2]) if isinstance(ref, tuple) else "accepted")
    # every kind of outcome is reached: acceptance and each refusal
    assert outcomes == {"accepted", "behavior table", "behavior entry", "block (a,b)", "block (a,b')",
                        "block (a',b)", "block (a',b')"}


def test_decomposition_weights():
    """Weight vectors within and beyond the slack, with clamped, signed-zero and refused entries."""
    rng = np.random.default_rng(2718)
    vectors = [*np.eye(16), np.full(16, 1.0 / 16.0)]
    for _ in range(2000):
        w = rng.dirichlet(np.full(16, rng.choice([0.1, 1.0, 10.0])))
        w *= 1.0 + rng.uniform(-1.5, 1.5) * PROBABILITY_SLACK
        w[rng.random(16) < 0.2] = rng.choice([0.0, -0.0, -5e-10, -1.5e-9])
        vectors.append(w)
    vectors += [np.where(np.eye(16)[3] == 0.0, -0.0, 1.0), np.zeros(15), np.zeros((4, 4)),
                np.r_[np.nan, np.full(15, 1.0 / 15.0)], np.r_[np.inf, np.zeros(15)], np.r_[-np.inf, np.ones(15)],
                np.r_[-1e-6, 1.0 + 1e-6, np.zeros(14)], np.full(16, 1.1 / 16.0), np.r_[1e308, 1e308, np.zeros(14)]]
    for w in vectors:
        assert_same(_outcome(lambda v: LocalDecomposition(v).weights, w), _outcome(numpy_decomposition_weights, w))


def test_seesaw_on_special_states():
    """Product, maximally and partially entangled states, with signed-zero amplitudes; generic product states,
    and states within 1e-15 to 1e-3 of a product state or of a maximally entangled one."""
    c, s = math.cos(0.3), math.sin(0.3)
    states = [singlet(), *map(basis_state, range(4)),
              TwoQubitState(np.array([c, 0.0, 0.0, s])), TwoQubitState(np.array([-0.0, c, -s, -0.0])),
              TwoQubitState(np.array([0.5, 0.5, 0.5, 0.5])), TwoQubitState(np.array([0.5, -0.5j, 0.5j, -0.5]))]
    rng = np.random.default_rng(3001)
    for eps in [0.0, *10.0 ** -np.arange(3.0, 16.0)]:
        for t in (eps, math.pi / 4 - eps):
            states += [schmidt_state(rng, t) for _ in range(10)]
            # the same in the computational basis: T diagonal, with exact zeros off the diagonal
            states.append(TwoQubitState.from_amplitudes(np.array([math.cos(t), 0.0, 0.0, math.sin(t)])))
    for psi in states:
        assert_optimum(psi)


def test_unit_vector_edges():
    r = 1.0 / math.sqrt(2.0)
    for v in [(1.0, 0.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -0.0, -1.0), (r, -r, 0.0), (1, 0, 0),
              (np.float32(0.6), 0.8, 0.0), (1.0 + 0.9e-9, 0.0, 0.0), (1.0 + 1.1e-9, 0.0, 0.0),
              (1.0 - 1.1e-9, -0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (1e-200, 0.0, 0.0),
              (1e200, 0.0, 0.0), (1e155, 1e155, 0.0), (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
              (0.0, 0.0, -math.inf), (math.inf, math.nan, 0.0), (1e200, math.inf, 0.0)]:
        assert_same(_outcome(unit_vector, *v), _outcome(reference_unit_vector, *v))


def test_chsh_edges():
    for e in [[1.0, 1.0, 1.0, -1.0], [-0.0, -0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, -0.0],
              [1.0 + BOUND_SLACK, -1.0 - BOUND_SLACK, 0.5, 0.25], [1.0 + 2 * BOUND_SLACK, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, -1.5], [math.nan, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0], [1, 0, 0, 1],
              np.zeros(3), np.zeros(5), np.zeros((3, 4)), np.zeros((0, 4)), np.zeros((2, 2, 4)), np.float64(0.5)]:
        assert_same(_outcome(chsh, e), _outcome(numpy_chsh, e))


def sum_vectors():
    """Dirichlet vectors of every length up to 300 and some longer, then the same with mixed signs and magnitudes."""
    rng = np.random.default_rng(1606)
    for n in [*range(1, 301), 497, 1024, 2000, 4999]:
        w = rng.dirichlet(np.full(n, rng.choice([0.1, 1.0, 10.0])))
        yield w
        yield w * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    yield from (np.full(n, -0.0) for n in (1, 7, 8, 9, 200))


def test_probability_vector_on_python_floats():
    """Distributions within and beyond the slack, with signed zeros, clamped and refused entries, and a joint."""
    rng = np.random.default_rng(1607)
    vectors = [*(w for w in sum_vectors() if w.min() >= 0.0)]
    # the inputs tell the left-to-right order from numpy's pairwise one, which sum() takes from 8 entries on
    assert sum(float(np.sum(w)) != np.cumsum(w)[-1] for w in vectors) > 200
    for n in (2, 3, 16, 100):
        for _ in range(50):
            w = rng.dirichlet(np.ones(n)) * (1.0 + rng.uniform(-1.5, 1.5) * PROBABILITY_SLACK)
            w[rng.random(n) < 0.2] = rng.choice([0.0, -0.0, -5e-10, -1.5e-9])
            vectors.append(w)
    vectors += [[], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, np.inf], [1e308, 1e308], [0.5, 0.5 + 2e-9],
                [-0.0, 1.0], rng.dirichlet(np.ones(48)).reshape(3, 2, 2, 2, 2)]
    for w in vectors:
        assert_same(_outcome(probability_vector, w, "p"), _outcome(numpy_probability_vector, w, "p"))


@pytest.mark.parametrize("n, count", [(1, 200), (2, 200), (3, 200), (5, 200), (8, 200), (16, 200), (17, 200),
                                      (100, 200), (2000, 20)])
def test_lhv_behavior_on_python_floats(n, count):
    """The left-to-right k-sum gives einsum's bytes, models with exact 0/1 responses included."""
    rng = np.random.default_rng(n)
    for i in range(count):
        model = random_model(rng, n_lambda=n)
        if i % 4 == 0:  # deterministic responses, some of them -0.0, and a prior with zeros
            prior = model.prior * (rng.random(n) < 0.7)
            prior = prior / prior.sum() if prior.sum() else model.prior
            alice = np.round(model.alice_response)
            alice = np.where(alice == 0.0, rng.choice([0.0, -0.0], (n, 2)), alice)
            model = LHVModel(model.labels, prior, alice, np.round(model.bob_response))
        assert_same(lhv_behavior(model).table, numpy_clean_table(numpy_lhv_table(model)))


def test_amplitudes_on_python_complex():
    """Stored amplitudes of states built three ways, with signed zeros, typed digits and refusals."""
    rng = np.random.default_rng(1608)
    c, s = math.cos(0.3), math.sin(0.3)
    specs = [np.array([c, 0.0, 0.0, s]), np.array([-0.0, c, -s, -0.0]), np.array([0.5, -0.5j, 0.5j, -0.5]),
             np.array([complex(-0.0, 0.6), complex(0.8, -0.0), 0.0, complex(-0.0, -0.0)]), [1, 0, 0, 0],
             [1.0 + 1e-7, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0],
             np.zeros(3), np.eye(2)]
    for _ in range(500):
        v = rng.standard_normal(8)
        v = v / math.sqrt(float(v @ v))
        typed = [float(f"{x:.7f}") for x in v]  # as a user types them
        specs.append(np.array([complex(typed[2 * i], typed[2 * i + 1]) for i in range(4)]))
        specs.append(tuple(specs[-1].tolist()))
    for amp in specs:
        assert_same(_outcome(lambda a: TwoQubitState.from_amplitudes(a).amp, amp),
                    _outcome(numpy_from_amplitudes, amp))
        assert_same(_outcome(lambda a: TwoQubitState(a).amp, amp), _outcome(numpy_state_amplitudes, amp))
    seed = 1609
    for _ in range(500):
        seed += 1
        assert_same(random_pure_state(np.random.default_rng(seed)).amp,
                    numpy_random_amplitudes(np.random.default_rng(seed)))


def test_amplitudes_are_the_input_over_its_norm():
    """Every entry point stores amp / ||amp|| to ROUNDOFF, the norm taken by numpy's own kernel."""
    rng = np.random.default_rng(1610)
    cases = [(singlet(), [0.0, 1.0, -1.0, 0.0]), *((basis_state(i), np.eye(4)[i]) for i in range(4))]
    for _ in range(500):
        unit = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        unit /= np.linalg.norm(unit)
        typed = np.round(unit, 7)
        seed = int(rng.integers(2 ** 32))
        draw = np.random.default_rng(seed)
        cases += [(TwoQubitState(unit), unit), (TwoQubitState.from_amplitudes(typed), typed),
                  (random_pure_state(np.random.default_rng(seed)),
                   draw.standard_normal(4) + 1j * draw.standard_normal(4))]
    for psi, given in cases:
        given = np.asarray(given, dtype=complex)
        assert np.abs(psi.amp - given / np.linalg.norm(given)).max() <= ROUNDOFF


def test_products_in_the_written_order():
    rng = np.random.default_rng(2606)
    states = [singlet(), *map(basis_state, range(4)), TwoQubitState(np.array([0.6, 0.0, 0.0, 0.8])),
              TwoQubitState(np.array([0.5, -0.5j, 0.5j, -0.5])), *(random_pure_state(rng) for _ in range(20))]
    axes = [UnitVector3(*v) for v in ((1, 0, 0), (0, -1, 0), (0, 0, 1), (-0.0, 0.0, -1.0))]
    for psi in states:
        a, b, t = psi.correlations
        for settings in [tuple(random_direction(rng) for _ in range(4)), tuple(axes)]:
            e, ma, mb = written_order_products(a, b, t, settings)
            assert_same(quantum_behavior(psi, settings).table, behavior_from_correlators(e, ma, mb).table)
            assert_same(chsh_of_settings(psi, MeasurementSettings(*settings)), chsh(e.reshape(4)))
        assert_same(np.ascontiguousarray(sweep(psi, steps=37, theta_start_deg=-90.0, theta_end_deg=270.0)),
                    written_order_sweep(psi, 37, -90.0, 270.0))


def test_chsh_variants_in_the_written_order():
    rng = np.random.default_rng(2607)
    # signed zeros: an accumulator that starts at +0.0 gives +0.0 for every zero sum
    vectors = [*rng.uniform(-1.0, 1.0, (500, 4)), *map(list, itertools.product([0.0, -0.0, 0.5], repeat=4))]
    for e in vectors:
        assert_same(chsh_variants(e), np.array([written_dot(signs, e) for signs in _FACET_SIGNS.tolist()]))


_DIGEST_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "quantum_digest.py"


def test_quantum_digest_is_the_same_under_every_openblas_kernel():
    # OpenBLAS takes the kernel named by OPENBLAS_CORETYPE; off x86 it ignores the name, and the runs are alike
    digests = {}
    for core in (None, "Haswell", "Sandybridge", "Prescott"):
        env = {k: v for k, v in src_env().items() if k != "OPENBLAS_CORETYPE"}
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = subprocess.run([sys.executable, str(_DIGEST_SCRIPT)], env=env, capture_output=True, text=True,
                             check=True)
        digests[core or "default"] = out.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def test_quantum_digest_is_the_same_without_numpys_cpu_dispatch():
    """numpy's SIMD kernels switched off: no byte of the digest, the amplitudes' included, depends on them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not name its dispatched CPU features")
    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not dispatched:
        pytest.skip("numpy dispatches no kernel on this CPU")
    digests = []
    for disabled in (None, " ".join(dispatched)):
        env = {k: v for k, v in src_env().items() if k != "NPY_DISABLE_CPU_FEATURES"}
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = subprocess.run([sys.executable, str(_DIGEST_SCRIPT)], env=env, capture_output=True, text=True,
                             check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
