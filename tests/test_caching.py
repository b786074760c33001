"""A state's (a, b, T) and a behavior's no-signaling report are computed once, read-only, and unchanged in value."""

import dataclasses

import numpy as np
import pytest

from bellkit import (
    Behavior,
    InternalConsistencyError,
    InvalidInputError,
    TwoQubitState,
    behavior_from_correlators,
    chsh,
    correlation_matrix,
    correlators,
    is_local,
    local_decomposition,
    no_signaling,
    nonlocal_witness,
    quantum_behavior,
    random_pure_state,
    seesaw_maximize,
    sweep,
)
from bellkit import quantum
from bellkit.tolerance import ROUNDOFF
from conftest import loop_bloch_and_tensor, random_direction, written_order_products

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def inline_bloch_and_tensor(amp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) by numpy's complex products, computed here and not read from any cache."""
    m = amp.reshape(2, 2)
    alice = (_PAULI @ m).reshape(3, 4)
    bob = (m @ _PAULI.transpose(0, 2, 1)).reshape(3, 4)
    bra = amp.conj()
    return (alice @ bra).real, (bob @ bra).real, (alice.conj() @ bob.T).real


def signaling_behavior() -> Behavior:
    """Alice's outcome flips with Bob's setting."""
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
    t[0, 1] = [[0.0, 0.0], [1.0, 0.0]]
    return Behavior(t)


def test_values_equal_inline_reference_over_200_states():
    rng = np.random.default_rng(1515)
    for _ in range(200):
        psi = random_pure_state(rng)
        settings = tuple(random_direction(rng) for _ in range(4))
        # the bytes of the written order, and numpy's BLAS products within ROUNDOFF
        a, b, t = loop_bloch_and_tensor(psi.amp)
        for new, ref, blas in zip(psi.correlations, (a, b, t), inline_bloch_and_tensor(np.array(psi.amp))):
            assert new.tobytes() == ref.tobytes()
            assert np.max(np.abs(new - blas)) <= ROUNDOFF
        assert correlation_matrix(psi) is psi.correlations[2]
        table = quantum_behavior(psi, settings).table
        # the bytes of the written order, whatever BLAS kernel numpy's products below take
        assert table.tobytes() == behavior_from_correlators(*written_order_products(a, b, t, settings)).table.tobytes()
        dirs = np.array([(w.x, w.y, w.z) for w in settings])
        blas = behavior_from_correlators(dirs[:2] @ t @ dirs[2:].T, dirs[:2] @ a, dirs[2:] @ b)
        assert np.max(np.abs(table - blas.table)) <= 1e-15


def test_correlation_matrix_shared_and_read_only():
    psi = random_pure_state(np.random.default_rng(7))
    t = correlation_matrix(psi)
    assert correlation_matrix(psi) is t
    with pytest.raises(ValueError):
        t[0, 0] = 0.0
    for arr in psi.correlations:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_imaginary_part_check_not_cached(monkeypatch):
    amp = random_pure_state(np.random.default_rng(8)).amp
    # non-Hermitian operators give complex expectations, and each state built refuses them again
    monkeypatch.setattr(quantum, "_SIGMAS", tuple(tuple(tuple(1j * x for x in row) for row in s)
                                                  for s in quantum._SIGMAS))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="imaginary part"):
            TwoQubitState(amp)


def test_no_signaling_report_shared_and_read_only():
    rng = np.random.default_rng(9)
    b = quantum_behavior(random_pure_state(rng), tuple(random_direction(rng) for _ in range(4)))
    report = no_signaling(b)
    assert no_signaling(b) is report
    assert report.ok
    for arr in (report.alice_residuals, report.bob_residuals):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_signaling_refused_before_and_after_report_is_cached():
    for call_report_first in (False, True):
        b = signaling_behavior()
        if call_report_first:
            assert not no_signaling(b)
        for oracle in (is_local, local_decomposition, nonlocal_witness):
            with pytest.raises(InvalidInputError, match="signals"):
                oracle(b)
        assert no_signaling(b).max_residual == pytest.approx(1.0)


def counted(monkeypatch, cls, name: str) -> list:
    """Replace the first-use attribute ``cls.name`` by one that records each instance it computes for."""
    memo = cls.__dict__[name]
    calls = []

    def recording(self):
        calls.append(id(self))
        return memo.func(self)

    prop = type(memo)(recording)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def test_state_scan_sequence_computes_each_derived_value_once(monkeypatch):
    tensors = counted(monkeypatch, TwoQubitState, "correlations")
    reports = counted(monkeypatch, Behavior, "_no_signaling")
    rng = np.random.default_rng(11)
    psi = TwoQubitState(random_pure_state(rng).amp.copy())
    settings = tuple(random_direction(rng) for _ in range(4))
    # the analysis op and the sweep op of the benchmark's state_scan workload, on one fresh state
    correlation_matrix(psi)
    result = seesaw_maximize(psi, seed=0)
    behaviors = [quantum_behavior(psi, result.settings.as_tuple()), quantum_behavior(psi, settings)]
    for b in behaviors:
        chsh(correlators(b))
        no_signaling(b)
        is_local(b)
        local_decomposition(b)
    nonlocal_witness(behaviors[0])
    sweep(psi, steps=91, theta_start_deg=0.0, theta_end_deg=90.0)
    assert tensors == [id(psi)]
    assert sorted(reports) == sorted(id(b) for b in behaviors)
    # each behavior's validated entries, which every kernel above read, are one immutable copy of its table
    for b in behaviors:
        assert type(b._entries) is tuple and np.array(b._entries).tobytes() == b.table.ravel().tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            b._entries = ()
        assert not b.table.flags.writeable
