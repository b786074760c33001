"""Top-level acceptance suite: one test and one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import math
import time

import numpy as np

from bellkit import (
    NetworkSpec,
    Stance,
    Thesis,
    classical,
    chsh,
    chsh_of_settings,
    conditional_behavior,
    correlation_matrix,
    correlators,
    enumerate_deterministic,
    estimate_chsh,
    exact_joint,
    is_local,
    lhv_behavior,
    local_decomposition,
    nonlocal_witness,
    pr_box,
    qm_compatible,
    quantum_behavior,
    random_model,
    random_no_signaling_behavior,
    random_pure_state,
    sample,
    seesaw_maximize,
    singlet,
    superdeterministic_witness,
    taxonomy,
    tsirelson_settings,
    uniform_behavior,
    verify_markov,
)
from bellkit.tolerance import ROUNDOFF
from conftest import model_chsh, random_direction

TSIRELSON = 2.0 * math.sqrt(2.0)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_deterministic_bound():
    best = math.inf
    entries = None
    for _ in range(5):
        t0 = time.perf_counter()
        entries = enumerate_deterministic()
        best = min(best, time.perf_counter() - t0)
    ok = (
        len(entries) == 16
        and all(isinstance(v, int) and abs(v) == 2 for _, v in entries)
        and best < 1e-3
    )
    _verdict(1, "deterministic strategies: 16 entries, |S| = 2 exactly", ok,
             f"runtime {best * 1e3:.3f} ms")


def test_criterion_2_stochastic_bound():
    rng = np.random.default_rng(20250811)
    models = [random_model(rng) for _ in range(10_000)]
    # CPU time of this process, of the library's path from a model to its S: wall time also
    # counts whatever else shares the CPUs
    t0 = time.process_time()
    values = [chsh(correlators(lhv_behavior(m))) for m in models]
    elapsed = time.process_time() - t0
    worst = max(map(abs, values))
    # the independent per-value formula agrees with every draw
    gap = max(abs(s - model_chsh(m)) for s, m in zip(values, models))
    ok = worst <= 2.0 + 1e-12 and gap <= ROUNDOFF and elapsed < 1.0
    _verdict(2, "stochastic models: |S| <= 2 + 1e-12 over 10000 draws", ok,
             f"worst |S| = {worst:.12f}, largest gap to model_chsh {gap:.1e}, runtime {elapsed:.2f} s")


def test_criterion_3_singlet_law():
    rng = np.random.default_rng(3141)
    t = correlation_matrix(singlet())
    worst = 0.0
    for _ in range(1000):
        u = random_direction(rng).as_array()
        v = random_direction(rng).as_array()
        worst = max(worst, abs(u @ t @ v + u @ v))
    _verdict(3, "singlet correlations equal -u.v within 1e-12", worst <= 1e-12,
             f"worst residual {worst:.2e}")


def test_criterion_4_explicit_violation():
    s = chsh_of_settings(singlet(), tsirelson_settings())
    err = abs(s + TSIRELSON)
    _verdict(4, "reference settings give S = -2*sqrt(2) within 1e-12", err <= 1e-12,
             f"S = {s:.15f}")


def test_criterion_5_tsirelson_recovery():
    psi = singlet()
    hits = 0
    slowest = 0.0
    for seed in range(100):
        t0 = time.perf_counter()
        result = seesaw_maximize(psi, seed=seed)
        slowest = max(slowest, time.perf_counter() - t0)
        hits += abs(result.best_s) >= TSIRELSON - 1e-4
    rng = np.random.default_rng(777)
    worst = 0.0
    for seed in range(1000):
        result = seesaw_maximize(random_pure_state(rng), seed=seed)
        worst = max(worst, abs(result.best_s))
    ok = hits >= 95 and slowest < 10e-3 and worst <= TSIRELSON + 1e-9
    _verdict(5, "optimizer recovers 2*sqrt(2) and never exceeds it", ok,
             f"hits {hits}/100, slowest run {slowest * 1e3:.2f} ms, "
             f"max |S| = {worst:.12f}")


def test_criterion_6_membership_oracle_equivalence():
    rng = np.random.default_rng(16180)
    disagreements = 0
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        b = random_no_signaling_behavior(rng)
        by_inequalities = is_local(b)
        by_decomposition = local_decomposition(b) is not None
        disagreements += by_inequalities != by_decomposition
        verdicts[by_inequalities] += 1
    singlet_b = quantum_behavior(singlet(), tsirelson_settings().as_tuple())
    singlet_infeasible = local_decomposition(singlet_b) is None
    uniform_feasible = local_decomposition(uniform_behavior()) is not None
    ok = disagreements == 0 and singlet_infeasible and uniform_feasible
    _verdict(6, "inequality test and Fine-decomposition oracle agree", ok,
             f"0 disagreements expected, got {disagreements}; "
             f"split local/nonlocal = {verdicts[True]}/{verdicts[False]}")


def test_criterion_7_network_factorization():
    rng = np.random.default_rng(112358)
    worst_table = 0.0
    worst_markov = 0.0
    within = 0
    for trial in range(100):
        spec = NetworkSpec(model=random_model(rng))
        conditioned = conditional_behavior(exact_joint(spec))
        worst_table = max(worst_table, float(np.max(np.abs(
            conditioned.table - lhv_behavior(spec.model).table))))
        worst_markov = max(worst_markov, verify_markov(spec).max_residual)
        exact = model_chsh(spec.model)
        estimate = estimate_chsh(sample(spec, 100_000, seed=trial))
        within += abs(estimate.s - exact) <= 5.0 * estimate.stderr
    ok = worst_table <= 1e-12 and worst_markov <= 1e-12 and within >= 99
    _verdict(7, "network joint factorizes and sampling tracks the exact S", ok,
             f"max table gap {worst_table:.2e}, max markov residual "
             f"{worst_markov:.2e}, within-5-sigma {within}/100")


def test_criterion_8_witness_reproduction():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(1000):
        b = random_no_signaling_behavior(rng)
        w1 = nonlocal_witness(b).recompose()
        w2 = superdeterministic_witness(b).induced_behavior()
        worst = max(worst,
                    float(np.max(np.abs(w1.table - b.table))),
                    float(np.max(np.abs(w2.table - b.table))))
    singlet_b = quantum_behavior(singlet(), tsirelson_settings().as_tuple())
    s_nonlocal = chsh(correlators(nonlocal_witness(singlet_b).recompose()))
    s_superdet = chsh(correlators(superdeterministic_witness(singlet_b).induced_behavior()))
    pr_nonlocal = chsh(correlators(nonlocal_witness(pr_box()).recompose()))
    pr_superdet = chsh(correlators(superdeterministic_witness(pr_box()).induced_behavior()))
    ok = (
        worst <= 1e-12
        and abs(s_nonlocal + TSIRELSON) <= 1e-9
        and abs(s_superdet + TSIRELSON) <= 1e-9
        and abs(pr_nonlocal - 4.0) <= 1e-12
        and abs(pr_superdet - 4.0) <= 1e-12
    )
    _verdict(8, "both escape-route witnesses reproduce their inputs", ok,
             f"max reproduction gap {worst:.2e}, singlet S = {s_nonlocal:.9f}, "
             f"box S = {pr_nonlocal:.12f}")


def test_criterion_9_taxonomy_and_stances():
    expected = [
        ("de Broglie-Bohm", "Locality"),
        ("Collapse models", "Locality"),
        ("Wavefunction realism", "Locality"),
        ("Transactional", "Locality"),
        ("Indivisible stochastic", "Locality"),
        ("Superdeterminism", "Measurement independence"),
        ("Cellular automaton", "Measurement independence"),
        ("Copenhagen", "Measurement realism"),
        ("Everett", "Measurement realism"),
        ("Quantum Darwinism", "Measurement realism"),
        ("Relational", "Non-relationalism"),
        ("Pragmatic", "Non-relationalism"),
        ("Brukner", "Non-relationalism"),
        ("Quantum logic", "Non-fragmentation"),
        ("Bub-Pitowsky", "Non-fragmentation"),
        ("Sheaf contextual", "Non-fragmentation"),
        ("Fragmentalist QBism", "Non-fragmentation"),
        ("Pluriverse QBism", "One world"),
        ("Radical single user", "Non-solipsism"),
    ]
    rows = [(r.name, r.rejected.value) for r in taxonomy()]
    theses = list(Thesis)
    incompatible = []
    negation_holds = True
    for mask in range(128):
        stance = Stance(frozenset(t for i, t in enumerate(theses) if mask >> i & 1))
        compatible = qm_compatible(stance)
        negation_holds &= classical(stance) == (not compatible)
        if not compatible:
            incompatible.append(mask)
    ok = (
        rows == expected
        and len(rows) == 19
        and incompatible == [127]
        and negation_holds
    )
    _verdict(9, "taxonomy matches cell-for-cell; only the full stance fails", ok,
             f"{len(rows)} rows, incompatible stances {incompatible}")
