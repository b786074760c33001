import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    Behavior,
    InvalidInputError,
    NonlocalWitness,
    Stance,
    SuperdeterministicWitness,
    Thesis,
    UnknownInterpretationError,
    chsh,
    classical,
    correlators,
    escape_route,
    find_interpretation,
    lhv_behavior,
    nonlocal_witness,
    pr_box,
    qm_compatible,
    random_no_signaling_behavior,
    superdeterministic_witness,
    taxonomy,
    uniform_behavior,
)
from conftest import deterministic_model, oracle_vertex_tables, transcript_witness

SQRT2 = math.sqrt(2.0)

# Table rows frozen verbatim: (interpretation, rejected thesis), in table order
EXPECTED_TABLE = [
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


def all_stances():
    theses = list(Thesis)
    for mask in range(128):
        yield Stance(frozenset(t for i, t in enumerate(theses) if mask >> i & 1))


class TestSevenTheses:
    def test_exactly_seven(self):
        assert len(list(Thesis)) == 7
        assert len({t.value for t in Thesis}) == 7

    def test_full_stance_is_incompatible(self):
        assert not qm_compatible(Stance.full())

    def test_dropping_any_one_restores_compatibility(self):
        for t in Thesis:
            assert qm_compatible(Stance.all_but(t))

    def test_empty_stance_compatible(self):
        assert qm_compatible(Stance(frozenset()))

    def test_classical_iff_all_seven(self):
        assert classical(Stance.full())
        for t in Thesis:
            assert not classical(Stance.all_but(t))

    def test_classical_negates_compatibility_exhaustively(self):
        count_incompatible = 0
        for stance in all_stances():
            assert classical(stance) == (not qm_compatible(stance))
            count_incompatible += not qm_compatible(stance)
        assert count_incompatible == 1  # only the full 7-thesis stance

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.sampled_from(list(Thesis))), st.sets(st.sampled_from(list(Thesis))))
    def test_compatibility_monotone_under_subsets(self, a, b):
        small, big = Stance(frozenset(a & b)), Stance(frozenset(a | b))
        if qm_compatible(big):
            assert qm_compatible(small)


class TestTaxonomy:
    def test_nineteen_rows_cell_for_cell(self):
        rows = taxonomy()
        assert len(rows) == 19
        assert [(r.name, r.rejected.value) for r in rows] == EXPECTED_TABLE

    def test_each_row_rejects_exactly_one(self):
        for record in taxonomy():
            assert isinstance(record.rejected, Thesis)
            stance = record.stance()
            assert len(stance.retained) == 6
            assert qm_compatible(stance)

    def test_every_thesis_rejected_somewhere(self):
        rejected = {r.rejected for r in taxonomy()}
        assert rejected == set(Thesis)

    def test_lookup_everett(self):
        assert find_interpretation("Everett").rejected is Thesis.MEASUREMENT_REALISM

    def test_lookup_pluriverse(self):
        assert find_interpretation("Pluriverse QBism").rejected is Thesis.ONE_WORLD

    def test_lookup_superdeterminism(self):
        assert find_interpretation("Superdeterminism").rejected is Thesis.MEASUREMENT_INDEPENDENCE

    def test_lookup_is_case_insensitive(self):
        assert find_interpretation("everett").name == "Everett"
        assert find_interpretation("DE BROGLIE-BOHM").name == "de Broglie-Bohm"

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownInterpretationError) as excinfo:
            find_interpretation("Bohm")
        assert excinfo.value.suggestion == "de Broglie-Bohm"
        assert len(excinfo.value.valid) == 19

    def test_unknown_name_message_without_a_suggestion(self):
        valid = ", ".join(r.name for r in taxonomy())
        with pytest.raises(UnknownInterpretationError) as excinfo:
            find_interpretation("xyz")
        assert excinfo.value.suggestion is None
        assert str(excinfo.value) == f"unknown interpretation 'xyz'. Valid names: {valid}"
        with pytest.raises(UnknownInterpretationError) as excinfo:
            find_interpretation("Bohm")
        assert str(excinfo.value) == (f"unknown interpretation 'Bohm'; did you mean 'de Broglie-Bohm'? "
                                      f"Valid names: {valid}")

    def test_long_unknown_name_is_cut(self):
        with pytest.raises(UnknownInterpretationError) as excinfo:
            find_interpretation("q" * 100_000)
        assert excinfo.value.name == "q" * 100_000
        assert str(excinfo.value).startswith(
            f"unknown interpretation '{'q' * 39}... (100002 characters). Valid names: ")


class TestEscapeRoutes:
    def test_constructive_routes(self):
        assert escape_route(Thesis.LOCALITY).constructive
        assert escape_route(Thesis.LOCALITY).witness == "nonlocal_witness"
        assert escape_route(Thesis.MEASUREMENT_INDEPENDENCE).constructive
        assert escape_route(Thesis.MEASUREMENT_INDEPENDENCE).witness == "superdeterministic_witness"

    def test_five_non_constructive_routes(self):
        non_constructive = [t for t in Thesis if not escape_route(t).constructive]
        assert len(non_constructive) == 5
        for t in non_constructive:
            route = escape_route(t)
            assert route.witness == "non-constructive"
            assert route.note


class TestNonlocalWitness:
    def test_reproduces_singlet_behavior(self, singlet_behavior):
        witness = nonlocal_witness(singlet_behavior)
        err = np.max(np.abs(witness.recompose().table - singlet_behavior.table))
        assert err <= 1e-12
        assert chsh(correlators(witness.recompose())) == pytest.approx(-2 * SQRT2, abs=1e-9)

    def test_reproduces_pr_box(self):
        witness = nonlocal_witness(pr_box())
        assert np.max(np.abs(witness.recompose().table - pr_box().table)) <= 1e-12
        assert chsh(correlators(witness.recompose())) == pytest.approx(4.0, abs=1e-12)

    def test_reproduces_local_behavior(self):
        witness = nonlocal_witness(uniform_behavior())
        assert np.max(np.abs(witness.recompose().table - 0.25)) <= 1e-12

    def test_rejects_signaling_input(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0] = [[1.0, 0.0], [0.0, 0.0]]
        t[0, 1] = [[0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(InvalidInputError):
            nonlocal_witness(Behavior(t))

    def test_random_behaviors_reproduced(self):
        rng = np.random.default_rng(313)
        # the 16 deterministic behaviors have null events A with P(A|x) = 0
        behaviors = [random_no_signaling_behavior(rng) for _ in range(200)] + [
            Behavior(t) for t in oracle_vertex_tables()]
        for b in behaviors:
            witness = nonlocal_witness(b)
            assert np.max(np.abs(witness.recompose().table - b.table)) <= 1e-12
            null = witness.p_a_given_x == 0.0
            assert np.all(witness.p_b_given_xya.transpose(0, 2, 1, 3)[null] == 0.5)

    def test_arrays_are_read_only(self):
        witness = nonlocal_witness(uniform_behavior())
        for arr in (witness.p_a_given_x, witness.p_b_given_xya):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 7.0
        assert np.max(np.abs(witness.recompose().table - 0.25)) == 0.0
        # the constructor stores views, so the caller's arrays stay writable
        p_a, p_b = np.full((2, 2), 0.5), np.full((2, 2, 2, 2), 0.5)
        NonlocalWitness(p_a, p_b)
        p_a[0, 0] = p_b[0, 0, 0, 0] = 1.0


class TestSuperdeterministicWitness:
    def test_reproduces_singlet_behavior(self, singlet_behavior):
        witness = superdeterministic_witness(singlet_behavior)
        err = np.max(np.abs(witness.induced_behavior().table - singlet_behavior.table))
        assert err <= 1e-12
        assert chsh(correlators(witness.induced_behavior())) == pytest.approx(-2 * SQRT2, abs=1e-9)

    def test_reproduces_pr_box(self):
        witness = superdeterministic_witness(pr_box())
        assert np.max(np.abs(witness.induced_behavior().table - pr_box().table)) <= 1e-12
        assert chsh(correlators(witness.induced_behavior())) == pytest.approx(4.0, abs=1e-12)

    def test_deterministic_behavior_concentrates_on_four_atoms(self):
        b = lhv_behavior(deterministic_model(1, 1, 1, 1))
        witness = superdeterministic_witness(b)
        assert len(witness.atoms) == 4
        np.testing.assert_allclose(witness.prior, 0.25, atol=1e-15)
        assert np.max(np.abs(witness.induced_behavior().table - b.table)) <= 1e-12

    def test_setting_dependence_is_positive(self, singlet_behavior):
        witness = superdeterministic_witness(singlet_behavior)
        assert witness.setting_dependence_residual() > 0.01

    def test_equal_to_uniform_setting_transcripts(self, singlet_behavior):
        rng = np.random.default_rng(627)
        behaviors = [singlet_behavior, pr_box(), uniform_behavior(),
                     lhv_behavior(deterministic_model(1, -1, -1, 1)),
                     *(random_no_signaling_behavior(rng) for _ in range(50))]
        for b in behaviors:
            witness = superdeterministic_witness(b)
            atoms, prior = transcript_witness(b)
            assert witness.atoms == atoms
            assert np.array_equal(witness.prior, prior)

    def test_random_behaviors_reproduced(self):
        rng = np.random.default_rng(626)
        for _ in range(200):
            b = random_no_signaling_behavior(rng)
            witness = superdeterministic_witness(b)
            assert np.max(np.abs(witness.induced_behavior().table - b.table)) <= 1e-12

    def test_prior_is_read_only(self):
        witness = superdeterministic_witness(uniform_behavior())
        with pytest.raises(ValueError, match="read-only"):
            witness.prior[0] = 7.0
        assert np.max(np.abs(witness.induced_behavior().table - 0.25)) == 0.0
        prior = np.array([1.0])
        SuperdeterministicWitness(((0, 0, 1, -1),), prior)
        prior[0] = 0.5


def test_stance_rejects_non_theses():
    with pytest.raises(InvalidInputError):
        Stance(frozenset({"Locality"}))


def test_taxonomy_stances_iterate_consistently():
    # rejecting per the table then re-adding the thesis lands on the full stance
    for record in taxonomy():
        restored = Stance(record.stance().retained | {record.rejected})
        assert classical(restored)


def test_all_128_stances_enumerable():
    assert sum(1 for _ in all_stances()) == 128
    assert len({frozenset(s.retained) for s in all_stances()}) == 128


def test_subset_lattice_spot_checks():
    for k in range(8):
        for retained in itertools.islice(itertools.combinations(list(Thesis), k), 3):
            stance = Stance(frozenset(retained))
            assert qm_compatible(stance) == (k < 7)
