"""The immutable value classes: frozen attributes, equality and hashing, repr text and constructor arguments.

Each class keeps what it had as a frozen dataclass: the same error on assignment and deletion, the same
equality, the same repr, and the same constructor parameters.
"""

import collections.abc
import dataclasses
import re

import numpy as np
import pytest

from bellkit import (Behavior, ChshEstimate, EscapeRoute, InterpretationRecord, LHVModel, LocalDecomposition,
                     MarkovReport, MeasurementSettings, NetworkSpec, NoSignalingReport, NonlocalWitness,
                     OptimizationResult, SampleDataset, Stance, SuperdeterministicWitness, Thesis, TwoQubitState,
                     UnitVector3)
from bellkit.io import RunReport

X, Y, Z = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0), UnitVector3(0.0, 0.0, 1.0)
MODEL = LHVModel(("l0",), [1.0], [[1.0, 0.0]], [[0.5, 0.5]])
_SETTINGS = ("MeasurementSettings(alice_u=UnitVector3(x=1.0, y=0.0, z=0.0), "
             "alice_u_prime=UnitVector3(x=0.0, y=1.0, z=0.0), bob_v=UnitVector3(x=0.0, y=0.0, z=1.0), "
             "bob_v_prime=UnitVector3(x=0.0, y=0.0, z=1.0))")

# class -> (its constructor's parameter names, arguments, the repr a frozen dataclass gave those arguments, or
# None where the class kept object's repr); the reprs were captured from the dataclass versions
CASES = {
    UnitVector3: (("x", "y", "z"), (0.6, 0.8, 0.0), "UnitVector3(x=0.6, y=0.8, z=0.0)"),
    MeasurementSettings: (("alice_u", "alice_u_prime", "bob_v", "bob_v_prime"), (X, Y, Z, Z), _SETTINGS),
    OptimizationResult: (("best_s", "settings"), (2.0, MeasurementSettings(X, Y, Z, Z)),
                         f"OptimizationResult(best_s=2.0, settings={_SETTINGS})"),
    RunReport: (("command", "inputs_digest", "results", "seed"), ("sample", "abc", {"n": 3}, 7),
                "RunReport(command='sample', inputs_digest='abc', results={'n': 3}, seed=7)"),
    MarkovReport: (("source_settings", "alice_screening", "bob_screening"), (0.0, 0.5, 0.25),
                   "MarkovReport(source_settings=0.0, alice_screening=0.5, bob_screening=0.25)"),
    ChshEstimate: (("s", "stderr", "per_block_counts"), (2.0, 0.125, (1, 2, 3, 4)),
                   "ChshEstimate(s=2.0, stderr=0.125, per_block_counts=(1, 2, 3, 4))"),
    Stance: (("retained",), (frozenset({Thesis.LOCALITY}),),
             "Stance(retained=frozenset({<Thesis.LOCALITY: 'Locality'>}))"),
    InterpretationRecord: (("name", "rejected"), ("Everett", Thesis.MEASUREMENT_REALISM),
                           "InterpretationRecord(name='Everett', "
                           "rejected=<Thesis.MEASUREMENT_REALISM: 'Measurement realism'>)"),
    EscapeRoute: (("dropped", "constructive", "witness", "note"), (Thesis.ONE_WORLD, False, "non-constructive", "n"),
                  "EscapeRoute(dropped=<Thesis.ONE_WORLD: 'One world'>, constructive=False, "
                  "witness='non-constructive', note='n')"),
    NoSignalingReport: (("ok", "alice_residuals", "bob_residuals"),
                        (True, np.array([0.0, 0.5]), np.array([0.25, 0.0])),
                        "NoSignalingReport(ok=True, alice_residuals=array([0. , 0.5]), "
                        "bob_residuals=array([0.25, 0.  ]))"),
    LHVModel: (("labels", "prior", "alice_response", "bob_response"), (("l0",), [1.0], [[1.0, 0.0]], [[0.5, 0.5]]),
               "LHVModel(labels=('l0',))"),
    NetworkSpec: (("model", "setting_prior_a", "setting_prior_b"), (MODEL, (0.25, 0.75), (0.5, 0.5)),
                  "NetworkSpec(model=LHVModel(labels=('l0',)))"),
    SampleDataset: (("labels", "code"), (("l0",), np.array([0, 5, 15])),
                    "SampleDataset(labels=('l0',), code=array([ 0,  5, 15], dtype=int8))"),
    LocalDecomposition: (("weights",), ([1.0] + [0.0] * 15,),
                         "LocalDecomposition(weights=array([1., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., 0., "
                         "0., 0., 0.]))"),
    NonlocalWitness: (("p_a_given_x", "p_b_given_xya"), (np.array([1.0, 0.0]), np.array([0.5])),
                      "NonlocalWitness(p_a_given_x=array([1., 0.]), p_b_given_xya=array([0.5]))"),
    SuperdeterministicWitness: (("atoms", "prior"), (((0, 0, 1, -1),), np.array([1.0])),
                                "SuperdeterministicWitness(atoms=((0, 0, 1, -1),), prior=array([1.]))"),
    Behavior: (("table",), (np.full((2, 2, 2, 2), 0.25),), None),
    TwoQubitState: (("amp",), ([0.6, 0.0, 0.0, 0.8],), None),
}
BY_FIELDS = {UnitVector3, MeasurementSettings, OptimizationResult, RunReport, MarkovReport, ChshEstimate, Stance,
             InterpretationRecord, EscapeRoute}
BY_IDENTITY = set(CASES) - BY_FIELDS - {Behavior}


def build(cls):
    return cls(*CASES[cls][1])


def test_cases_cover_every_value_class():
    assert len(CASES) == 18 and len(BY_FIELDS) == 9 and len(BY_IDENTITY) == 8


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_attributes_are_frozen(cls):
    obj = build(cls)
    for name in (CASES[cls][0][0], "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=rf"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=rf"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert not hasattr(obj, "other")


@pytest.mark.parametrize("cls", sorted(BY_FIELDS, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_equality_and_hash_by_fields(cls):
    a, b = build(cls), build(cls)
    assert a is not b and a == b and not a != b
    if cls is RunReport:  # its results are a dict, so the class itself declares it unhashable
        assert not isinstance(a, collections.abc.Hashable)
        with pytest.raises(TypeError, match="unhashable type: 'RunReport'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in CASES[cls][0]))
    # only an instance of the same class compares equal, not a tuple of the same values
    assert a != CASES[cls][1]
    assert all(a != build(other) for other in CASES if other is not cls)


@pytest.mark.parametrize("cls", sorted(BY_IDENTITY, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_equality_and_hash_by_identity(cls):
    a, b = build(cls), build(cls)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2


def test_behavior_equal_by_entries_and_unhashable():
    a, b = build(Behavior), build(Behavior)
    assert a == b and a != Behavior(np.full((2, 2, 2, 2), 0.5) * np.eye(2))
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_text(cls):
    text = CASES[cls][2]
    if text is None:
        assert re.fullmatch(rf"<{re.escape(cls.__module__)}\.{cls.__name__} object at 0x[0-9a-f]+>", repr(build(cls)))
    else:
        assert repr(build(cls)) == text


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction(cls):
    names, args, text = CASES[cls]
    by_keyword, by_position = cls(**dict(zip(names, args))), build(cls)
    if text is not None:
        assert repr(by_keyword) == repr(by_position) == text
    # the stored values themselves, where none is an array
    if not any(isinstance(v, np.ndarray) for v in vars(by_position).values()):
        assert vars(by_keyword) == vars(by_position)


def test_constructor_defaults():
    assert RunReport("chsh", "abc", {}).seed is None
    spec = NetworkSpec(MODEL)
    assert spec.setting_prior_a.tolist() == [0.5, 0.5] and spec.setting_prior_b.tolist() == [0.5, 0.5]
