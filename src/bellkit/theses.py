"""Seven theses about physical reality, jointly incompatible with quantum predictions.

Each thesis is individually tenable and any proper subset of the seven can be
held together consistently with quantum predictions; retaining all seven
cannot.  A theory counts as classical exactly when it sustains all seven.
Interpretations of quantum mechanics are classified by the single thesis they
give up, and for the two probabilistically-expressible escape routes the
module builds explicit witness models that reproduce any no-signaling
behavior while breaking just that thesis.
"""

from __future__ import annotations

import enum

from .behavior import Behavior, OUTCOME_VALUES, _Frozen, require_no_signaling
from .errors import InvalidInputError, UnknownInterpretationError
from .network import conditional_behavior
from .tolerance import read_only_view


class Thesis(enum.Enum):
    MEASUREMENT_REALISM = "Measurement realism"
    NON_RELATIONALISM = "Non-relationalism"
    NON_FRAGMENTATION = "Non-fragmentation"
    ONE_WORLD = "One world"
    LOCALITY = "Locality"
    MEASUREMENT_INDEPENDENCE = "Measurement independence"
    NON_SOLIPSISM = "Non-solipsism"

    def __str__(self) -> str:
        return self.value


ALL_THESES = frozenset(Thesis)


class Stance(_Frozen):
    """The subset of the seven theses a position retains."""

    retained: frozenset[Thesis]

    def __init__(self, retained):
        retained = frozenset(retained)
        if not retained <= ALL_THESES:
            raise InvalidInputError("stance contains values that are not theses")
        object.__setattr__(self, "retained", retained)

    @classmethod
    def all_but(cls, *dropped: Thesis) -> "Stance":
        return cls(ALL_THESES - frozenset(dropped))

    @classmethod
    def full(cls) -> "Stance":
        return cls(ALL_THESES)


def qm_compatible(s: Stance) -> bool:
    """False exactly when all seven theses are retained at once."""
    return s.retained != ALL_THESES


def classical(s: Stance) -> bool:
    """A domain is classical iff it sustains all seven theses jointly."""
    return s.retained == ALL_THESES


class InterpretationRecord(_Frozen):
    """One taxonomy row: an interpretation and the single thesis it rejects."""

    name: str
    rejected: Thesis

    def __init__(self, name, rejected):
        self.__dict__.update(name=name, rejected=rejected)

    def stance(self) -> Stance:
        return Stance.all_but(self.rejected)


_TAXONOMY: tuple[InterpretationRecord, ...] = tuple(
    InterpretationRecord(name, rejected)
    for name, rejected in (
        ("de Broglie-Bohm", Thesis.LOCALITY),
        ("Collapse models", Thesis.LOCALITY),
        ("Wavefunction realism", Thesis.LOCALITY),
        ("Transactional", Thesis.LOCALITY),
        ("Indivisible stochastic", Thesis.LOCALITY),
        ("Superdeterminism", Thesis.MEASUREMENT_INDEPENDENCE),
        ("Cellular automaton", Thesis.MEASUREMENT_INDEPENDENCE),
        ("Copenhagen", Thesis.MEASUREMENT_REALISM),
        ("Everett", Thesis.MEASUREMENT_REALISM),
        ("Quantum Darwinism", Thesis.MEASUREMENT_REALISM),
        ("Relational", Thesis.NON_RELATIONALISM),
        ("Pragmatic", Thesis.NON_RELATIONALISM),
        ("Brukner", Thesis.NON_RELATIONALISM),
        ("Quantum logic", Thesis.NON_FRAGMENTATION),
        ("Bub-Pitowsky", Thesis.NON_FRAGMENTATION),
        ("Sheaf contextual", Thesis.NON_FRAGMENTATION),
        ("Fragmentalist QBism", Thesis.NON_FRAGMENTATION),
        ("Pluriverse QBism", Thesis.ONE_WORLD),
        ("Radical single user", Thesis.NON_SOLIPSISM),
    )
)


def taxonomy() -> tuple[InterpretationRecord, ...]:
    """The 19 catalogued interpretations with their rejected thesis."""
    return _TAXONOMY


def find_interpretation(name: str) -> InterpretationRecord:
    """Case-insensitive exact-name lookup with a suggestion on miss."""
    wanted = name.strip().lower()
    for record in _TAXONOMY:
        if record.name.lower() == wanted:
            return record
    valid = tuple(r.name for r in _TAXONOMY)
    suggestion = next((v for v in valid if wanted and wanted in v.lower()), None)
    if suggestion is None:
        import difflib
        close = difflib.get_close_matches(name, valid, n=1, cutoff=0.5)
        suggestion = close[0] if close else None
    raise UnknownInterpretationError(name, valid, suggestion)


class EscapeRoute(_Frozen):
    """How dropping one thesis restores consistency with quantum predictions.

    Only the locality and measurement-independence routes admit a numerical
    witness model; the other five concern the nature of facts rather than
    probability assignments, so they carry a documented tag instead of a
    construction.
    """

    dropped: Thesis
    constructive: bool
    witness: str
    note: str

    def __init__(self, dropped, constructive, witness, note):
        self.__dict__.update(dropped=dropped, constructive=constructive, witness=witness, note=note)


_ROUTES: dict[Thesis, EscapeRoute] = {
    Thesis.LOCALITY: EscapeRoute(
        Thesis.LOCALITY, True, "nonlocal_witness",
        "outcome-dependent response model: Bob's outcome may depend on Alice's "
        "setting and outcome"),
    Thesis.MEASUREMENT_INDEPENDENCE: EscapeRoute(
        Thesis.MEASUREMENT_INDEPENDENCE, True, "superdeterministic_witness",
        "source-setting-correlated model: the hidden value fixes settings and "
        "outcomes alike"),
    Thesis.MEASUREMENT_REALISM: EscapeRoute(
        Thesis.MEASUREMENT_REALISM, False, "non-constructive",
        "outcomes are denied well-defined probabilities (or facthood); nothing "
        "numerical to exhibit"),
    Thesis.NON_RELATIONALISM: EscapeRoute(
        Thesis.NON_RELATIONALISM, False, "non-constructive",
        "facts become observer-relative pairs; not a probability model"),
    Thesis.NON_FRAGMENTATION: EscapeRoute(
        Thesis.NON_FRAGMENTATION, False, "non-constructive",
        "the totality of facts need not cohere; no single joint distribution is "
        "postulated"),
    Thesis.ONE_WORLD: EscapeRoute(
        Thesis.ONE_WORLD, False, "non-constructive",
        "facts split across observer-specific worlds; not a probability model"),
    Thesis.NON_SOLIPSISM: EscapeRoute(
        Thesis.NON_SOLIPSISM, False, "non-constructive",
        "with at most one observer the two-party scenario cannot be posed"),
}


def escape_route(dropped: Thesis) -> EscapeRoute:
    return _ROUTES[dropped]


class NonlocalWitness(_Frozen):
    """Setting/outcome-dependent decomposition P(A|x) * P(B|y,x,A) of a behavior.

    Keeps measurement independence (no hidden-value/setting coupling is even
    present) but lets Bob's response read Alice's setting and outcome, which is
    exactly the dependence that local factorization forbids.
    """

    p_a_given_x: np.ndarray      # (x, A)
    p_b_given_xya: np.ndarray    # (x, y, A, B)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, p_a_given_x, p_b_given_xya):
        self.__dict__.update(p_a_given_x=read_only_view(p_a_given_x), p_b_given_xya=read_only_view(p_b_given_xya))

    def recompose(self) -> Behavior:
        table = self.p_a_given_x[:, None, :, None] * self.p_b_given_xya
        return Behavior(table)


def nonlocal_witness(b: Behavior) -> NonlocalWitness:
    """Exactly reproduce a no-signaling behavior with a signaling-free-marginal,
    outcome-dependent response chain.

    P(A|x) is Alice's (setting-y-independent) marginal; P(B|y,x,A) is read off
    the behavior's conditionals.  Requires no-signaling so that P(A|x) is
    well-defined.
    """
    import numpy as np
    require_no_signaling(b, "Alice's marginal P(A|x)")
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 = v = b._entries  # index 8x + 4y + 2A + B
    # P(A|x), index 2x + A: the average of the two y-blocks of P(A|x,y), which agree within the slack
    a0, a1 = 0.5 * ((v0 + v1) + (v4 + v5)), 0.5 * ((v2 + v3) + (v6 + v7))
    a2, a3 = 0.5 * ((v8 + v9) + (v12 + v13)), 0.5 * ((v10 + v11) + (v14 + v15))
    p_b = []  # P(B|y,x,A) by pairs of entries; 0.5 is the convention on a null event A, whose P(A|x) is 0 anyway
    for k, d in zip((0, 2, 4, 6, 8, 10, 12, 14), (a0, a1, a0, a1, a2, a3, a2, a3)):
        p_b += (v[k] / d, v[k + 1] / d) if d > 0.0 else (0.5, 0.5)
    return NonlocalWitness(np.array([a0, a1, a2, a3]).reshape(2, 2), np.array(p_b).reshape(2, 2, 2, 2))


class SuperdeterministicWitness(_Frozen):
    """Hidden-value model whose values encode (and force) the settings.

    The hidden domain is the set of full experiment transcripts (x, y, A, B),
    with the four setting pairs equally likely; its prior fixes the settings,
    breaking setting/source independence, while each party's outcome still
    reads only the hidden value (the local-response discipline is retained).
    """

    atoms: tuple[tuple[int, int, int, int], ...]  # (x, y, A, B) with +/-1 outcomes
    prior: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, atoms, prior):
        self.__dict__.update(atoms=atoms, prior=read_only_view(prior))

    def _atom_index(self) -> tuple[np.ndarray, ...]:
        """Each atom's (x, y, A, B) index into a behavior-shaped table."""
        import numpy as np
        atoms = np.array(self.atoms, dtype=int).reshape(-1, 4)
        return atoms[:, 0], atoms[:, 1], (1 - atoms[:, 2]) // 2, (1 - atoms[:, 3]) // 2

    def induced_behavior(self) -> Behavior:
        """Condition the induced joint on the settings; reproduces the input."""
        import numpy as np
        joint = np.zeros((1, 2, 2, 2, 2))
        np.add.at(joint[0], self._atom_index(), self.prior)
        return conditional_behavior(joint)

    def setting_dependence_residual(self) -> float:
        """max |P(value|x,y) - P(value)|: strictly positive, the broken thesis."""
        import numpy as np
        x, y = self._atom_index()[:2]
        p_xy = np.zeros((2, 2))
        np.add.at(p_xy, (x, y), self.prior)
        # conditioning on the matching setting pair inflates the mass;
        # conditioning on any other pair kills it entirely
        inflated = np.abs(self.prior / p_xy[x, y] - self.prior)
        return float(np.max(np.maximum(inflated, self.prior), initial=0.0))


def superdeterministic_witness(b: Behavior) -> SuperdeterministicWitness:
    """Exactly reproduce a behavior by correlating the hidden value with the settings.

    Each hidden value is a transcript (x, y, A, B) carrying probability
    P(A,B|x,y)/4, every setting pair being equally likely as in the standard
    Bell test; settings and outcomes are then deterministic reads of the
    hidden value.
    """
    import numpy as np
    mass = 0.25 * b.table
    index = np.argwhere(mass > 0.0)  # (x, y, A, B) rows in C order
    outcomes = np.array(OUTCOME_VALUES)[index[:, 2:]]
    prior = mass[mass > 0.0]
    return SuperdeterministicWitness(
        atoms=tuple(map(tuple, np.column_stack([index[:, :2], outcomes]).tolist())),
        prior=prior / prior.sum(),
    )
