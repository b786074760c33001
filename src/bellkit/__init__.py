"""CHSH and local-hidden-variable toolkit.

Quantum two-qubit correlations up to the 2*sqrt(2) maximum, local
hidden-variable models bounded by 2, local-polytope membership with an
independent decomposition oracle, the causal network that enforces the bound,
and the seven-thesis classification of quantum interpretations.
"""

__version__ = "0.1.0"

from .behavior import (
    Behavior,
    NoSignalingReport,
    behavior_from_correlators,
    correlators,
    no_signaling,
    pr_box,
    random_no_signaling_behavior,
    uniform_behavior,
)
from .errors import (
    BellKitError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidInputError,
    UnknownInterpretationError,
)
from .lhv import (
    DeterministicStrategy,
    LHVModel,
    chsh,
    deterministic_behavior,
    enumerate_deterministic,
    lhv_behavior,
    mix_models,
    model_chsh,
    random_model,
    strategy_to_model,
)
from .network import (
    ChshEstimate,
    MarkovReport,
    NetworkSpec,
    SampleDataset,
    estimate_chsh,
    exact_chsh,
    exact_joint,
    conditional_behavior,
    sample,
    verify_markov,
)
from .optimize import (
    MeasurementSettings,
    OptimizationResult,
    TSIRELSON,
    chsh_of_settings,
    seesaw_maximize,
    sweep,
    tsirelson_settings,
)
from .polytope import LocalDecomposition, chsh_variants, is_local, local_decomposition
from .quantum import (
    Observable2,
    TwoQubitState,
    UnitVector3,
    basis_state,
    correlation,
    correlation_matrix,
    pauli_dot,
    quantum_behavior,
    random_pure_state,
    random_unit_vector,
    singlet,
)
from .theses import (
    EscapeRoute,
    InterpretationRecord,
    NonlocalWitness,
    Stance,
    SuperdeterministicWitness,
    Thesis,
    classical,
    escape_route,
    find_interpretation,
    nonlocal_witness,
    qm_compatible,
    superdeterministic_witness,
    taxonomy,
)
