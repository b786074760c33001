"""CHSH and local-hidden-variable toolkit.

Quantum two-qubit correlations up to the 2*sqrt(2) maximum, local
hidden-variable models bounded by 2, local-polytope membership with an
independent decomposition oracle, the causal network that enforces the bound,
and the seven-thesis classification of quantum interpretations.

``import bellkit`` loads no submodule: each public name is imported from its
submodule on first use (PEP 562), so a caller pays only for the modules it reads.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "behavior": ("Behavior", "NoSignalingReport", "behavior_from_correlators", "correlators",
                 "no_signaling", "pr_box", "random_no_signaling_behavior", "uniform_behavior"),
    "errors": ("BellKitError", "InsufficientDataError", "InternalConsistencyError", "InvalidInputError",
               "UnknownInterpretationError"),
    "lhv": ("LHVModel", "chsh", "enumerate_deterministic", "lhv_behavior", "random_model"),
    "network": ("ChshEstimate", "MarkovReport", "NetworkSpec", "SampleDataset", "estimate_chsh",
                "exact_chsh", "exact_joint", "conditional_behavior", "sample", "verify_markov"),
    "optimize": ("MeasurementSettings", "OptimizationResult", "chsh_of_settings", "seesaw_maximize",
                 "sweep", "tsirelson_settings"),
    "polytope": ("TSIRELSON", "LocalDecomposition", "chsh_variants", "is_local", "local_decomposition"),
    "quantum": ("TwoQubitState", "UnitVector3", "basis_state", "correlation_matrix", "quantum_behavior",
                "random_pure_state", "singlet"),
    "theses": ("EscapeRoute", "InterpretationRecord", "NonlocalWitness", "Stance",
               "SuperdeterministicWitness", "Thesis", "classical", "escape_route", "find_interpretation",
               "nonlocal_witness", "qm_compatible", "superdeterministic_witness", "taxonomy"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, from its submodule; stored here, so that each name is looked up once."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
