"""Majorization orders on nonnegative vectors with constructive witnesses.

The package decides three orders (majorization, weak majorization and
submajorization, the last defined through increasable doubly substochastic
witnesses), produces the witnessing matrices and their doubly stochastic
completions, and builds/classifies the structured operators that preserve
the submajorization order.

``import submaj`` loads no submodule (and so no numpy).  Each exported name
imports its module on first read (PEP 562 module ``__getattr__``) and is
then bound here, so a process loads only the layers it uses: deciding a
relation never loads the preservers, the demos or the acceptance battery.
A name is bound to its module's value at that first read.
"""
import importlib as _importlib

_EXPORTS = {
    "config": ("Config", "DEFAULT_CLASS_TOL", "DEFAULT_EXACT_TOL"),
    "vectors": (
        "LevelBlock",
        "LevelSetDecomposition",
        "NonNegVector",
        "Rearrangement",
        "common_dim",
        "decreasing_rearrangement",
        "level_sets",
        "p_norm",
        "partial_sums",
        "scatter_level_sets",
        "vector",
    ),
    "matrices": (
        "AugmentationStep",
        "Decomposition",
        "IncreasabilityCertificate",
        "MatrixClass",
        "StochMatrix",
        "apply",
        "classify_matrix",
        "compose",
        "compose_certificates",
        "convex_combine",
        "convex_combine_certificates",
        "decompose_increasable",
        "identity_matrix",
        "shift_matrix",
        "vonneumann_complete",
        "zero_matrix",
    ),
    "relations": (
        "RelationVerdict",
        "TTransformChain",
        "TTransformStep",
        "check_majorize",
        "check_submajorize",
        "check_weak_majorize",
        "hlp_witness",
        "intermediate_h",
        "oracle_majorize_bruteforce",
        "partial_permutation",
        "permutation_between",
        "strict_permutation",
        "weak_witness",
    ),
    "preservers": (
        "FamilyVerdict",
        "Injection",
        "InjectionFamily",
        "PreservationReport",
        "PreserverSpec",
        "PreserverVerdict",
        "TruncatedOperator",
        "apply_Th",
        "apply_injection_operator",
        "build_preserver",
        "classify_preserver_l1",
        "classify_preserver_lp",
        "construct_S",
        "empirical_preservation_check",
        "injection_matrix",
        "validate_family",
    ),
    "demos": (
        "ForcingResult",
        "ReciprocalSquareReport",
        "constant_row_support_index",
        "quadratic_family",
        "reciprocal_square_example",
        "shift_forcing",
        "theta_quadratic",
        "theta_triangular",
        "triangular_constant_row",
        "triangular_family",
    ),
    "acceptance": ("CriterionResult", "run_acceptance"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "sampling", "cli"))

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # The import system binds the submodule here, so this runs once.
        return _importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
