"""Obstructions for tight lens spaces bounding Milnor fibers.

The pipeline: expand p/q into its all->=2 continued fraction, enumerate
the tight contact structures as rotation-number vectors, apply the
Chern-class gate, the known-realizable registry and the parity/palindrome
theorem layer, and fall back to enumerating the integral isometry group
of the plumbing lattice to test for a trace -1 monodromy candidate.
"""

from .contact import (
    ChernResidue,
    RotationVector,
    TightClass,
    chern_residue,
    classify_structure,
    enumerate_structures,
    slot_values,
    structure_count,
    zero_vector,
)
from .contfrac import (
    CFExpansion,
    CFInvariants,
    LensSpace,
    as_expansion,
    cf_invariants,
    evaluate,
    expand,
    is_palindromic,
    q_squared_is_one,
)
from .errors import InvalidInputError, InvalidNormError, ResultTooLargeError
from .lattice import (
    GroupShape,
    IntersectionLattice,
    Isometry,
    IsometryGroup,
    TraceSearch,
    canonical_matrix_key,
    canonical_vector_key,
    find_isometry_with_trace,
    gerstein_prediction,
    gram,
    orthogonal_group,
    short_vectors,
)
from .obstruct import (
    Outcome,
    Reason,
    Record,
    RegistryEntry,
    REGISTRY,
    Verdict,
    decide_full,
    decide_theorem,
    evaluate_one,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion",
    "CFInvariants",
    "ChernResidue",
    "GroupShape",
    "IntersectionLattice",
    "InvalidInputError",
    "InvalidNormError",
    "Isometry",
    "IsometryGroup",
    "LensSpace",
    "Outcome",
    "Reason",
    "Record",
    "REGISTRY",
    "RegistryEntry",
    "ResultTooLargeError",
    "RotationVector",
    "TightClass",
    "TraceSearch",
    "Verdict",
    "as_expansion",
    "canonical_matrix_key",
    "canonical_vector_key",
    "cf_invariants",
    "chern_residue",
    "classify_structure",
    "decide_full",
    "decide_theorem",
    "enumerate_structures",
    "evaluate",
    "evaluate_one",
    "expand",
    "find_isometry_with_trace",
    "gerstein_prediction",
    "gram",
    "is_palindromic",
    "orthogonal_group",
    "q_squared_is_one",
    "scan",
    "short_vectors",
    "slot_values",
    "structure_count",
    "zero_vector",
]
