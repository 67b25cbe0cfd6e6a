"""Obstructions for tight lens spaces bounding Milnor fibers.

The pipeline: expand p/q into its all->=2 continued fraction, enumerate
the tight contact structures as rotation-number vectors, apply the
Chern-class gate, the known-realizable registry and the parity/palindrome
theorem layer, and fall back to enumerating the integral isometry group
of the plumbing lattice to test for a trace -1 monodromy candidate.
"""

from .contact import (
    RotationVector,
    TightClass,
    chern_residue,
    classify_structure,
    enumerate_structures,
    zero_vector,
)
from .contfrac import (
    CFExpansion,
    CFInvariants,
    LensSpace,
    as_expansion,
    cf_invariants,
    expand,
    q_squared_is_one,
)
from .errors import InvalidInputError, ResultTooLargeError
from .lattice import (
    IntersectionLattice,
    Isometry,
    IsometryGroup,
    TraceSearch,
    find_isometry_with_trace,
    gram,
    orthogonal_group,
    short_vectors,
)
from .obstruct import (
    Outcome,
    Reason,
    Record,
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
    "IntersectionLattice",
    "InvalidInputError",
    "Isometry",
    "IsometryGroup",
    "LensSpace",
    "Outcome",
    "Reason",
    "Record",
    "ResultTooLargeError",
    "RotationVector",
    "TightClass",
    "TraceSearch",
    "Verdict",
    "as_expansion",
    "cf_invariants",
    "chern_residue",
    "classify_structure",
    "decide_full",
    "decide_theorem",
    "enumerate_structures",
    "evaluate_one",
    "expand",
    "find_isometry_with_trace",
    "gram",
    "orthogonal_group",
    "q_squared_is_one",
    "scan",
    "short_vectors",
    "zero_vector",
]
