"""Layered decision procedure for Milnor-fiber boundary obstructions.

For a tight structure on L(p, q), the layers run in order:

1. Chern gate: a nonzero residue sum(r_i mu_i) mod p rules the structure
   out; the residue vanishes only for r = 0, which forces every a_i even.
2. Registry of known-realizable families: all coefficients 2 (checked
   first, before the two-coefficient theorem case could misfire on
   x_1 x_2 = 1), then a single coefficient.
3. Theorem layer on [2x_1, ..., 2x_n]: two coefficients with
   x_1 x_2 > 1 are obstructed; three or more with every x_i > 1 are
   obstructed unless q^2 = 1 mod p with n odd.
4. Computational layer: the monodromy constraint 1 + trace(phi^2) = 0
   requires the intersection lattice to admit an isometry of trace -1;
   a completed enumeration with no such element is an obstruction, a
   witness leaves the question open, and a capped search is reported as
   indeterminate (complete=False).  A search of at most 10,000 steps
   runs first; when it caps, a witness built from the Weyl group of the
   runs of 2s is tried, and only then the search with the whole cap.
   The witness is thus the canonically least one when the short search
   finds it, otherwise the Weyl-group one; both are exactly verified.

Obstructed never misfires (each layer is a proved necessary condition);
KnownRealizable is asserted only for registry families; everything else
is an honest Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .contact import (
    DEFAULT_STRUCTURE_CAP,
    RotationVector,
    TightClass,
    chern_residue,
    classify_structure,
    enumerate_structures,
    structure_count,
    zero_vector,
)
from .contfrac import CFExpansion, LensSpace, expand, q_squared_is_one
from .errors import InvalidInputError, ResultTooLargeError
from .lattice import (
    DEFAULT_GROUP_CAP,
    Isometry,
    find_isometry_with_trace,
    gram,
    weyl_witness,
)

DEFAULT_CROSS_VALIDATE_BELOW = 200
# Budget of the first, short trace -1 search; past it the Weyl-group
# construction is tried before the search resumes with the whole cap.
_QUICK_SEARCH_STEPS = 10_000


class Outcome(Enum):
    OBSTRUCTED = "Obstructed"
    KNOWN_REALIZABLE = "KnownRealizable"
    INCONCLUSIVE = "Inconclusive"


class Reason(Enum):
    CHERN_NONZERO = "ChernNonzero"
    THEOREM_B = "TheoremB"
    THEOREM_CI = "TheoremCi"
    THEOREM_CII = "TheoremCii"
    COMPUTED_NO_TRACE_MINUS_ONE = "ComputedNoTraceMinusOne"
    REGISTRY_HIRZEBRUCH = "RegistryHirzebruch"
    REGISTRY_AN = "RegistryAn"
    TRACE_WITNESS_EXISTS = "TraceWitnessExists"

    @property
    def obstructs(self) -> bool:
        return self in (
            Reason.CHERN_NONZERO,
            Reason.THEOREM_B,
            Reason.THEOREM_CI,
            Reason.THEOREM_CII,
            Reason.COMPUTED_NO_TRACE_MINUS_ONE,
        )


_THEOREM_REASONS = (Reason.THEOREM_B, Reason.THEOREM_CI, Reason.THEOREM_CII)


@dataclass(frozen=True)
class Verdict:
    """Decision for one (p, q, r).

    certificate carries the payload appropriate to the reason: a witness
    Isometry for TraceWitnessExists, the group's sorted trace multiset
    for ComputedNoTraceMinusOne, a defining-equation citation for the
    registry reasons, None otherwise.  reason is None when the theorem
    layer is silent and no computation settled the case.  complete=False
    marks verdicts left indeterminate by a capped search.
    """

    outcome: Outcome
    reason: Reason | None
    certificate: Isometry | tuple[int, ...] | str | None = None
    complete: bool = True

    def __post_init__(self) -> None:
        if self.outcome is Outcome.OBSTRUCTED and not (self.reason and self.reason.obstructs):
            raise InvalidInputError(f"reason {self.reason} cannot justify Obstructed")
        if self.outcome is Outcome.KNOWN_REALIZABLE and self.reason not in (
            Reason.REGISTRY_HIRZEBRUCH,
            Reason.REGISTRY_AN,
        ):
            raise InvalidInputError(f"reason {self.reason} cannot justify KnownRealizable")
        if self.reason is Reason.TRACE_WITNESS_EXISTS and not isinstance(
            self.certificate, Isometry
        ):
            raise InvalidInputError("TraceWitnessExists requires a witness isometry")

    @property
    def witness(self) -> Isometry | None:
        return self.certificate if isinstance(self.certificate, Isometry) else None

    @property
    def trace_multiset(self) -> tuple[int, ...] | None:
        return self.certificate if isinstance(self.certificate, tuple) else None

    @property
    def group_order(self) -> int | None:
        """Order of the fully enumerated group, when one certifies this
        verdict (only ComputedNoTraceMinusOne carries it)."""
        traces = self.trace_multiset
        return len(traces) if traces is not None else None


@dataclass(frozen=True)
class RegistryEntry:
    """A known-realizable family: expansion pattern plus the defining
    equation of a singularity whose Milnor fiber bounds it."""

    reason: Reason
    citation: str
    matches: Callable[[CFExpansion], bool]


REGISTRY: tuple[RegistryEntry, ...] = (
    # All coefficients 2: q = p-1, the unique tight structure.  Listed
    # first so that two-coefficient chains [2,2] never reach the
    # two-coefficient obstruction case (which needs x_1 x_2 > 1).
    RegistryEntry(Reason.REGISTRY_AN, "z^p+2xy", lambda e: all(a == 2 for a in e)),
    # Single coefficient: q = 1, p = a_1; realized with p = 2n.
    RegistryEntry(Reason.REGISTRY_HIRZEBRUCH, "z^2+xy^n", lambda e: len(e) == 1),
)


def _checked(p: int, q: int, rot: RotationVector) -> CFExpansion:
    space = LensSpace(p, q)
    coeffs = expand(space.p, space.q)
    if rot.coeffs != coeffs:
        raise InvalidInputError(
            f"rotation vector was built for {tuple(rot.coeffs)}, "
            f"but {p}/{q} expands to {tuple(coeffs)}"
        )
    return coeffs


def decide_theorem(p: int, q: int, rot: RotationVector) -> Verdict:
    """Chern gate, registry, and theorem layer; no group enumeration.

    Returns Inconclusive with reason None when the theorem layer is
    silent (some x_i = 1 with n >= 3, or q^2 = 1 mod p with n odd).
    """
    coeffs = _checked(p, q, rot)

    residue = chern_residue(rot)
    if residue.value != 0:
        return Verdict(Outcome.OBSTRUCTED, Reason.CHERN_NONZERO)
    # Residue 0 forces r = 0 (and hence every a_i even); anything else
    # here would contradict the vanishing theorem the gate encodes.
    assert rot.is_zero, "zero residue with nonzero rotation vector"

    for entry in REGISTRY:
        if entry.matches(coeffs):
            return Verdict(Outcome.KNOWN_REALIZABLE, entry.reason, entry.citation)

    xs = [a // 2 for a in coeffs]
    n = len(xs)
    if n == 2 and xs[0] * xs[1] > 1:
        return Verdict(Outcome.OBSTRUCTED, Reason.THEOREM_B)
    if n >= 3 and all(x > 1 for x in xs):
        if not q_squared_is_one(p, q):
            return Verdict(Outcome.OBSTRUCTED, Reason.THEOREM_CI)
        if n % 2 == 0:
            return Verdict(Outcome.OBSTRUCTED, Reason.THEOREM_CII)
    return Verdict(Outcome.INCONCLUSIVE, None)


def decide_full(
    p: int,
    q: int,
    rot: RotationVector,
    cap: int = DEFAULT_GROUP_CAP,
    cross_validate_below: int = DEFAULT_CROSS_VALIDATE_BELOW,
) -> Verdict:
    """decide_theorem plus the trace -1 search on inconclusive cases.

    The search runs with at most _QUICK_SEARCH_STEPS steps first; when
    that caps, weyl_witness is tried, and only when it finds nothing
    does the search run again with the whole cap.  Each search is
    bounded by cap.

    Theorem-layer obstructions with p below cross_validate_below are
    cross-checked against the enumeration (a completed search finding a
    trace -1 element there would mean an internal error, and raises).
    """
    verdict = decide_theorem(p, q, rot)

    if verdict.reason in _THEOREM_REASONS and p <= cross_validate_below:
        search = find_isometry_with_trace(gram(rot.coeffs), -1, cap)
        if search.witness is not None:
            raise RuntimeError(
                f"internal error: {verdict.reason.value} for {p}/{q} but the "
                f"lattice admits a trace -1 isometry {search.witness.rows}"
            )
        return verdict

    if verdict.outcome is not Outcome.INCONCLUSIVE:
        return verdict

    lat = gram(rot.coeffs)
    search = find_isometry_with_trace(lat, -1, min(cap, _QUICK_SEARCH_STEPS))
    witness = search.witness
    if not search.complete:
        witness = weyl_witness(lat)
        if witness is None and cap > _QUICK_SEARCH_STEPS:
            search = find_isometry_with_trace(lat, -1, cap)
            witness = search.witness
    if witness is not None:
        return Verdict(
            Outcome.INCONCLUSIVE, Reason.TRACE_WITNESS_EXISTS, witness, complete=True
        )
    if search.complete:
        return Verdict(
            Outcome.OBSTRUCTED,
            Reason.COMPUTED_NO_TRACE_MINUS_ONE,
            search.traces,
            complete=True,
        )
    return Verdict(Outcome.INCONCLUSIVE, None, None, complete=False)


@dataclass(frozen=True)
class Record:
    """One scan row: a structure on L(p, q) and its verdict.

    error is set (and the later fields may be None) when evaluating the
    entry failed; the stream itself never aborts.
    """

    p: int
    q: int
    coeffs: CFExpansion
    rotation: RotationVector | None
    tight_class: TightClass | None
    chern: int | None
    verdict: Verdict | None
    error: str | None = None


def evaluate_one(
    p: int,
    q: int,
    rot: RotationVector,
    theorem_only: bool = False,
    cap: int = DEFAULT_GROUP_CAP,
    cross_validate_below: int = DEFAULT_CROSS_VALIDATE_BELOW,
) -> Record:
    """Full record (class, residue, verdict) for one structure."""
    # Both deciders validate (p, q) against rot.coeffs first.
    if theorem_only:
        verdict = decide_theorem(p, q, rot)
    else:
        verdict = decide_full(p, q, rot, cap, cross_validate_below)
    return Record(
        p=p,
        q=q,
        coeffs=rot.coeffs,
        rotation=rot,
        tight_class=classify_structure(rot),
        chern=chern_residue(rot).value,
        verdict=verdict,
    )


def _evaluate_or_error(
    p: int,
    q: int,
    rot: RotationVector,
    theorem_only: bool = False,
    cap: int = DEFAULT_GROUP_CAP,
    cross_validate_below: int = DEFAULT_CROSS_VALIDATE_BELOW,
) -> Record:
    """evaluate_one, with a failure (including the internal error of a
    theorem contradicted by the enumeration) turned into a record with
    the error field set."""
    try:
        return evaluate_one(p, q, rot, theorem_only, cap, cross_validate_below)
    except (InvalidInputError, ResultTooLargeError, RuntimeError) as exc:
        return Record(
            p, q, rot.coeffs, rot,
            tight_class=None, chern=None, verdict=None, error=str(exc),
        )


def scan(
    p_max: int,
    rot_zero_only: bool = False,
    all_even_only: bool = False,
    cap: int = DEFAULT_GROUP_CAP,
    cross_validate_below: int = DEFAULT_CROSS_VALIDATE_BELOW,
) -> Iterator[Record]:
    """Records for every coprime (p, q) with 2 <= p <= p_max, in canonical
    order: p ascending, q ascending, structures in enumeration order.

    rot_zero_only keeps only the zero vector (skipping pairs where it is
    not admissible); all_even_only keeps only all-even expansions.  A
    failure while evaluating an entry becomes a record with the error
    field set.
    """
    if p_max < 2:
        raise InvalidInputError(f"p_max must be at least 2, got {p_max}")
    from math import gcd

    for p in range(2, p_max + 1):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            coeffs = expand(p, q)
            all_even = all(a % 2 == 0 for a in coeffs)
            if all_even_only and not all_even:
                continue
            if rot_zero_only:
                if not all_even:
                    continue
                rots = [zero_vector(coeffs)]
            else:
                if structure_count(coeffs) > DEFAULT_STRUCTURE_CAP:
                    yield Record(
                        p, q, coeffs, None, None, None, None,
                        error=f"structure count exceeds {DEFAULT_STRUCTURE_CAP}",
                    )
                    continue
                rots = enumerate_structures(coeffs)
            for rot in rots:
                yield _evaluate_or_error(
                    p, q, rot, cap=cap, cross_validate_below=cross_validate_below
                )
