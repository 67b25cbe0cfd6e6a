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
   a completed enumeration with no such element is an obstruction
   certified by the group's trace histogram, a witness leaves the
   question open, and a capped search is reported as indeterminate
   (complete=False).  A search of at most 10,000 steps runs first; when
   it caps, a witness built from the Weyl group of the runs of 2s is
   tried, and only then the search with the whole cap.
   The witness is thus the canonically least one when the short search
   finds it, otherwise the Weyl-group one; both are exactly verified.

Obstructed never misfires (each layer is a proved necessary condition);
KnownRealizable is asserted only for registry families; everything else
is an honest Inconclusive.

Per-pair work lives on the expansion object that all the structures of
a pair share: the layers check (p, q) against the fraction it keeps
rather than expanding p/q again, and the Chern gate reads the weights it
keeps, so evaluating one structure repeats nothing done for its pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .contact import (
    RotationVector,
    TightClass,
    chern_residue,
    classify_structure,
    enumerate_structures,
    zero_vector,
)
from .contfrac import CFExpansion, LensSpace, expand, q_squared_is_one
from .errors import DEFAULT_CAP, InvalidInputError, ResultTooLargeError, check_cap, check_int
from .lattice import Isometry, find_isometry_with_trace, gram, weyl_witness

# Theorem-layer obstructions with p up to this are re-checked by the search.
_CROSS_VALIDATE_MAX_P = 200
# Budget of the first, short trace -1 search; past it the Weyl-group
# construction is tried before a second search starts again from step 0
# with the whole cap.
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
    def outcome(self) -> Outcome:
        """The registry reasons realize, a trace witness leaves the case
        open, and every other reason is a proved obstruction."""
        if self in (Reason.REGISTRY_HIRZEBRUCH, Reason.REGISTRY_AN):
            return Outcome.KNOWN_REALIZABLE
        if self is Reason.TRACE_WITNESS_EXISTS:
            return Outcome.INCONCLUSIVE
        return Outcome.OBSTRUCTED


_THEOREM_REASONS = (Reason.THEOREM_B, Reason.THEOREM_CI, Reason.THEOREM_CII)


def _is_absence_histogram(certificate: object) -> bool:
    """A non-empty tuple of (trace, multiplicity >= 1) integer pairs with
    no trace -1: what a completed search without a witness proves."""
    return (
        isinstance(certificate, tuple)
        and len(certificate) > 0
        and all(
            isinstance(pair, tuple)
            and len(pair) == 2
            and all(isinstance(x, int) for x in pair)
            and pair[0] != -1
            and pair[1] >= 1
            for pair in certificate
        )
    )


@dataclass(frozen=True)
class Verdict:
    """Decision for one (p, q, r).

    outcome is derived: reason.outcome, or Inconclusive when reason is
    None.  certificate carries the payload appropriate to the reason: a
    witness Isometry of trace -1 for TraceWitnessExists, the group's
    trace histogram (sorted (trace, multiplicity) pairs) for
    ComputedNoTraceMinusOne, a defining-equation citation for the
    registry reasons, None otherwise.
    reason is None when the theorem layer is silent and no computation
    settled the case.
    complete=False marks verdicts left indeterminate by a capped search.
    """

    reason: Reason | None
    certificate: Isometry | tuple[tuple[int, int], ...] | str | None = None
    complete: bool = True

    def __post_init__(self) -> None:
        if self.reason is Reason.TRACE_WITNESS_EXISTS and not (
            isinstance(self.certificate, Isometry) and self.certificate.trace == -1
        ):
            raise InvalidInputError(
                "TraceWitnessExists requires a witness isometry of trace -1"
            )
        if self.reason is Reason.COMPUTED_NO_TRACE_MINUS_ONE and not _is_absence_histogram(
            self.certificate
        ):
            raise InvalidInputError(
                "ComputedNoTraceMinusOne requires a trace histogram without trace -1"
            )

    @property
    def outcome(self) -> Outcome:
        return self.reason.outcome if self.reason is not None else Outcome.INCONCLUSIVE

    @property
    def witness(self) -> Isometry | None:
        return self.certificate if isinstance(self.certificate, Isometry) else None

    @property
    def group_order(self) -> int | None:
        """Order of the fully enumerated group, when one certifies this
        verdict: the multiplicities of its trace histogram summed."""
        if self.reason is not Reason.COMPUTED_NO_TRACE_MINUS_ONE:
            return None
        return sum(m for _, m in self.certificate)

    @cached_property
    def output_fields(self) -> tuple[str, str | None, tuple[int, ...] | None, int | None, bool]:
        """(verdict, reason, witness, group_order, complete) as an output
        row writes them: names as text, the witness flattened.

        Computed on first use and kept on the instance, like
        CFExpansion.invariants, so the shared _CHERN_NONZERO verdict is
        converted once; not a field, so equality, the hash and repr
        still see only the fields.
        """
        witness = self.witness
        return (
            self.outcome.value,
            self.reason.value if self.reason is not None else None,
            witness.flatten() if witness is not None else None,
            self.group_order,
            self.complete,
        )


# Verdicts are immutable, so every structure the Chern gate rules out
# shares this one.
_CHERN_NONZERO = Verdict(Reason.CHERN_NONZERO)


def _checked(p: int, q: int, rot: RotationVector) -> CFExpansion:
    """rot.coeffs, once (p, q) is known to be the fraction it folds to.

    expand is a bijection onto the expansions, so comparing with the
    expansion's kept fraction is the same test as re-expanding p/q.  Two
    plain ints equal to the kept fraction pass at once: that fraction is
    already a valid LensSpace.  Anything else is validated as LensSpace
    (p, q), which raises its own error for bad input.
    """
    coeffs = rot.coeffs
    kept = coeffs.fraction
    if type(p) is int and type(q) is int and p == kept.p and q == kept.q:
        return coeffs
    space = LensSpace(p, q)
    if kept != space:
        raise InvalidInputError(
            f"rotation vector was built for {tuple(coeffs)}, "
            f"but {p}/{q} expands to {tuple(expand(space.p, space.q))}"
        )
    return coeffs


def decide_theorem(
    p: int, q: int, rot: RotationVector, *, chern: int | None = None
) -> Verdict:
    """Chern gate, registry, and theorem layer; no group enumeration.

    chern, when given, is chern_residue(rot) as the caller computed it.
    The gate holds it against the vector: the residue vanishes exactly
    at r = 0, so a value that says otherwise raises RuntimeError.

    Returns Inconclusive with reason None when the theorem layer is
    silent (some x_i = 1 with n >= 3, or q^2 = 1 mod p with n odd).
    """
    coeffs = _checked(p, q, rot)
    if chern is None:
        chern = chern_residue(rot)

    # The residue vanishes exactly at r = 0 (which forces every a_i
    # even); anything else here would contradict the vanishing theorem
    # the gate encodes.
    if chern != 0:
        if not any(rot.r):
            raise RuntimeError(f"internal error: residue {chern} for {p}/{q} with r = 0")
        return _CHERN_NONZERO
    if not rot.is_zero:
        raise RuntimeError(f"internal error: zero residue for {p}/{q} with r = {rot.r}")

    # Registry of known-realizable families, each cited by the defining
    # equation of a singularity whose Milnor fiber bounds it.
    # All coefficients 2: q = p-1, the unique tight structure.  Checked
    # first so that two-coefficient chains [2,2] never reach the
    # two-coefficient obstruction case (which needs x_1 x_2 > 1).
    if all(a == 2 for a in coeffs):
        return Verdict(Reason.REGISTRY_AN, "z^p+2xy")
    # Single coefficient: q = 1, p = a_1; realized with p = 2n.
    if len(coeffs) == 1:
        return Verdict(Reason.REGISTRY_HIRZEBRUCH, "z^2+xy^n")

    xs = [a // 2 for a in coeffs]
    n = len(xs)
    if n == 2 and xs[0] * xs[1] > 1:
        return Verdict(Reason.THEOREM_B)
    if n >= 3 and all(x > 1 for x in xs):
        if not q_squared_is_one(p, q):
            return Verdict(Reason.THEOREM_CI)
        if n % 2 == 0:
            return Verdict(Reason.THEOREM_CII)
    return Verdict(None)


def decide_full(
    p: int, q: int, rot: RotationVector, cap: int = DEFAULT_CAP, *, chern: int | None = None
) -> Verdict:
    """decide_theorem plus the trace -1 search on inconclusive cases;
    chern is passed on to decide_theorem.

    The search runs with at most _QUICK_SEARCH_STEPS steps first; when
    that caps, weyl_witness is tried, and only when it finds nothing
    does the search run again with the whole cap.  Each search is
    bounded by cap.

    Theorem-layer obstructions with p <= 200 are cross-checked against
    the enumeration (a completed search finding a trace -1 element there
    would mean an internal error, and raises).  A bad cap raises
    InvalidInputError whichever layer would decide.
    """
    check_cap(cap)
    verdict = decide_theorem(p, q, rot, chern=chern)

    if verdict.reason in _THEOREM_REASONS and p <= _CROSS_VALIDATE_MAX_P:
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
        return Verdict(Reason.TRACE_WITNESS_EXISTS, witness)
    if search.complete:
        return Verdict(Reason.COMPUTED_NO_TRACE_MINUS_ONE, search.traces)
    return Verdict(None, complete=False)


class Record(NamedTuple):
    """One scan row: a structure on L(p, q) and its verdict.

    error is set (and the later fields may be None) when evaluating the
    entry failed; the stream itself never aborts.  A tuple, so it also
    compares equal to the plain tuple of its values.
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
    cap: int = DEFAULT_CAP,
) -> Record:
    """Full record (class, residue, verdict) for one structure; the
    residue is computed once, for the Chern gate and the record."""
    chern = chern_residue(rot)
    # Both deciders validate (p, q) against rot.coeffs first.
    if theorem_only:
        verdict = decide_theorem(p, q, rot, chern=chern)
    else:
        verdict = decide_full(p, q, rot, cap, chern=chern)
    return Record(p, q, rot.coeffs, rot, classify_structure(rot), chern, verdict)


def _evaluate_or_error(
    p: int,
    q: int,
    rot: RotationVector,
    theorem_only: bool = False,
    cap: int = DEFAULT_CAP,
) -> Record:
    """evaluate_one, with a failure (including the internal error of a
    theorem contradicted by the enumeration) turned into a record with
    the error field set."""
    try:
        return evaluate_one(p, q, rot, theorem_only, cap)
    except (InvalidInputError, ResultTooLargeError, RuntimeError) as exc:
        return Record(
            p, q, rot.coeffs, rot,
            tight_class=None, chern=None, verdict=None, error=str(exc),
        )


def scan(
    p_max: int,
    rot_zero_only: bool = False,
    all_even_only: bool = False,
    cap: int = DEFAULT_CAP,
) -> Iterator[Record]:
    """Records for every coprime (p, q) with 2 <= p <= p_max, in canonical
    order: p ascending, q ascending, structures in enumeration order.

    rot_zero_only keeps only the zero vector (skipping pairs where it is
    not admissible); all_even_only keeps only all-even expansions.  cap
    bounds each pair's structure enumeration and each search.  A failure
    while evaluating an entry, a pair with more than cap structures
    included, becomes a record with the error field set.
    """
    check_int("p_max", p_max)
    check_cap(cap)
    if p_max < 2:
        raise InvalidInputError(f"p_max must be at least 2, got {p_max}")
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            coeffs = expand(p, q)
            all_even = all(a % 2 == 0 for a in coeffs)
            if all_even_only and not all_even:
                continue
            rots: Iterable[RotationVector]
            if rot_zero_only:
                if not all_even:
                    continue
                rots = [zero_vector(coeffs)]
            else:
                try:
                    rots = enumerate_structures(coeffs, cap=cap)
                except ResultTooLargeError as exc:
                    yield Record(p, q, coeffs, None, None, None, None, error=str(exc))
                    continue
            for rot in rots:
                yield _evaluate_or_error(p, q, rot, cap=cap)
