"""Tight contact structures on a lens space as rotation-number vectors.

With expansion coefficients (a1, ..., an), the tight structures on
L(p, q) are indexed by integer vectors r with |r_i| <= a_i - 2 and
r_i = a_i mod 2, one slot per coefficient.  The slot for a_i has
a_i - 1 admissible values, so there are prod(a_i - 1) structures, and
that product never exceeds p.

The residue sum(r_i mu_i) mod p locates the first Chern class of the
structure in H^2, and it vanishes exactly for the zero vector.

enumerate_structures returns a Structures iterable, not a list: it holds
the expansion and one range of slot values per coefficient, so a pair
costs O(n) memory however many structures it has, its length is the
product of the range lengths, and each vector is built when it is read.
A pair's first record thus waits for one vector, not for all of them.
The vectors it builds are admissible by construction and skip the slot
check.

Every structure of a pair holds the one expansion object
enumerate_structures was given, and the per-pair work (the weights mu
and p, and the rotation sum of the extremal vectors) is kept on that
object.  A residue is one multiply-sum over those weights, a plain int
computed on each call.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .contfrac import CFExpansion, as_expansion, cf_invariants
from .errors import DEFAULT_CAP, InvalidInputError, ResultTooLargeError, check_cap


class TightClass(Enum):
    """Coarse type of a tight structure: universally tight or virtually
    overtwisted.  The two extremal vectors r = +-(a_i - 2) are universally
    tight, everything else is virtually overtwisted; when all a_i = 2 the
    extremal vectors coincide in the zero vector."""

    UNIVERSALLY_TIGHT = "UT"
    VIRTUALLY_OVERTWISTED = "VO"


@dataclass(frozen=True)
class RotationVector:
    """A rotation-number vector for a fixed expansion.

    Validates the slot condition: |r_i| <= a_i - 2 and r_i = a_i mod 2.
    """

    coeffs: CFExpansion
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        # Frozen fields are rewritten only when coerced: zero_vector
        # already passes an expansion and a tuple.
        if not isinstance(self.coeffs, CFExpansion):
            object.__setattr__(self, "coeffs", as_expansion(self.coeffs))
        if type(self.r) is not tuple:
            object.__setattr__(self, "r", tuple(self.r))
        coeffs, r = self.coeffs.coeffs, self.r
        if len(r) != len(coeffs):
            raise InvalidInputError(
                f"rotation vector has {len(r)} slots, expansion has {len(coeffs)}"
            )
        for a, ri in zip(coeffs, r):
            if not isinstance(ri, int) or isinstance(ri, bool):
                raise InvalidInputError(f"rotation numbers must be integers, got {ri!r}")
            if abs(ri) > a - 2 or (ri - a) % 2 != 0:
                raise InvalidInputError(
                    f"rotation number {ri} not admissible for coefficient {a}"
                )

    @property
    def is_zero(self) -> bool:
        return all(ri == 0 for ri in self.r)


def _slot_range(a: int) -> range:
    """Admissible rotation numbers for a coefficient a >= 2, ascending."""
    return range(2 - a, a - 1, 2)


def _admissible(exp: CFExpansion, r: tuple[int, ...]) -> RotationVector:
    """RotationVector(exp, r) for an r drawn from the slot ranges, without
    the slot check: such an r is admissible by construction."""
    rot = object.__new__(RotationVector)
    fields = rot.__dict__
    fields["coeffs"] = exp
    fields["r"] = r
    return rot


class Structures:
    """The tight structures of one expansion, each built when it is read.

    Order: slots vary rightmost-fastest, each slot ascending.  len() is
    known without building anything; every iteration builds the vectors
    afresh.
    """

    __slots__ = ("_exp", "_slots", "_count")

    def __init__(self, exp: CFExpansion) -> None:
        self._exp = exp
        self._slots = tuple(map(_slot_range, exp.coeffs))
        self._count = math.prod(map(len, self._slots))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RotationVector]:
        return map(_admissible, itertools.repeat(self._exp), itertools.product(*self._slots))


def enumerate_structures(
    coeffs: CFExpansion | Iterable[int], cap: int = DEFAULT_CAP
) -> Structures:
    """All tight structures on the lens space of the expansion, as a
    sized iterable that builds each vector when it is read.

    Raises ResultTooLargeError at call time when prod(a_i - 1) exceeds
    cap.
    """
    check_cap(cap)
    exp = as_expansion(coeffs)
    structures = Structures(exp)
    if len(structures) > cap:
        raise ResultTooLargeError(
            f"{len(structures)} structures exceed cap {cap} for coefficients {exp.coeffs}"
        )
    return structures


def zero_vector(coeffs: CFExpansion | Iterable[int]) -> RotationVector:
    """The zero rotation vector; only admissible when every a_i is even."""
    exp = as_expansion(coeffs)
    return RotationVector(exp, (0,) * len(exp))


def chern_residue(rot: RotationVector) -> int:
    """sum(r_i mu_i) mod p, normalized to 0 <= value < p, with mu and p
    from the invariants kept on the vector's expansion."""
    inv = cf_invariants(rot.coeffs)
    return sum(map(operator.mul, rot.r, inv.mu)) % inv.p


def classify_structure(rot: RotationVector) -> TightClass:
    """Universally tight for the two extremal vectors, else virtually
    overtwisted.

    Since |r_i| <= a_i - 2, |sum r_i| <= sum(a_i - 2), with equality
    exactly when every r_i = a_i - 2 or every r_i = -(a_i - 2): at the
    two extremal vectors.  The bound is kept on the expansion, once per
    pair.
    """
    if abs(sum(rot.r)) == rot.coeffs.extremal_sum:
        return TightClass.UNIVERSALLY_TIGHT
    return TightClass.VIRTUALLY_OVERTWISTED
