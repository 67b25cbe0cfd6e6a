"""Tight contact structures on a lens space as rotation-number vectors.

With expansion coefficients (a1, ..., an), the tight structures on
L(p, q) are indexed by integer vectors r with |r_i| <= a_i - 2 and
r_i = a_i mod 2, one slot per coefficient.  The slot for a_i has
a_i - 1 admissible values, so there are prod(a_i - 1) structures, and
that product never exceeds p.

The residue sum(r_i mu_i) mod p locates the first Chern class of the
structure in H^2, and it vanishes exactly for the zero vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .contfrac import CFExpansion, as_expansion, cf_invariants
from .errors import InvalidInputError, ResultTooLargeError

DEFAULT_STRUCTURE_CAP = 1_000_000


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
        coeffs = as_expansion(self.coeffs)
        r = tuple(self.r)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "r", r)
        if len(r) != len(coeffs):
            raise InvalidInputError(
                f"rotation vector has {len(r)} slots, expansion has {len(coeffs)}"
            )
        for a, ri in zip(coeffs, r):
            if not isinstance(ri, int):
                raise InvalidInputError(f"rotation numbers must be integers, got {ri!r}")
            if abs(ri) > a - 2 or (ri - a) % 2 != 0:
                raise InvalidInputError(
                    f"rotation number {ri} not admissible for coefficient {a}"
                )

    @property
    def is_zero(self) -> bool:
        return all(ri == 0 for ri in self.r)


@dataclass(frozen=True)
class ChernResidue:
    """The value sum(r_i mu_i) mod p, normalized to 0 <= value < p."""

    value: int
    p: int

    @property
    def is_zero(self) -> bool:
        return self.value == 0


def slot_values(a: int) -> tuple[int, ...]:
    """Admissible rotation numbers for one coefficient, ascending."""
    if not isinstance(a, int) or a < 2:
        raise InvalidInputError(f"coefficients must be integers >= 2, got {a}")
    return tuple(range(-(a - 2), a - 1, 2))


def structure_count(coeffs: CFExpansion | Iterable[int]) -> int:
    """Number of tight structures, prod(a_i - 1)."""
    exp = as_expansion(coeffs)
    count = 1
    for a in exp:
        count *= a - 1
    return count


def enumerate_structures(
    coeffs: CFExpansion | Iterable[int], cap: int = DEFAULT_STRUCTURE_CAP
) -> list[RotationVector]:
    """All tight structures on the lens space of the expansion.

    Deterministic order: slots vary rightmost-fastest, each slot ascending.
    Raises ResultTooLargeError when prod(a_i - 1) exceeds cap.
    """
    exp = as_expansion(coeffs)
    count = structure_count(exp)
    if count > cap:
        raise ResultTooLargeError(
            f"{count} structures exceed cap {cap} for coefficients {exp.coeffs}"
        )
    slots = (slot_values(a) for a in exp)
    return [RotationVector(exp, r) for r in itertools.product(*slots)]


def zero_vector(coeffs: CFExpansion | Iterable[int]) -> RotationVector:
    """The zero rotation vector; only admissible when every a_i is even."""
    exp = as_expansion(coeffs)
    return RotationVector(exp, (0,) * len(exp))


def chern_residue(rot: RotationVector) -> ChernResidue:
    """sum(r_i mu_i) mod p for the structure's vector."""
    inv = cf_invariants(rot.coeffs)
    total = sum(ri * mi for ri, mi in zip(rot.r, inv.mu))
    return ChernResidue(value=total % inv.p, p=inv.p)


def classify_structure(rot: RotationVector) -> TightClass:
    """Universally tight for the two extremal vectors, else virtually
    overtwisted."""
    top = tuple(a - 2 for a in rot.coeffs)
    bottom = tuple(-(a - 2) for a in rot.coeffs)
    if rot.r == top or rot.r == bottom:
        return TightClass.UNIVERSALLY_TIGHT
    return TightClass.VIRTUALLY_OVERTWISTED
