"""Negative-regular continued fractions and their derived integer sequences.

Every fraction p/q with 0 < q < p and gcd(p, q) = 1 has a unique expansion

    p/q = a1 - 1/(a2 - 1/(... - 1/an)),   all ai >= 2,

obtained by repeated ceiling division.  The coefficient list is the
standard plumbing description of the lens space L(p, q).  One
recurrence, the continuants K_i = a_i K_{i-1} - K_{i-2}, gives the rest:
the Chern residue reads the weight sequence mu and p, the term one step
past the last weight; the continuants of the reversed coefficients fold
the expansion back to p/q; and the lattice's minors are the continuants
of the reversed diagonal.

Per-pair work lives on the expansion object: a CFExpansion computes its
invariants, its extremal rotation sum and the fraction it folds back to
once, on first use, and keeps them.  enumerate_structures shares one
expansion among all the structures of a pair, so the census computes
them once per pair.
expand builds its expansion without re-checking the coefficients it has
just produced (ceiling division gives each a_i >= 2) and keeps the
LensSpace it validated as the fraction, so nothing folds p/q back.

All arithmetic is exact (Python integers), so there is no overflow regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InvalidInputError


@dataclass(frozen=True)
class LensSpace:
    """A coprime pair (p, q) with 0 < q < p naming the lens space L(p, q)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        # bool is an int subclass, but True and False name no lens space.
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (self.p, self.q)):
            raise InvalidInputError("p and q must be integers")
        if not 0 < self.q < self.p:
            raise InvalidInputError(f"need 0 < q < p, got p={self.p}, q={self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidInputError(f"p and q must be coprime, got p={self.p}, q={self.q}")


def continuants(coeffs: Iterable[int]) -> list[int]:
    """[K_0, K_1, ..., K_n] with K_0 = 1, K_{-1} = 0 and
    K_i = a_i K_{i-1} - K_{i-2}: the leading minors of the tridiagonal
    matrix with diagonal coeffs and -1 beside it.

    For an expansion of p/q they are the weights mu_1..mu_n and then p,
    with q mu_n = 1 mod p; for the reversed expansion they end in (q, p).
    """
    k = [1]
    prev, cur = 0, 1
    for a in coeffs:
        prev, cur = cur, a * cur - prev
        k.append(cur)
    return k


@dataclass(frozen=True)
class CFExpansion:
    """Coefficients (a1, ..., an) of a negative-regular continued fraction.

    Every coefficient is an integer >= 2 and the tuple is nonempty.
    invariants, extremal_sum and fraction are computed on first use and
    kept on the instance; they are not fields, so equality and the hash
    still see only the coefficients.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise InvalidInputError("expansion must have at least one coefficient")
        for a in coeffs:
            if not isinstance(a, int) or a < 2:
                raise InvalidInputError(f"coefficients must be integers >= 2, got {a}")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    @cached_property
    def invariants(self) -> CFInvariants:
        """Weights mu and p, the continuants K_0..K_{n-1} and K_n; see
        cf_invariants."""
        k = continuants(self.coeffs)
        return CFInvariants(tuple(k[:-1]), k[-1])

    @cached_property
    def extremal_sum(self) -> int:
        """sum(a_i - 2): the rotation sum of the extremal vector
        r = (a_i - 2), the largest |sum r_i| of any tight structure."""
        return sum(self.coeffs) - 2 * len(self.coeffs)

    @cached_property
    def fraction(self) -> LensSpace:
        """The fraction p/q the expansion represents, folded from the
        right: the inverse of expand.  p and q are the last two
        continuants of the reversed coefficients."""
        k = continuants(reversed(self.coeffs))
        return LensSpace(k[-1], k[-2])


def as_expansion(value: CFExpansion | Iterable[int]) -> CFExpansion:
    """Coerce a coefficient iterable to CFExpansion, validating it."""
    if isinstance(value, CFExpansion):
        return value
    return CFExpansion(tuple(value))


@dataclass(frozen=True)
class CFInvariants:
    """Weights of an expansion and the p they end in.

    mu: weights mu_1 = 1, mu_2 = a1, mu_{i+1} = a_i mu_i - mu_{i-1};
        strictly increasing.
    p:  the next term of the same recurrence, a_n mu_n - mu_{n-1}, the
        numerator of the fraction the expansion folds to.
    """

    mu: tuple[int, ...]
    p: int


def expand(p: int, q: int) -> CFExpansion:
    """Expansion of p/q with all coefficients >= 2, by ceiling division.

    Requires 0 < q < p coprime.  The expansion is unique; its length can
    reach p - 1 (for q = p - 1, a chain of 2s).
    """
    space = LensSpace(p, q)
    p, q = space.p, space.q
    coeffs = []
    while q:
        a = -(-p // q)
        coeffs.append(a)
        p, q = q, a * q - p
    # p > q > 0 at every step, so each a >= 2 and the coefficient check
    # is skipped; the validated pair is the fraction they fold back to,
    # kept where cached_property would keep it.
    exp = object.__new__(CFExpansion)
    exp.__dict__.update(coeffs=tuple(coeffs), fraction=space)
    return exp


def cf_invariants(coeffs: CFExpansion | Iterable[int]) -> CFInvariants:
    """Weights mu and p of an expansion.

    The test suite checks them against the signed minors Delta[i] of the
    linking matrix: Delta[i] = (-1)^i mu_{i+1} and |Delta[n]| = p.

    Computed once per expansion object: a CFExpansion returns its kept
    invariants, a plain iterable gets a fresh expansion and fresh ones.
    """
    return as_expansion(coeffs).invariants


def q_squared_is_one(p: int, q: int) -> bool:
    """Whether q^2 = 1 mod p.

    Holds exactly when the expansion of p/q is palindromic: reversing the
    expansion of p/q yields the expansion of p/q' with q q' = 1 mod p, so
    the expansion is its own reverse iff q is its own inverse mod p.
    """
    space = LensSpace(p, q)
    return (space.q * space.q - 1) % space.p == 0
