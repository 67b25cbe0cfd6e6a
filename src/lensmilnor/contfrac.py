"""Negative-regular continued fractions and their derived integer sequences.

Every fraction p/q with 0 < q < p and gcd(p, q) = 1 has a unique expansion

    p/q = a1 - 1/(a2 - 1/(... - 1/an)),   all ai >= 2,

obtained by repeated ceiling division.  The coefficient list is the
standard plumbing description of the lens space L(p, q).  The Chern
residue reads the weight sequence mu and p = |Delta[n]| from the signed
minor sequence Delta derived from it; the intersection-lattice layer
works from the coefficients alone and computes its own minors.

Per-pair work lives on the expansion object: a CFExpansion computes its
invariants and the fraction it folds back to once, on first use, and
keeps them.  enumerate_structures shares one expansion among all the
structures of a pair, so the census computes them once per pair.
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


@dataclass(frozen=True)
class CFExpansion:
    """Coefficients (a1, ..., an) of a negative-regular continued fraction.

    Every coefficient is an integer >= 2 and the tuple is nonempty.
    invariants and fraction are computed on first use and kept on the
    instance; they are not fields, so equality and the hash still see
    only the coefficients.
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

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    @cached_property
    def invariants(self) -> CFInvariants:
        """Weight and signed-minor sequences; see cf_invariants."""
        a = self.coeffs
        n = len(a)

        mu = [1]
        if n >= 2:
            mu.append(a[0])
            for i in range(2, n):
                mu.append(a[i - 1] * mu[-1] - mu[-2])

        delta = [0, 1]
        for i in range(n):
            delta.append(-a[i] * delta[-1] - delta[-2])

        det = delta[-1]
        return CFInvariants(mu=tuple(mu), delta=tuple(delta), det=det, p=abs(det))

    @cached_property
    def fraction(self) -> LensSpace:
        """The fraction p/q the expansion represents; see evaluate."""
        num, den = self.coeffs[-1], 1
        for a in reversed(self.coeffs[:-1]):
            num, den = a * num - den, num
        return LensSpace(num, den)


def as_expansion(value: CFExpansion | Iterable[int]) -> CFExpansion:
    """Coerce a coefficient iterable to CFExpansion, validating it."""
    if isinstance(value, CFExpansion):
        return value
    return CFExpansion(tuple(value))


@dataclass(frozen=True)
class CFInvariants:
    """Derived sequences of an expansion.

    mu:    weights mu_1 = 1, mu_2 = a1, mu_i = a_{i-1} mu_{i-1} - mu_{i-2};
           strictly increasing.
    delta: signed minors Delta[-1..n] stored left-padded, so delta[0] is
           Delta[-1] = 0, delta[1] is Delta[0] = 1, and delta[i+1] is
           Delta[i] = -a_i Delta[i-1] - Delta[i-2].
    det:   Delta[n], the determinant of the linking matrix; |det| = p.
    """

    mu: tuple[int, ...]
    delta: tuple[int, ...]
    det: int
    p: int

    def delta_at(self, i: int) -> int:
        """Delta[i] for -1 <= i <= n."""
        return self.delta[i + 1]


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


def evaluate(coeffs: CFExpansion | Iterable[int]) -> LensSpace:
    """Fold an expansion back to the fraction p/q it represents.

    Right-to-left: the tail [a_k, ..., a_n] evaluates to p'/q' and the
    next step maps it to (a_{k-1} p' - q') / p'.  Inverse of expand().
    """
    return as_expansion(coeffs).fraction


def cf_invariants(coeffs: CFExpansion | Iterable[int]) -> CFInvariants:
    """Weight and signed-minor sequences of an expansion.

    Identities maintained (and asserted in the test suite):
    |Delta[n]| = p, sign(Delta[i]) = (-1)^i for 0 <= i <= n, and
    Delta[i] = (-1)^i mu_{i+1} for 0 <= i <= n - 1.

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
