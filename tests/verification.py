"""Verification-only helpers: independent checks the library itself does
not need, used by the tests to re-derive what it asserts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from lensmilnor import (
    CFExpansion,
    Isometry,
    ResultTooLargeError,
    RotationVector,
    as_expansion,
    cf_invariants,
    slot_values,
    structure_count,
)
from lensmilnor.contact import DEFAULT_STRUCTURE_CAP


@dataclass(frozen=True)
class BoundReport:
    """The four inequalities that force the residue to pin down r.

    sum_below_det:        |sum r_i mu_i| < |det|; a vanishing residue
                          then forces the sum itself to vanish.
    tail_weight_grows:    a_n mu_n - a_{n-1} mu_{n-1} > 0 (vacuous n = 1).
    last_dominates_prev:  |r_n mu_n| > |r_{n-1} mu_{n-1}| when r_n != 0
                          (vacuous when r_n = 0 or n = 1).
    last_dominates_rest:  |r_n mu_n| > |sum_{i<n} r_i mu_i| when r_n != 0
                          (vacuous when r_n = 0).
    """

    sum_below_det: bool
    tail_weight_grows: bool
    last_dominates_prev: bool
    last_dominates_rest: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.sum_below_det
            and self.tail_weight_grows
            and self.last_dominates_prev
            and self.last_dominates_rest
        )


def lemma_bounds(rot: RotationVector) -> BoundReport:
    """Evaluate the four domination inequalities for one structure."""
    inv = cf_invariants(rot.coeffs)
    a = rot.coeffs.coeffs
    r = rot.r
    mu = inv.mu
    n = len(a)

    total = sum(ri * mi for ri, mi in zip(r, mu))
    sum_below_det = abs(total) < abs(inv.det)
    tail_weight_grows = n == 1 or a[-1] * mu[-1] - a[-2] * mu[-2] > 0
    if r[-1] == 0:
        last_dominates_prev = True
        last_dominates_rest = True
    else:
        last = abs(r[-1] * mu[-1])
        last_dominates_prev = n == 1 or last > abs(r[-2] * mu[-2])
        last_dominates_rest = last > abs(total - r[-1] * mu[-1])

    return BoundReport(
        sum_below_det=sum_below_det,
        tail_weight_grows=tail_weight_grows,
        last_dominates_prev=last_dominates_prev,
        last_dominates_rest=last_dominates_rest,
    )


def check_c1_theorem(coeffs: CFExpansion | Iterable[int], cap: int = DEFAULT_STRUCTURE_CAP) -> bool:
    """Verify on one expansion that the residue vanishes only for r = 0.

    Exhausts all structures (capped) and checks residue == 0 iff r == 0.
    Returns True when the equivalence holds for every structure.
    """
    exp = as_expansion(coeffs)
    count = structure_count(exp)
    if count > cap:
        raise ResultTooLargeError(
            f"{count} structures exceed cap {cap} for coefficients {exp.coeffs}"
        )
    inv = cf_invariants(exp)
    mu = inv.mu
    p = inv.p
    for r in itertools.product(*(slot_values(a) for a in exp)):
        total = 0
        zero = True
        for ri, mi in zip(r, mu):
            if ri:
                total += ri * mi
                zero = False
        if (total % p == 0) != zero:
            return False
    return True


def det(iso: Isometry) -> int:
    """Fraction-free exact determinant (Bareiss elimination)."""
    a = [list(r) for r in iso.rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_isometry_dense(diag: tuple[int, ...], iso: Isometry) -> bool:
    """A M A^T = M by dense integer products, with M built here from the
    diagonal (off-diagonal -1), not by the library's tridiagonal check."""
    n = len(diag)
    m = [[diag[i] if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    a = iso.rows
    if len(a) != n:
        return False
    am = [[sum(a[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return all(
        sum(am[i][k] * a[j][k] for k in range(n)) == m[i][j] for i in range(n) for j in range(n)
    )
