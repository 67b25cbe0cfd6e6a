"""Verification-only helpers: independent checks the library itself does
not need, used by the tests to re-derive what it asserts."""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from lensmilnor import (
    CFExpansion,
    IntersectionLattice,
    InvalidInputError,
    Isometry,
    IsometryGroup,
    LensSpace,
    ResultTooLargeError,
    RotationVector,
    TightClass,
    TraceSearch,
    as_expansion,
    cf_invariants,
    chern_residue,
    enumerate_structures,
    evaluate_one,
    expand,
)
from lensmilnor.errors import DEFAULT_CAP
from lensmilnor.lattice import _fincke_pohst


def slot_values(a: int) -> tuple[int, ...]:
    """Admissible rotation numbers for a coefficient a >= 2, ascending:
    the r with |r| <= a - 2 and r = a mod 2."""
    return tuple(r for r in range(-(a - 2), a - 1) if (r - a) % 2 == 0)


def signed_minors(coeffs: CFExpansion | Iterable[int]) -> tuple[int, ...]:
    """Delta[0], ..., Delta[n]: the leading principal minors of the
    linking matrix (diagonal -a_i, 1 beside it), by their own recurrence
    Delta[-1] = 0, Delta[0] = 1, Delta[i] = -a_i Delta[i-1] - Delta[i-2]."""
    delta = [0, 1]
    for a in as_expansion(coeffs):
        delta.append(-a * delta[-1] - delta[-2])
    return tuple(delta[1:])


def canonical_vector_key(v: Iterable[int]) -> tuple[tuple[int, bool], ...]:
    """Sort key realizing the canonical coordinate order 0 < -1 < 1 < -2 < 2."""
    return tuple((abs(x), x > 0) for x in v)


def canonical_matrix_key(iso: Isometry) -> tuple[tuple[int, bool], ...]:
    """Row-major canonical key for whole matrices."""
    return canonical_vector_key(iso.flatten())


def identity(n: int) -> Isometry:
    """The n x n identity matrix."""
    return Isometry(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def reversal(n: int) -> Isometry:
    """The basis-reversing antidiagonal matrix rho."""
    return Isometry(tuple(tuple(int(i + j == n - 1) for j in range(n)) for i in range(n)))


def negate(iso: Isometry) -> Isometry:
    """The matrix -iso."""
    return Isometry(tuple(tuple(-x for x in r) for r in iso.rows))


def matmul(a: Isometry, b: Isometry) -> Isometry:
    """The matrix product a b."""
    if a.n != b.n:
        raise InvalidInputError("size mismatch in matrix product")
    cols = tuple(zip(*b.rows))
    return Isometry(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.rows)
    )


def group_traces(group: IsometryGroup) -> tuple[int, ...]:
    """The sorted trace multiset of a group's elements."""
    return tuple(sorted(e.trace for e in group))


def dense_gram(diag: tuple[int, ...]) -> list[list[int]]:
    """M as a dense matrix: the diagonal, -1 next to it, 0 elsewhere."""
    n = len(diag)
    return [
        [diag[i] if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)
    ]


def pairing(m: list[list[int]], u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """u M v^T by a dense product, M given by dense_gram."""
    return sum(x * sum(mij * y for mij, y in zip(row, v)) for x, row in zip(u, m))


def norm(m: list[list[int]], v: tuple[int, ...]) -> int:
    """v M v^T by a dense product, M given by dense_gram."""
    return pairing(m, v, v)


@functools.cache
def _weyl_a_traces(k: int) -> frozenset[int]:
    """Traces of W(A_k) = S_{k+1} on the span of A_k's roots: the
    permutation module of S_{k+1} is A_k's span plus a line that every
    sigma fixes, so sigma has trace fix(sigma) - 1 there."""
    return frozenset(
        sum(i == j for i, j in enumerate(sigma)) - 1
        for sigma in itertools.permutations(range(k + 1))
    )


class GroupShape(NamedTuple):
    """Predicted O_Z(M) = +-W(R) x| <rho>, R the norm-2 roots, W(R) the
    product of S_{k+1} over the maximal runs of k 2s: weyl_order = |W(R)|,
    cosets the canonically sorted representatives of O_Z(M) / W(R), and
    order = weyl_order * len(cosets).  Gerstein's theorem (every entry
    >= 3) is the case weyl_order == 1, where cosets is the whole group."""

    runs: tuple[int, ...]
    weyl_order: int
    cosets: tuple[Isometry, ...]
    order: int

    @property
    def weyl_traces(self) -> frozenset[int]:
        """Every trace of an element of +-W(R), listed from permutations on
        access.  Runs span orthogonal A_k and W(R) fixes R^perp, of rank
        n - sum k, so a trace of W(R) is n - sum k plus one of W(A_k)'s
        per run; -W(R) has the same traces negated."""
        traces = {self.cosets[0].n - sum(self.runs)}
        for k in self.runs:
            traces = {t + s for t in traces for s in _weyl_a_traces(k)}
        return frozenset(traces | {-t for t in traces})


def group_shape(diag: tuple[int, ...]) -> GroupShape:
    """The predicted shape for any diagonal.  The cosets are {1} for [2],
    whose reflection is -1; {+-1, +-rho} when the diagonal is palindromic,
    n >= 2 and not all 2s; {+-1} otherwise."""
    n = len(diag)
    runs = tuple(len(tuple(run)) for a, run in itertools.groupby(diag) if a == 2)
    cosets = [identity(n)] if diag == (2,) else [identity(n), negate(identity(n))]
    if n >= 2 and diag == diag[::-1] and sum(runs) != n:
        cosets += [reversal(n), negate(reversal(n))]
    weyl_order = math.prod(math.factorial(k + 1) for k in runs)
    cosets = tuple(sorted(cosets, key=canonical_matrix_key))
    return GroupShape(runs, weyl_order, cosets, weyl_order * len(cosets))


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
    sum_below_det = abs(total) < abs(signed_minors(a)[-1])
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


def check_c1_theorem(coeffs: CFExpansion | Iterable[int], cap: int = DEFAULT_CAP) -> bool:
    """Verify on one expansion that the residue vanishes only for r = 0.

    Exhausts all structures (capped) and checks residue == 0 iff r == 0.
    Returns True when the equivalence holds for every structure.
    """
    exp = as_expansion(coeffs)
    count = math.prod(a - 1 for a in exp)
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


def is_palindromic(coeffs: CFExpansion | Iterable[int]) -> bool:
    """Whether the coefficient tuple reads the same in both directions."""
    exp = as_expansion(coeffs)
    return exp.coeffs == exp.coeffs[::-1]


def _folded_numerator(coeffs: tuple[int, ...]) -> int:
    """Numerator of [a_1, ..., a_k], folded from the right."""
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        num, den = a * num - den, num
    return num


def per_pair_cache_mismatches(p_max: int) -> list[str]:
    """Every coprime (p, q) with p <= p_max whose shared expansion keeps a
    wrong value.

    expand skips CFExpansion's coefficient check and keeps the LensSpace
    it validated as the fraction, so its expansion must equal, hash and
    repr like CFExpansion(tuple(coeffs)) built through the check, and
    keep LensSpace(p, q) from the start, the same object on every read.
    For each pair the first and last structure that enumerate_structures
    yields then go through evaluate_one(theorem_only=True), so the
    expansion they share has its invariants and fraction in use.  The kept invariants
    must equal a fresh computation from the plain coefficient tuple, and
    their weights the numerators of the prefix fractions folded from the
    right (mu_{i+1} is the numerator of [a_1, ..., a_i]); the kept
    fraction must be (p, q).
    """
    bad = []
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            full = CFExpansion(tuple(exp.coeffs))
            if exp != full or hash(exp) != hash(full) or repr(exp) != repr(full):
                bad.append(f"{p}/{q}: expanded {exp!r}, validated {full!r}")
            if vars(exp).get("fraction") != LensSpace(p, q):
                bad.append(f"{p}/{q}: expand did not keep the fraction it validated")
            if exp.fraction is not exp.fraction:
                bad.append(f"{p}/{q}: fraction rebuilt on a later read")
            rots = list(enumerate_structures(exp))
            for rot in (rots[0], rots[-1]):
                if rot.coeffs is not exp:
                    bad.append(f"{p}/{q}: a structure does not share the expansion")
                evaluate_one(p, q, rot, theorem_only=True)
            kept = cf_invariants(exp)
            a = exp.coeffs
            folded = (1,) + tuple(_folded_numerator(a[:i]) for i in range(1, len(a)))
            if kept is not cf_invariants(exp):
                bad.append(f"{p}/{q}: invariants recomputed")
            if kept != cf_invariants(tuple(a)) or kept.mu != folded or kept.p != p:
                bad.append(f"{p}/{q}: kept invariants {kept} differ from a fresh computation")
            if exp.fraction != LensSpace(p, q):
                bad.append(f"{p}/{q}: kept fraction {exp.fraction}")
    return bad


def enumerated_structure_mismatches(p_max: int) -> list[str]:
    """Every tight structure on L(p, q) with p <= p_max whose vector from
    enumerate_structures, or its residue, differs from a fresh one.

    enumerate_structures skips the slot check, so each of its vectors
    must equal RotationVector(exp, r) built through full validation, in
    equality, hash and repr, once its residue has been read.  The residue
    must be the int sum(r_i mu_i) mod p with mu from a fresh expansion of
    the plain coefficient tuple.
    """
    bad = []
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            mu = cf_invariants(tuple(exp.coeffs)).mu
            for rot in enumerate_structures(exp):
                residue = chern_residue(rot)
                fresh = sum(ri * mi for ri, mi in zip(rot.r, mu)) % p
                if type(residue) is not int or residue != fresh:
                    bad.append(f"{p}/{q} r={rot.r}: residue {residue!r}, fresh {fresh}")
                full = RotationVector(exp, rot.r)
                if (
                    type(rot) is not RotationVector
                    or rot != full
                    or hash(rot) != hash(full)
                    or repr(rot) != repr(full)
                ):
                    bad.append(f"{p}/{q} r={rot.r}: enumerated {rot!r}, validated {full!r}")
    return bad


def extremal_class(rot: RotationVector) -> TightClass:
    """The tight class by its definition: universally tight exactly at
    the two extremal vectors r = +-(a_i - 2)."""
    top = tuple(a - 2 for a in rot.coeffs)
    bottom = tuple(-x for x in top)
    if rot.r in (top, bottom):
        return TightClass.UNIVERSALLY_TIGHT
    return TightClass.VIRTUALLY_OVERTWISTED


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
    m = dense_gram(diag)
    a = iso.rows
    if len(a) != n:
        return False
    am = [[sum(a[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return all(
        sum(am[i][k] * a[j][k] for k in range(n)) == m[i][j] for i in range(n) for j in range(n)
    )


def short_vectors_rational(diag: tuple[int, ...], target: int) -> tuple[tuple[int, ...], ...]:
    """Vectors of norm target by a dense rational sum-of-squares
    decomposition, coordinates enumerated from the last one down, then
    sorted canonically: an enumeration independent of the library's
    integer recursion."""
    n = len(diag)
    # Rational sum-of-squares decomposition: after the elimination below,
    # Q(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2.
    q: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = Fraction(diag[i])
        if i + 1 < n:
            q[i][i + 1] = Fraction(-1)
            q[i + 1][i] = Fraction(-1)
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    # Tridiagonal input keeps the decomposition bidiagonal; record the
    # nonzero columns so the inner products below stay O(1) per level.
    cols = [tuple(j for j in range(i + 1, n) if q[i][j] != 0) for i in range(n)]

    results: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction) -> None:
        u = Fraction(0)
        for j in cols[i]:
            if x[j]:
                u += q[i][j] * x[j]
        # |x_i + u| <= sqrt(remaining / q[i][i]); float window +-1, exact filter.
        bound = math.sqrt(float(remaining / q[i][i]))
        uf = float(u)
        lo = math.floor(-bound - uf) - 1
        hi = math.ceil(bound - uf) + 1
        for xi in range(lo, hi + 1):
            term = q[i][i] * (xi + u) ** 2
            if term > remaining:
                continue
            x[i] = xi
            if i == 0:
                if term == remaining:
                    v = tuple(x)
                    if any(v):
                        results.append(v)
            else:
                descend(i - 1, remaining - term)
        x[i] = 0

    if target > 0:
        descend(n - 1, Fraction(target))
    return tuple(sorted(results, key=canonical_vector_key))


def scanned_isometries(
    lattice: IntersectionLattice, cap: int
) -> Iterator[tuple[int, Isometry | None]]:
    """The row search with no counted walk: every depth reads its
    candidates one at a time from the short-vector stream, the last one
    too.  The oracle for the library's search.

    Yields (steps charged so far, element) per element, then (steps
    charged in all, None) once the group is exhausted; stops silently
    once more than cap steps are needed.  An element comes within any
    cap at least its count, and the search completes within any cap at
    least the final count, so one run answers every smaller cap.
    """
    n = lattice.n
    diag = lattice.diag
    streams = {a: ([], _fincke_pohst(diag, a)) for a in set(diag)}

    rows: list = [None] * n
    mrows: list = [None] * n
    resume = [0] * n
    used = 0
    d = 0
    while d >= 0:
        vecs, source = streams[diag[d]]
        adjacent = mrows[d - 1] if d else ()
        older = mrows[d - 2 :: -1] if d > 1 else ()
        k = resume[d]
        while True:
            if k < len(vecs):
                v = vecs[k]
            else:
                v = next(source, None)
                if v is None:
                    break
                vecs.append(v)
            k += 1
            used += 1
            if used > cap:
                return
            if d:
                s = 0
                for i, y in adjacent:
                    s += v[i] * y
                if s != -1:
                    continue
                s = 0
                for mr in older:
                    for i, y in mr:
                        s += v[i] * y
                    if s:
                        break
                if s:
                    continue
            break
        if v is None:
            d -= 1
            continue
        resume[d] = k
        rows[d] = v
        if d + 1 == n:
            yield used, Isometry(tuple(rows))
        else:
            mrows[d] = lattice.mrow(v)
            d += 1
            resume[d] = 0
    yield used, None


def scanned_answers(
    lattice: IntersectionLattice, caps: Iterable[int], trace: int
) -> dict[int, tuple[IsometryGroup, TraceSearch]]:
    """(orthogonal_group(lattice, cap), find_isometry_with_trace(lattice,
    trace, cap)) for each cap, from one run of the scan-only search."""
    caps = sorted(caps)
    log = list(scanned_isometries(lattice, caps[-1]))
    total = log.pop()[0] if log and log[-1][1] is None else None
    answers = {}
    for cap in caps:
        elements = tuple(iso for used, iso in log if used <= cap)
        complete = total is not None and total <= cap
        witness = next((iso for iso in elements if iso.trace == trace), None)
        if witness is not None:
            search = TraceSearch(witness=witness, complete=True, traces=None)
        elif complete:
            histogram = Counter(iso.trace for iso in elements)
            search = TraceSearch(None, True, tuple(sorted(histogram.items())))
        else:
            search = TraceSearch(None, False, None)
        answers[cap] = (IsometryGroup(elements, complete), search)
    return answers
