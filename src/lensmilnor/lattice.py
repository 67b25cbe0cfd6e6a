"""Positive definite tridiagonal lattices and their integral isometry groups.

The lattice attached to an expansion (a1, ..., an) has Gram matrix M with
M_ii = a_i, M_i,i+1 = M_i+1,i = -1, zero elsewhere.  Its leading minors
obey m_i = a_i m_{i-1} - m_{i-2}, are strictly increasing, and m_n = p,
so M is positive definite and O_Z(M) = {A : A M A^T = M} is finite.

Enumeration strategy: an isometry row i must be a vector of norm M_ii,
and its pairings with earlier rows must reproduce the Gram entries.  Rows
are filled depth-first over the short-vector lists.  Short vectors come
from the exact rational decomposition of the quadratic form (the form is
rewritten as a weighted sum of squares, then coordinates are enumerated
from the last one down).  The interval endpoints per coordinate are
located with floats, widened by one unit on each side, and every
candidate is accepted or rejected by an exact rational comparison, so
float rounding can only cost a few wasted candidates, never a vector.

Canonical order, used everywhere vectors or matrices are listed: each
coordinate is ranked by magnitude with the negative value first
(0 < -1 < 1 < -2 < 2 < ...), vectors compare lexicographically by that
rank, and matrices compare row-major.  The depth-first search respects
it, so groups are emitted already sorted and "first hit" means
"canonically least".

Caps: a single cap bounds both the number of stored elements and the
number of candidate rows examined by the search.  Diagonals containing
long runs of 2s have factorially many partial row assignments even when
the group itself is tiny, so an element cap alone could not keep queries
from hanging; exhausting either bound reports complete=False.

Those same runs of 2s supply trace -1 elements directly: each 2 is a
norm-2 root, a run of k of them generates the Weyl group W(A_k), and
weyl_witness builds a signed product of Coxeter elements of such runs
in O(n) column updates, with no short vectors and no search.  It only
ever proves existence, and every matrix it returns is checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .contfrac import CFExpansion, as_expansion
from .errors import InvalidInputError, InvalidNormError

DEFAULT_GROUP_CAP = 1_000_000


def canonical_vector_key(v: Iterable[int]) -> tuple[tuple[int, bool], ...]:
    """Sort key realizing the canonical coordinate order 0 < -1 < 1 < -2 < 2."""
    return tuple((abs(x), x > 0) for x in v)


@dataclass(frozen=True)
class IntersectionLattice:
    """Tridiagonal Gram data: diagonal entries >= 2, off-diagonal -1."""

    diag: tuple[int, ...]

    def __post_init__(self) -> None:
        diag = tuple(self.diag)
        object.__setattr__(self, "diag", diag)
        if not diag:
            raise InvalidInputError("lattice needs at least one diagonal entry")
        for a in diag:
            if not isinstance(a, int) or a < 2:
                raise InvalidInputError(f"diagonal entries must be integers >= 2, got {a}")

    @property
    def n(self) -> int:
        return len(self.diag)

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = self.diag[i]
            if i > 0:
                row[i - 1] = -1
            if i + 1 < n:
                row[i + 1] = -1
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def minors(self) -> tuple[int, ...]:
        """Leading principal minors m_1..m_n; strictly increasing, m_n = det."""
        prev2, prev = 0, 1
        out = []
        for a in self.diag:
            prev2, prev = prev, a * prev - prev2
            out.append(prev)
        return tuple(out)

    @property
    def det(self) -> int:
        return self.minors[-1]

    def mrow(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix-vector product M v, using tridiagonality."""
        n = self.n
        d = self.diag
        return tuple(
            d[k] * v[k]
            - (v[k - 1] if k > 0 else 0)
            - (v[k + 1] if k + 1 < n else 0)
            for k in range(n)
        )

    def norm(self, v: tuple[int, ...]) -> int:
        """v M v^T."""
        return sum(x * y for x, y in zip(v, self.mrow(v)))

    def pairing(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        """u M v^T."""
        return sum(x * y for x, y in zip(u, self.mrow(v)))

    def is_isometry(self, iso: "Isometry") -> bool:
        """Exact check of A M A^T = M."""
        if iso.n != self.n:
            return False
        mrows = [self.mrow(r) for r in iso.rows]
        for i, ri in enumerate(iso.rows):
            for j in range(i + 1):
                want = self.matrix[i][j]
                if sum(x * y for x, y in zip(ri, mrows[j])) != want:
                    return False
        return True


def gram(coeffs: CFExpansion | Iterable[int]) -> IntersectionLattice:
    """Lattice of an expansion: diagonal = the coefficients."""
    exp = as_expansion(coeffs)
    return IntersectionLattice(exp.coeffs)


@dataclass(frozen=True)
class Isometry:
    """A square integer matrix, stored as a tuple of row tuples.

    Instances produced by the group enumeration satisfy A M A^T = M (and
    hence det = +-1); the container itself only enforces shape.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InvalidInputError("isometry must be a nonempty square matrix")
        for r in rows:
            for x in r:
                if not isinstance(x, int):
                    raise InvalidInputError(f"matrix entries must be integers, got {x!r}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def flatten(self) -> tuple[int, ...]:
        """Row-major flattening, the serialization form."""
        return tuple(x for row in self.rows for x in row)

    def __neg__(self) -> "Isometry":
        return Isometry(tuple(tuple(-x for x in r) for r in self.rows))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if self.n != other.n:
            raise InvalidInputError("size mismatch in matrix product")
        cols = tuple(zip(*other.rows))
        return Isometry(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    @staticmethod
    def identity(n: int) -> "Isometry":
        return Isometry(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def reversal(n: int) -> "Isometry":
        """The basis-reversing antidiagonal matrix rho."""
        return Isometry(tuple(tuple(int(i + j == n - 1) for j in range(n)) for i in range(n)))


def canonical_matrix_key(iso: Isometry) -> tuple[tuple[int, bool], ...]:
    """Row-major canonical key for whole matrices."""
    return canonical_vector_key(iso.flatten())


# Short-vector sets kept across calls, keyed on (diagonal, norm).  A scan
# searches each diagonal about once, so only the sets of the current
# lattice are reused: k distinct diagonal entries need p >= k!, so 16
# covers every lattice with p < 17!, and a long scan holds no more.
_SHORT_VECTOR_CACHE_SIZE = 16


@lru_cache(maxsize=_SHORT_VECTOR_CACHE_SIZE)
def _short_vectors_cached(diag: tuple[int, ...], target: int) -> tuple[tuple[int, ...], ...]:
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


def short_vectors(lattice: IntersectionLattice, norm: int) -> list[tuple[int, ...]]:
    """All vectors v with v M v^T equal to the given norm, both signs,
    canonically ordered.  norm 0 gives the empty list (the zero vector is
    excluded); negative norms are rejected."""
    if not isinstance(norm, int):
        raise InvalidNormError(f"norm must be an integer, got {norm!r}")
    if norm < 0:
        raise InvalidNormError(f"norm must be nonnegative, got {norm}")
    return [tuple(v) for v in _short_vectors_cached(lattice.diag, norm)]


class _SearchCapped(Exception):
    """Internal: the row search exhausted its work budget."""


class _Budget:
    __slots__ = ("steps",)

    def __init__(self, steps: int):
        self.steps = steps


def _iter_isometries(lattice: IntersectionLattice, budget: _Budget) -> Iterator[Isometry]:
    """Yield every element of O_Z(M) in canonical order.

    Charges one budget step per candidate row examined; raises
    _SearchCapped when the budget runs out.
    """
    n = lattice.n
    diag = lattice.diag
    gram_rows = lattice.matrix
    base: dict[int, tuple[tuple[int, ...], ...]] = {}
    sparse: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for a in sorted(set(diag)):
        vecs = _short_vectors_cached(diag, a)
        base[a] = vecs
        sparse[a] = [tuple((i, xv) for i, xv in enumerate(v) if xv) for v in vecs]

    rows: list[tuple[int, ...]] = []
    mrows: list[tuple[int, ...]] = []

    def place(d: int) -> Iterator[Isometry]:
        if d == n:
            yield Isometry(tuple(rows))
            return
        want = gram_rows[d]
        for v, sv in zip(base[diag[d]], sparse[diag[d]]):
            budget.steps -= 1
            if budget.steps < 0:
                raise _SearchCapped
            ok = True
            # Newest constraint first: adjacency (-1) kills most candidates.
            for j in range(d - 1, -1, -1):
                mr = mrows[j]
                s = 0
                for i, xv in sv:
                    s += xv * mr[i]
                if s != want[j]:
                    ok = False
                    break
            if ok:
                rows.append(v)
                mrows.append(lattice.mrow(v))
                yield from place(d + 1)
                rows.pop()
                mrows.pop()

    yield from place(0)


@dataclass(frozen=True)
class IsometryGroup:
    """Elements of O_Z(M) in canonical order; complete=False when capped."""

    elements: tuple[Isometry, ...]
    complete: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Isometry]:
        return iter(self.elements)

    def traces(self) -> tuple[int, ...]:
        return tuple(sorted(e.trace for e in self.elements))


@dataclass(frozen=True)
class TraceSearch:
    """Outcome of a trace query against O_Z(M).

    witness:  the canonically least element with the requested trace, or
              None.
    complete: True when the answer is definitive (witness found, or the
              whole group was enumerated without one).
    traces:   the full trace multiset, only when the group was enumerated
              completely and no witness exists; len(traces) is then the
              group order.
    """

    witness: Isometry | None
    complete: bool
    traces: tuple[int, ...] | None


def orthogonal_group(lattice: IntersectionLattice, cap: int = DEFAULT_GROUP_CAP) -> IsometryGroup:
    """Enumerate O_Z(M) = {A : A M A^T = M}, canonically ordered.

    Stops with complete=False once more than cap elements exist or the
    search examines more than cap candidate rows.
    """
    if cap < 1:
        raise InvalidInputError(f"cap must be positive, got {cap}")
    elements: list[Isometry] = []
    budget = _Budget(cap)
    complete = True
    try:
        for iso in _iter_isometries(lattice, budget):
            if len(elements) >= cap:
                complete = False
                break
            elements.append(iso)
    except _SearchCapped:
        complete = False
    return IsometryGroup(tuple(elements), complete)


def find_isometry_with_trace(
    lattice: IntersectionLattice, trace: int, cap: int = DEFAULT_GROUP_CAP
) -> TraceSearch:
    """Search O_Z(M) for an element of the given trace.

    Short-circuits at the first (canonically least) witness.  When the
    group is exhausted without one, reports the full trace multiset as a
    certificate of absence.  Exceeding the cap yields the indeterminate
    answer (witness None, complete False).
    """
    if cap < 1:
        raise InvalidInputError(f"cap must be positive, got {cap}")
    budget = _Budget(cap)
    seen: list[int] = []
    try:
        for iso in _iter_isometries(lattice, budget):
            if iso.trace == trace:
                return TraceSearch(witness=iso, complete=True, traces=None)
            if len(seen) >= cap:
                return TraceSearch(witness=None, complete=False, traces=None)
            seen.append(iso.trace)
    except _SearchCapped:
        return TraceSearch(witness=None, complete=False, traces=None)
    return TraceSearch(witness=None, complete=True, traces=tuple(sorted(seen)))


def _runs_of_twos(diag: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, length) of every maximal run of consecutive 2s."""
    runs: list[tuple[int, int]] = []
    for i, a in enumerate(diag):
        if a != 2:
            continue
        if runs and runs[-1][0] + runs[-1][1] == i:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((i, 1))
    return runs


def _chain_lengths(runs: list[tuple[int, int]], target: int) -> list[int] | None:
    """Chain length m_j per run (0 for no chain, else 1 <= m_j <= k_j)
    with sum(m_j + 1 over the chains) == target, preferring long chains
    in early runs; None when no choice reaches target."""
    # reachable[j]: the sums the runs j.. can make.
    reachable: list[set[int]] = [{0}]
    for _, k in reversed(runs):
        later = reachable[-1]
        reachable.append(
            later | {s + m + 1 for s in later for m in range(1, k + 1) if s + m + 1 <= target}
        )
    reachable.reverse()
    if target not in reachable[0]:
        return None
    lengths = []
    for (_, k), later in zip(runs, reachable[1:]):
        m = next((m for m in range(k, 0, -1) if target - m - 1 in later), 0)
        lengths.append(m)
        if m:
            target -= m + 1
    return lengths


def weyl_witness(lattice: IntersectionLattice) -> Isometry | None:
    """A trace -1 isometry from the Weyl group of the runs of 2s, or None.

    Each diagonal 2 is a root e_i of norm 2 whose reflection
    s_i(x) = x - (x . e_i) e_i is integral, so a maximal run of k 2s
    generates W(A_k) = S_{k+1}.  A chain of m consecutive simple
    reflections is a Coxeter element of A_m: trace -1 on the span of its
    roots, identity on the orthogonal complement.  Roots of different
    runs are orthogonal, so with at most one chain of m_j <= k_j
    reflections per run the product sigma has trace n - sum(m_j + 1):
    a sum of n + 1 makes sigma a witness, a sum of n - 1 makes -sigma
    one.  Each reflection changes one column of the matrix.  The result
    is returned only once it is checked exactly, so this can prove
    existence but never absence.
    """
    n = lattice.n
    runs = _runs_of_twos(lattice.diag)
    for target, sign in ((n - 1, -1), (n + 1, 1)):
        lengths = _chain_lengths(runs, target)
        if lengths is None:
            continue
        a = [[sign * int(i == j) for j in range(n)] for i in range(n)]
        for (start, _), m in zip(runs, lengths):
            for k in range(start, start + m):
                # A <- A R_k: s_k sends e_k to -e_k and e_{k+-1} to
                # e_{k+-1} + e_k, so R_k is the identity but for column
                # k, which holds -1 at k and 1 at k-1 and k+1.
                for row in a:
                    left = row[k - 1] if k else 0
                    right = row[k + 1] if k + 1 < n else 0
                    row[k] = left + right - row[k]
        iso = Isometry(tuple(tuple(row) for row in a))
        if iso.trace == -1 and lattice.is_isometry(iso):
            return iso
    return None


class GroupShape(Enum):
    """Predicted shape of O_Z(M) for diagonals with every entry >= 3:
    sign pair {+-id} when the diagonal is not palindromic, sign pair plus
    reversal {+-id, +-rho} when it is."""

    SIGNS_ONLY = "signs_only"
    SIGNS_AND_REVERSAL = "signs_and_reversal"

    @property
    def predicted_order(self) -> int:
        return 2 if self is GroupShape.SIGNS_ONLY else 4

    def predicted_elements(self, n: int) -> tuple[Isometry, ...]:
        """The predicted group, built directly and canonically sorted."""
        ident = Isometry.identity(n)
        elems = [ident, -ident]
        if self is GroupShape.SIGNS_AND_REVERSAL:
            rho = Isometry.reversal(n)
            elems += [rho, -rho]
        return tuple(sorted(elems, key=canonical_matrix_key))


def gerstein_prediction(lattice: IntersectionLattice) -> GroupShape | None:
    """Shape of O_Z(M) when rank >= 2 and every diagonal entry >= 3;
    None when that hypothesis fails (2s in the diagonal allow much larger
    groups)."""
    if lattice.n < 2 or min(lattice.diag) < 3:
        return None
    if lattice.diag == lattice.diag[::-1]:
        return GroupShape.SIGNS_AND_REVERSAL
    return GroupShape.SIGNS_ONLY
