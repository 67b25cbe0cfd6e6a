"""Positive definite tridiagonal lattices and their integral isometry groups.

The lattice attached to an expansion (a1, ..., an) has Gram matrix M with
M_ii = a_i, M_i,i+1 = M_i+1,i = -1, zero elsewhere.  Its leading minors
obey m_i = a_i m_{i-1} - m_{i-2}, are strictly increasing, and m_n = p,
so M is positive definite and O_Z(M) = {A : A M A^T = M} is finite.

Enumeration strategy: an isometry row i must be a vector of norm M_ii,
and its pairings with earlier rows must reproduce the Gram entries.  Rows
are filled depth-first over the short vectors.  Short vectors come from
an integer Fincke-Pohst enumeration: the LDL^T factors of the
tridiagonal form are ratios of the leading minors of the reversed
diagonal (its contfrac.continuants), so the form is a weighted sum of
squares whose remainders, scaled by one minor, stay integers.
Coordinates are fixed from the first one on, each within exact bounds
from math.isqrt, and tried in canonical order, so the vectors come out
canonically sorted by construction.  No floats, fractions or sorting are
involved.  Norm 2 takes no descent:
Q(x) = sum (a_i - 2) x_i^2 + x_1^2 + x_n^2 + sum (x_i - x_i+1)^2, so its
vectors are +-(e_i + ... + e_j) inside one run of 2s, listed from the
runs that _runs_of_twos finds, the runs weyl_witness reads too.

The enumeration is a generator with an explicit stack of levels that
yields one vector at a time.  Each search keeps, per distinct diagonal
entry, the vectors read so far and the suspended generator.  A depth
that runs past the end pulls one more vector, so a search that stops
early, at a witness or at the cap, enumerates exactly the vectors it
read.  Each vector is kept once, as read, and a candidate is paired with
the placed rows through their images M v, kept as nonzero (index, value)
pairs: within a run of 2s, M (e_i + ... + e_j) telescopes to at most
four nonzeros.  All of it dies with the search; every lattice of a scan
is searched about once, so nothing is kept across calls.

A depth reads its list one candidate at a time only until it has read
it to its end under a given row above.  Whether a candidate pairs to -1
with the row above, the first test, depends only on that row v and the
depth's diagonal entry a, never on the rest of the prefix.  So one rule
holds for every placed row but the last: its vector keeps its image,
built once per search, and from its first placement on a scan under it
at depths 2..n - 2 notes the ranks where that pairing is -1 (a pairing
it computes anyway), and keeps them once it reaches the end of a's
list.  Later revisits under v jump from one kept rank to the next, test
only the older rows there, and are charged the candidates the scan would
have examined on the way; past the last kept rank, the rest of the list.
Only lists already read to their end are indexed, so no vector is
enumerated that the scan would not have read, and steps, elements, order
and cap point are the scan's.  Depth 1 notes nothing, as each vector is
row 0 at most once per search, and the last depth keeps its counted walk.

The last row is the exception.  Its n - 1 pairings with the placed rows
are all known, so at most two vectors pass, but a plain scan reads the
whole set to find them, on every visit: 10,952 norm-4 vectors for
[2^15, 4].  A Fincke-Pohst subtree (Math. Comp. 44, 1985) depends only
on its state (level, previous coordinate, scaled remainder), so the
search counts the last row's set instead.  Once the last depth has 512
vectors in its list, the search builds that set's tree in one pass:
level by level, each distinct state keeps its child states, and then,
leaves up, each state is sized by the sum of its children (134 states
for those 10,952 vectors).  The last depth then continues past the end
by a counted walk: a subtree is charged by its size, unvisited, when it
lies before the start rank or its prefix already breaks a pairing whose
support it fixes, and the walk descends only into the others.  The row
is charged the candidates the scan would have examined, so the steps,
elements and cap point are the scan's.

Canonical order, used everywhere vectors or matrices are listed: each
coordinate is ranked by magnitude with the negative value first
(0 < -1 < 1 < -2 < 2 < ...), vectors compare lexicographically by that
rank, and matrices compare row-major.  The depth-first search respects
it, so groups are emitted already sorted and "first hit" means
"canonically least".

Caps: a single cap bounds the candidate rows the search examines, and so
the elements too, as each ends with its own row at the last depth.  Long
runs of 2s have factorially many partial row assignments even when the
group is tiny, so an element cap alone could not keep queries from
hanging; exhausting the budget reports complete=False.

Those same runs of 2s supply trace -1 elements directly: each 2 is a
norm-2 root, a run of k of them generates the Weyl group W(A_k), and
weyl_witness builds a signed product of Coxeter elements of such runs
in O(n) column updates, with no short vectors and no search.  It only
ever proves existence, and every matrix it returns is checked exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator

from .contfrac import CFExpansion, as_expansion, continuants
from .errors import DEFAULT_CAP, InvalidInputError, check_cap, check_int


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

    def mrow(self, v: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """Matrix-vector product M v as its nonzero (index, value) pairs,
        using tridiagonality; v . M w is then sum(v[i] * y for i, y in
        mrow(w))."""
        if len(v) != len(self.diag):
            raise InvalidInputError(f"vector of length {len(v)} for a lattice of rank {self.n}")
        out = []
        left = 0
        for i, (a, x, right) in enumerate(zip(self.diag, v, (*v[1:], 0))):
            y = a * x - left - right
            if y:
                out.append((i, y))
            left = x
        return tuple(out)

    def is_isometry(self, iso: "Isometry") -> bool:
        """Exact check of A M A^T = M."""
        if iso.n != self.n:
            return False
        mrows = [self.mrow(r) for r in iso.rows]
        for i, ri in enumerate(iso.rows):
            for j in range(i + 1):
                want = self.diag[i] if j == i else -1 if j == i - 1 else 0
                if sum(ri[k] * y for k, y in mrows[j]) != want:
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
                if not isinstance(x, int) or isinstance(x, bool):
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


def _canonical_range(lo: int, hi: int) -> Iterable[int]:
    """The integers of [lo, hi] in canonical order 0, -1, 1, -2, 2, ..."""
    if lo >= 0:
        return range(lo, hi + 1)
    if hi <= 0:
        return range(hi, lo - 1, -1)
    out = [0]
    for k in range(1, max(hi, -lo) + 1):
        if -k >= lo:
            out.append(-k)
        if k <= hi:
            out.append(k)
    return out


def _runs_of_twos(diag: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, length) of every maximal run of consecutive 2s."""
    runs = []
    start = 0
    for a, run in groupby(diag):
        length = len(tuple(run))
        if a == 2:
            runs.append((start, length))
        start += length
    return runs


def _fincke_pohst(diag: tuple[int, ...], target: int) -> Iterator[tuple[int, ...]]:
    """Yield the vectors of norm target (> 0) in canonical order, one at
    a time, so a reader that stops early leaves the rest unenumerated.

    Depth-first over the coordinates, with one entry per open level on
    an explicit stack: the candidates left for x_i, and the two integers
    that turn a candidate into the remainder passed to level i + 1.
    Norm 2 is listed from the runs of 2s, with no descent: canonically
    the latest start first, then - before +, then the shortest first.
    """
    n = len(diag)
    if target == 2:
        for first, length in reversed(_runs_of_twos(diag)):
            stop = first + length
            for start in reversed(range(first, stop)):
                for sign in (-1, 1):
                    for end in range(start + 1, stop + 1):
                        yield (0,) * start + (sign,) * (end - start) + (0,) * (n - end)
        return
    m = continuants(diag[::-1])
    x = [0] * n
    todo: list = [None] * n
    bounds = [0] * n
    centres = [0] * n
    # m holds the leading minors of the reversed diagonal.  With y = x
    # reversed, the LDL^T form is
    #   Q(x) = sum_k (m[k] y_k - m[k-1] y_{k+1})^2 / (m[k] m[k-1]),
    # so level i fixes x_i = y_k with k = n - i, given x_{i-1} = y_{k+1}.
    # s = m[k] * R, R the norm left for the terms k..1.  s is an integer
    # (Schur complement): the terms above k sum to min over real y_1..y_k
    # of Q = Q_tail(y_>k) - y_{k+1}^2 (H_k^-1)_kk with (H_k^-1)_kk =
    # m[k-1] / m[k], H_k the head block.  So the division below is exact.
    # A positive target keeps the zero vector out (its remainder is the
    # target itself), and the canonical order per level makes the
    # depth-first output canonically sorted.
    i = 0
    s = m[n] * target
    while True:
        k = n - i
        mk = m[k]
        c = m[k - 1] * x[i - 1] if i else 0
        bound = m[k - 1] * s
        r = math.isqrt(bound)
        # t = mk x_i - c needs t^2 <= bound, i.e. |t| <= r.
        if k > 1:
            todo[i] = iter(_canonical_range(-((r - c) // mk), (c + r) // mk))
            bounds[i] = bound
            centres[i] = c
        else:
            # Last coordinate: only t = +-r with r^2 = bound leaves 0.
            if r * r == bound:
                ends = [(c + t) // mk for t in ((-r, r) if r else (0,)) if (c + t) % mk == 0]
                if len(ends) == 2 and -ends[0] > ends[1]:
                    ends.reverse()  # canonical: the smaller magnitude first
                for xi in ends:
                    x[i] = xi
                    yield tuple(x)
            i -= 1
        # Resume the deepest level that has a candidate left.
        while i >= 0:
            xi = next(todo[i], None)
            if xi is not None:
                break
            i -= 1
        else:
            return
        x[i] = xi
        mk = m[n - i]
        t = mk * xi - centres[i]
        s = (bounds[i] - t * t) // mk
        i += 1


def short_vectors(lattice: IntersectionLattice, norm: int) -> list[tuple[int, ...]]:
    """All vectors v with v M v^T equal to the given norm, both signs,
    canonically ordered.  norm 0 gives the empty list (the zero vector is
    excluded); negative norms are rejected."""
    check_int("norm", norm)
    if norm < 0:
        raise InvalidInputError(f"norm must be nonnegative, got {norm}")
    return list(_fincke_pohst(lattice.diag, norm)) if norm else []


class _CountedSet:
    """The vectors of norm target (> 0) in canonical order, ranked and
    counted instead of listed.

    A state (i, x_{i-1}, s) is a Fincke-Pohst subtree: the level, the
    coordinate before it and the scaled remainder.  The tree is built
    whole, once, level by level: children maps each distinct state of
    levels 0..n-1 to its child states in canonical order, and a vector
    ends in a leaf (n, x_{n-1}, 0).  Then, leaves up, sizes gives each
    state the number of vectors below it, 1 for a leaf.  Both live as
    long as the object, which a row search owns.
    """

    def __init__(self, diag: tuple[int, ...], target: int) -> None:
        n = self.n = len(diag)
        m = continuants(diag[::-1])
        self.root = (0, 0, m[n] * target)
        children: dict[tuple[int, int, int], list] = {}
        level = {self.root}
        for i in range(n):
            k = n - i
            mk = m[k]
            below: set[tuple[int, int, int]] = set()
            for state in level:
                _, xp, s = state
                c = m[k - 1] * xp
                bound = m[k - 1] * s
                r = math.isqrt(bound)
                kept = children[state] = []
                for xi in _canonical_range(-((r - c) // mk), (c + r) // mk):
                    t = mk * xi - c
                    child = (i + 1, xi, (bound - t * t) // mk)
                    if k > 1 or not child[2]:  # the last level keeps ends only
                        kept.append(child)
                below.update(kept)
            level = below
        sizes = dict.fromkeys(level, 1)
        for state, kept in reversed(children.items()):  # deepest level first
            sizes[state] = sum(map(sizes.__getitem__, kept))
        self.children = children
        self.sizes = sizes

    def first(
        self, start: int, pairings: Iterable[tuple[tuple[tuple[int, int], ...], int]]
    ) -> tuple[int, tuple[int, ...] | None]:
        """(rank, v) for the first vector v at rank >= start with
        v . w == want for every (M w as (index, value) pairs, want) in
        pairings; (total count, None) when no such vector exists.

        A pairing is fixed once the coordinates up to the last index of
        M w are.  A child is skipped by its size, without a visit, when
        it holds no vector, lies wholly before start or its prefix
        already breaks a fixed pairing; the walk descends only into the
        others, and returns at the first leaf it reaches.
        """
        n = self.n
        children = self.children
        sizes = self.sizes
        fixed: dict[int, list] = {}
        for terms, want in pairings:
            fixed.setdefault(terms[-1][0], []).append((terms, want))
        x = [0] * n
        todo: list = [None] * n
        todo[0] = iter(children[self.root])
        rank = 0
        i = 0
        while i >= 0:
            checks = fixed.get(i, ())
            for child in todo[i]:
                x[i] = child[1]
                size = sizes[child]
                if (
                    size
                    and rank + size > start
                    and all(sum(x[j] * y for j, y in terms) == want for terms, want in checks)
                ):
                    if i + 1 == n:
                        return rank, tuple(x)
                    break  # this subtree may hold the vector: descend
                rank += size
            else:
                i -= 1
                continue
            i += 1
            todo[i] = iter(children[child])
        return rank, None


class _SearchCapped(Exception):
    """Internal: the row search exhausted its work budget."""


def _isometry(rows: tuple[tuple[int, ...], ...]) -> Isometry:
    """Isometry(rows) for rows that are already square and integral,
    without re-checking them."""
    iso = object.__new__(Isometry)
    iso.__dict__["rows"] = rows
    return iso


# Vectors the last depth's list must hold before the last depth, running
# past its end, walks instead of pulling more.  Walks on sets that barely
# pass this cost more than the reads they save.
_WALK_AFTER = 512


def _iter_isometries(lattice: IntersectionLattice, cap: int) -> Iterator[Isometry]:
    """Yield every element of O_Z(M) in canonical order.

    Charges one step per candidate row examined; raises _SearchCapped
    once more than cap steps are needed.  Per distinct diagonal entry the
    search keeps the vectors read so far and the suspended enumerator,
    shared by the depths with that entry.  Each depth reads the list by
    index and pulls one vector on running past its end, so a search that
    stops early enumerates only what it examined, and everything is freed
    with the search.  An enumerator that raises ends the search too, so
    no reader takes its short prefix for the whole set.  A candidate is
    paired with each placed row through the row's sparse image M v,
    built once per distinct vector placed.

    The depths 1..n - 2 read their lists one candidate at a time, except
    on revisits.  A scan at depths 2..n - 2 under a row above v notes
    the ranks of the candidates pairing to -1 with v, and keeps them,
    per (v, diagonal entry), once it has read the list to its end;
    a later visit under v with that entry goes from one kept rank >= its
    resume point to the next, tests the older rows there, and is charged
    rank - k + 1 steps per rank, or len(list) - k past the last one.  So
    a revisit costs what the scan costs in steps and cap point, not in
    time.  The kept ranks are freed with the search.

    The last depth is the other exception: once its list holds _WALK_AFTER
    vectors, running past the end continues through a _CountedSet walk
    from that rank instead of pulling more.  All n - 1 pairings are then
    known, so at most two vectors pass; the walk returns the next one
    and its rank, and the depth is charged the candidates the scan would
    have examined to reach it (or the rest of the set).  Elements, order
    and cap point stay those of the plain scan.  The counted tree is
    built whole, in one pass, the first time the last depth walks, and
    is freed with the search.

    Depth-first over the rows in one loop, with the index of the next
    candidate kept per depth, so the rank is not bounded by recursion.
    """
    n = lattice.n
    diag = lattice.diag
    streams = {a: ([], _fincke_pohst(diag, a)) for a in set(diag)}
    last = n - 1
    counted = None  # the last depth's set, once it walks
    # Per row vector v placed above the last depth, its image M v; and
    # per (v, diagonal entry a), once a scan under v at depths 2..n - 2
    # reads a's list to its end, the ranks there of the vectors that pair
    # to -1 with v.
    known: dict = {}
    partners: dict = {}

    rows: list = [None] * n
    mrows: list = [None] * n
    # Per depth 2..n - 2, for the row above: its kept partner ranks (a
    # tuple) or the ones a scan is noting (a list); None elsewhere.
    notes: list = [None] * n
    resume = [0] * n
    steps = cap
    d = 0
    while d >= 0:
        vecs, source = streams[diag[d]]
        # Row d must pair to -1 with row d - 1 (which kills most
        # candidates) and to 0 with the older rows, newest first.
        older = mrows[d - 2 :: -1] if d > 1 else ()
        k = resume[d]
        ranks = notes[d]
        if type(ranks) is tuple:
            # A revisit: only the kept ranks can pass, and each jump is
            # charged the candidates the scan would examine to reach it.
            v = None
            for j in ranks[bisect_left(ranks, k) :]:
                steps -= j - k + 1
                if steps < 0:
                    raise _SearchCapped
                k = j + 1
                v = vecs[j]
                s = 0
                for mr in older:
                    for i, y in mr:
                        s += v[i] * y
                    if s:
                        break
                if not s:
                    break
            else:
                steps -= len(vecs) - k
                if steps < 0:
                    raise _SearchCapped
                v = None
        else:
            adjacent = mrows[d - 1] if d else ()
            while True:
                if k < len(vecs):
                    v = vecs[k]
                elif d < last or len(vecs) < _WALK_AFTER:
                    v = next(source, None)
                    if v is None:
                        if ranks is not None:  # read to its end: keep
                            partners[rows[d - 1], diag[d]] = tuple(ranks)
                        break
                    vecs.append(v)
                else:
                    # the next passing vector by rank, charged the candidates
                    # the scan would examine to reach it
                    if counted is None:
                        counted = _CountedSet(diag, diag[last])
                    pairings = ((mrows[j], -1 if j == d - 1 else 0) for j in range(d))
                    rank, v = counted.first(k, pairings)
                    steps -= rank - k + (v is not None)
                    if steps < 0:
                        raise _SearchCapped
                    k = rank + 1
                    break
                k += 1
                steps -= 1
                if steps < 0:
                    raise _SearchCapped
                if d:
                    s = 0
                    for i, y in adjacent:
                        s += v[i] * y
                    if s != -1:
                        continue
                    if ranks is not None:
                        ranks.append(k - 1)
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
            d -= 1  # depth d is exhausted: resume the one above
            continue
        resume[d] = k
        rows[d] = v
        if d + 1 == n:
            yield _isometry(tuple(rows))
        else:
            image = known.get(v)
            if image is None:
                image = known[v] = lattice.mrow(v)
            mrows[d] = image
            d += 1
            resume[d] = 0
            if 1 < d < last:
                ranks = partners.get((v, diag[d]))
                notes[d] = [] if ranks is None else ranks


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


@dataclass(frozen=True)
class TraceSearch:
    """Outcome of a trace query against O_Z(M).

    witness:  the canonically least element with the requested trace, or
              None.
    complete: True when the answer is definitive (witness found, or the
              whole group was enumerated without one).
    traces:   the trace histogram, (trace, multiplicity) pairs sorted by
              trace, only when the group was enumerated completely and no
              witness exists; the multiplicities sum to the group order.
    """

    witness: Isometry | None
    complete: bool
    traces: tuple[tuple[int, int], ...] | None


def orthogonal_group(lattice: IntersectionLattice, cap: int = DEFAULT_CAP) -> IsometryGroup:
    """Enumerate O_Z(M) = {A : A M A^T = M}, canonically ordered.

    Stops with complete=False once the search examines more than cap
    candidate rows, keeping the elements found until then (at most cap
    of them, a canonical prefix of the group).
    """
    check_cap(cap)
    elements: list[Isometry] = []
    try:
        for iso in _iter_isometries(lattice, cap):
            elements.append(iso)
    except _SearchCapped:
        return IsometryGroup(tuple(elements), complete=False)
    return IsometryGroup(tuple(elements), complete=True)


def find_isometry_with_trace(
    lattice: IntersectionLattice, trace: int, cap: int = DEFAULT_CAP
) -> TraceSearch:
    """Search O_Z(M) for an element of the given trace.

    Short-circuits at the first (canonically least) witness.  When the
    group is exhausted without one, reports its trace histogram as a
    certificate of absence.  Exceeding the cap yields the indeterminate
    answer (witness None, complete False).
    """
    check_int("trace", trace)
    check_cap(cap)
    counts: dict[int, int] = {}
    try:
        for iso in _iter_isometries(lattice, cap):
            t = iso.trace
            if t == trace:
                return TraceSearch(witness=iso, complete=True, traces=None)
            counts[t] = counts.get(t, 0) + 1
    except _SearchCapped:
        return TraceSearch(witness=None, complete=False, traces=None)
    return TraceSearch(witness=None, complete=True, traces=tuple(sorted(counts.items())))


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
