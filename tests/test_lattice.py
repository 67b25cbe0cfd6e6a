"""Tests for tridiagonal lattices, short vectors, and integral isometry
groups.

Expected values in here were frozen from an independent brute-force
implementation (box scans for short vectors, all-candidate-matrix
filtering for groups) before this module was trusted.
"""

import gc
import inspect
import itertools
import math
import sys
import weakref
from collections import Counter

import pytest

from lensmilnor import (
    IntersectionLattice,
    InvalidInputError,
    Isometry,
    expand,
    find_isometry_with_trace,
    gram,
    orthogonal_group,
    short_vectors,
)

from lensmilnor.contact import zero_vector
import lensmilnor.lattice as lattice_module
import verification
from lensmilnor.lattice import weyl_witness
from lensmilnor.obstruct import decide_theorem, scan
from verification import (
    GroupShape,
    canonical_matrix_key,
    canonical_vector_key,
    dense_gram,
    det,
    gerstein_prediction,
    group_traces,
    identity,
    is_isometry_dense,
    matmul,
    negate,
    norm,
    pairing,
    reversal,
    scanned_answers,
    short_vectors_rational,
    signed_weyl_traces,
)

MINUS_RHO_3 = Isometry(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))


def test_lattice_validation():
    with pytest.raises(InvalidInputError):
        IntersectionLattice(())
    with pytest.raises(InvalidInputError):
        IntersectionLattice((1,))
    with pytest.raises(InvalidInputError):
        IntersectionLattice((2, 0, 2))
    lat = IntersectionLattice((2, 4))
    assert lat.n == 2
    assert gram([2, 4]).diag == (2, 4)


def test_norm_and_pairing():
    # the dense oracles the box scans below rely on
    m = dense_gram((2, 2, 4))
    assert m == [[2, -1, 0], [-1, 2, -1], [0, -1, 4]]
    assert dense_gram((6,)) == [[6]]
    assert norm(m, (1, 0, 0)) == 2
    assert norm(m, (0, 0, 1)) == 4
    assert norm(m, (1, 1, 1)) == 2 + 2 + 4 - 2 - 2
    assert pairing(m, (1, 0, 0), (0, 1, 0)) == -1
    assert pairing(m, (1, 0, 0), (0, 0, 1)) == 0
    assert pairing(m, (1, 2, 3), (3, 2, 1)) == pairing(m, (3, 2, 1), (1, 2, 3))


def test_short_vector_examples():
    assert short_vectors(gram([2, 2]), 2) == [
        (0, -1),
        (0, 1),
        (-1, 0),
        (-1, -1),
        (1, 0),
        (1, 1),
    ]
    assert short_vectors(gram([4, 4]), 4) == [(0, -1), (0, 1), (-1, 0), (1, 0)]
    assert short_vectors(gram([2, 3]), 3) == [(0, -1), (0, 1), (-1, -1), (1, 1)]
    assert short_vectors(gram([2, 3]), 2) == [(-1, 0), (1, 0)]
    assert short_vectors(gram([6]), 6) == [(-1,), (1,)]
    assert short_vectors(gram([2, 2, 2]), 2) == [
        (0, 0, -1),
        (0, 0, 1),
        (0, -1, 0),
        (0, -1, -1),
        (0, 1, 0),
        (0, 1, 1),
        (-1, 0, 0),
        (-1, -1, 0),
        (-1, -1, -1),
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    ]


def test_short_vectors_norm_edge_cases():
    lat = gram([2, 4])
    assert short_vectors(lat, 0) == []
    assert short_vectors(lat, 1) == []
    with pytest.raises(InvalidInputError):
        short_vectors(lat, -2)
    with pytest.raises(InvalidInputError):
        short_vectors(lat, 2.0)
    # repeated calls hand back equal, independently usable lists
    assert short_vectors(lat, 2) == short_vectors(lat, 2)


def test_short_vectors_reject_a_bool_norm():
    # True is an int subclass, but not a norm: it must not pass as 1.
    with pytest.raises(InvalidInputError):
        short_vectors(gram([2, 2]), True)


@pytest.mark.parametrize("bad", [True, 1.5, "x"])
def test_caps_and_traces_must_be_integers(bad):
    # True would otherwise pass as 1, 1.5 as a cap, and "x" would fail
    # with a bare TypeError.
    with pytest.raises(InvalidInputError, match="cap must be an integer"):
        orthogonal_group(gram([4, 4]), cap=bad)
    with pytest.raises(InvalidInputError, match="cap must be an integer"):
        find_isometry_with_trace(gram([4, 4]), -1, cap=bad)
    with pytest.raises(InvalidInputError, match="trace must be an integer"):
        find_isometry_with_trace(gram([4, 4]), bad)


def test_short_vectors_against_box_scan():
    # Independent check: scan the coordinate box [-B, B]^n directly.  The
    # margin assertion (all hits well inside the box) protects the scan's
    # completeness.
    B = 4
    diags = [(a,) for a in (2, 3, 4, 6)]
    diags += [(a, b) for a in (2, 3, 4, 6) for b in (2, 3, 4, 6)]
    diags += [(a, b, c) for a in (2, 3, 4) for b in (2, 3, 4) for c in (2, 3, 4)]
    for diag in diags:
        lat = IntersectionLattice(diag)
        n = lat.n
        m = dense_gram(diag)
        by_norm = {}
        for v in itertools.product(range(-B, B + 1), repeat=n):
            if any(v):
                by_norm.setdefault(norm(m, v), []).append(v)
        for target in range(0, 9):
            got = short_vectors(lat, target)
            want = sorted(by_norm.get(target, []), key=canonical_vector_key)
            assert got == want
            for v in got:
                assert max(abs(x) for x in v) <= B - 1
            assert got == sorted(got, key=canonical_vector_key)


def _enumeration_cases():
    # (diag, target) pairs with an independently enumerated vector set
    for n in range(1, 5):
        for diag in itertools.product(range(2, 7), repeat=n):
            for target in range(1, 9):
                yield diag, target
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            diag = expand(p, q).coeffs
            if gerstein_prediction(IntersectionLattice(diag)) is None:
                continue
            for a in sorted(set(diag)):
                yield diag, a
    for k in range(1, 11):
        for diag in ((4,) + (2,) * k, (2,) * k + (4,)):
            for target in (2, 4):
                yield diag, target
    for diag in [(5,), (2, 2), (3, 4), (4,) + (2,) * 6, (2,) * 5 + (6,), (3, 5, 3), (6, 2, 2, 4)]:
        for target in range(0, 9):
            yield diag, target


def test_short_vectors_match_rational_enumeration():
    # A dense rational elimination, independent of the integer recursion,
    # is the oracle: equal tuples, order included.
    checked = 0
    for diag, target in _enumeration_cases():
        want = short_vectors_rational(diag, target) if target else ()
        assert tuple(short_vectors(IntersectionLattice(diag), target)) == want
        checked += 1
    assert checked == 8445 + 7 * 9


def test_norm_two_vectors_come_from_the_runs_of_twos():
    # Norm 2 is listed in closed form, +-(e_i + ... + e_j) inside one run
    # of 2s, with no descent: the rational oracle's tuples, order
    # included, on every expansion with p <= 40 and on edge shapes (no
    # 2s, all 2s, runs at both ends, one long run).
    diags = {
        expand(p, q).coeffs for p in range(2, 41) for q in range(1, p) if math.gcd(p, q) == 1
    }
    assert len(diags) == 489
    long_run = (4,) + (2,) * 60
    diags |= {(3, 4, 5), (2,) * 9, (2, 2, 5, 2, 2, 2), long_run}
    for diag in diags:
        assert tuple(short_vectors(IntersectionLattice(diag), 2)) == short_vectors_rational(diag, 2)
    assert len(short_vectors(IntersectionLattice(long_run), 2)) == 3660


def _pinned(v):
    # pairings that hold for v alone: coordinate j equals v[j]
    return [(((j, 1),), x) for j, x in enumerate(v)]


def test_counted_walk_ranks_every_short_vector():
    # The walk counts the set short_vectors lists, and ranks each vector
    # at its index: from any start rank, and through pairings that only
    # that vector meets.
    checked = 0
    for diag, target in _enumeration_cases():
        if not target:
            continue
        vecs = short_vectors(IntersectionLattice(diag), target)
        walk = lattice_module._CountedSet(diag, target)
        assert walk.sizes[walk.root] == len(vecs)
        for rank, v in enumerate(vecs):
            assert walk.first(rank, ()) == (rank, v)
            assert walk.first(0, _pinned(v)) == (rank, v)
            assert walk.first(rank + 1, _pinned(v)) == (len(vecs), None)
        assert walk.first(len(vecs), ()) == (len(vecs), None)
        checked += 1
    assert checked == 8445 + 7 * 8
    # [2^15, 4] at norm 4 and [6, 2^18] at norm 6, counted from few
    # states: the tree is built whole, and has exactly the states below
    # its root, dead prefixes included
    for diag, target, total, states in [
        ((2,) * 15 + (4,), 4, 10_952, 134),
        ((6,) + (2,) * 18, 6, 548_492, 294),
    ]:
        walk = lattice_module._CountedSet(diag, target)
        assert walk.sizes[walk.root] == total
        assert len(walk.children) == states
    # [2^12, 7] at norm 7: 26 vectors under many dead prefixes, each
    # ranked at its index
    diag = (2,) * 12 + (7,)
    vecs = short_vectors(IntersectionLattice(diag), 7)
    walk = lattice_module._CountedSet(diag, 7)
    assert walk.sizes[walk.root] == len(vecs) == 26
    assert len(walk.children) == 205
    for rank, v in enumerate(vecs):
        assert walk.first(rank, ()) == (rank, v)
        assert walk.first(0, _pinned(v)) == (rank, v)


def test_short_vectors_of_the_long_run_of_twos():
    # [4, 2^26] at norm 4: the count the rational enumeration gave.
    assert len(short_vectors(IntersectionLattice((4,) + (2,) * 26), 4)) == 105_354
    # Reversing the basis is an isometry between [4, 2^k] and [2^k, 4].
    head = short_vectors(IntersectionLattice((4,) + (2,) * 12), 4)
    tail = short_vectors(IntersectionLattice((2,) * 12 + (4,)), 4)
    assert {v[::-1] for v in head} == set(tail)
    assert len(head) == len(tail)


def test_isometry_container():
    with pytest.raises(InvalidInputError):
        Isometry(())
    with pytest.raises(InvalidInputError):
        Isometry(((1, 0), (0,)))
    with pytest.raises(InvalidInputError):
        Isometry(((1.0,),))
    ident = identity(3)
    rho = reversal(3)
    assert ident.trace == 3
    assert rho.trace == 1
    assert rho.rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    # the antidiagonal has trace 1 for odd size and 0 for even size
    for n in range(1, 7):
        assert reversal(n).trace == n % 2
    assert negate(ident).trace == -3
    assert ident.flatten() == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert det(ident) == 1
    assert det(negate(ident)) == -1
    assert det(rho) == -1
    assert det(reversal(2)) == -1
    assert matmul(rho, rho) == ident
    assert matmul(ident, rho) == rho
    a = Isometry(((1, 1), (0, 1)))
    b = Isometry(((1, 0), (1, 1)))
    assert matmul(a, b) == Isometry(((2, 1), (1, 1)))
    assert matmul(b, a) == Isometry(((1, 1), (1, 2)))
    with pytest.raises(InvalidInputError):
        matmul(a, ident)


def test_isometry_rejects_bool_entries():
    with pytest.raises(InvalidInputError):
        Isometry(((True,),))


def test_is_isometry():
    lat = gram([2, 4, 2])
    assert lat.is_isometry(identity(3))
    assert lat.is_isometry(MINUS_RHO_3)
    assert not lat.is_isometry(Isometry(((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    assert not lat.is_isometry(identity(2))


def test_mrow_is_the_sparse_dense_product():
    # mrow(v) lists exactly the nonzero entries of M v, in index order.
    diags = [(2,), (5,), (2, 2), (3, 2), (2, 2, 2), (2, 2, 2, 2), (3, 2, 2, 4), (2, 5, 2, 2)]
    for diag in diags:
        lat = IntersectionLattice(diag)
        m = dense_gram(diag)
        for v in itertools.product(range(-2, 3), repeat=len(diag)):
            image = [sum(mij * x for mij, x in zip(row, v)) for row in m]
            assert lat.mrow(v) == tuple((i, y) for i, y in enumerate(image) if y)
    # Within a run of 2s, M (e_i + ... + e_j) telescopes to at most four
    # nonzeros, which is what keeps the row search's pairings short.
    lat = IntersectionLattice((3,) + (2,) * 8 + (3,))
    for i in range(1, 9):
        for j in range(i, 9):
            v = tuple(int(i <= k <= j) for k in range(10))
            assert len(lat.mrow(v)) <= 4


def test_mrow_rejects_a_vector_of_the_wrong_length():
    lat = gram([2, 4])
    assert lat.mrow((1, 0)) == ((0, 2), (1, -1))
    for v in [(1,), (1, 0, 5)]:
        with pytest.raises(InvalidInputError):
            lat.mrow(v)


def test_is_isometry_matches_the_dense_check():
    # Group elements pass both checks; changing one entry by +-1 gets the
    # same answer from both.
    rejected = 0
    for diag in [(2, 2), (2, 4, 2), (3, 2, 2), (2, 2, 2), (4, 4, 4), (2, 3, 2, 3)]:
        lat = IntersectionLattice(diag)
        n = len(diag)
        for g in orthogonal_group(lat):
            assert lat.is_isometry(g) and is_isometry_dense(diag, g)
            for i, j in itertools.product(range(n), repeat=2):
                for delta in (-1, 1):
                    rows = [list(r) for r in g.rows]
                    rows[i][j] += delta
                    bent = Isometry(rows)
                    assert lat.is_isometry(bent) == is_isometry_dense(diag, bent)
                    rejected += not is_isometry_dense(diag, bent)
    assert rejected > 1000


GROUP_ORDERS = {
    (2,): 2,
    (6,): 2,
    (2, 2): 12,
    (2, 4): 4,
    (2, 6): 4,
    (4, 4): 4,
    (4, 6): 2,
    (2, 2, 2): 48,
    (2, 2, 4): 12,
    (2, 4, 2): 16,
    (4, 2, 4): 8,
    (4, 4, 4): 4,
    (2, 2, 2, 4): 48,
}


def test_group_orders():
    for diag, order in GROUP_ORDERS.items():
        group = orthogonal_group(IntersectionLattice(diag))
        assert group.complete
        assert group.order == order


def test_group_traces():
    assert group_traces(orthogonal_group(gram([4, 4]))) == (-2, 0, 0, 2)
    assert group_traces(orthogonal_group(gram([4, 6]))) == (-2, 2)
    assert group_traces(orthogonal_group(gram([2, 4]))) == (-2, 0, 0, 2)
    assert group_traces(orthogonal_group(gram([2, 6]))) == (-2, 0, 0, 2)
    assert group_traces(orthogonal_group(gram([4, 4, 4]))) == (-3, -1, 1, 3)
    assert group_traces(orthogonal_group(gram([2, 4, 2]))) == (
        (-3,) + (-1,) * 7 + (1,) * 7 + (3,)
    )
    # no trace -1 anywhere in this one
    assert group_traces(orthogonal_group(gram([2, 4, 2, 4]))) == (
        -4,
        -2,
        -2,
        0,
        0,
        2,
        2,
        4,
    )


def test_group_structure():
    for diag in [(2, 4, 2), (2, 2, 4), (4, 6), (2, 2)]:
        lat = IntersectionLattice(diag)
        group = orthogonal_group(lat)
        assert group.complete
        elems = list(group)
        n = lat.n
        ident = identity(n)
        assert ident in group
        assert negate(ident) in group
        # the reversal belongs exactly when the diagonal is palindromic
        assert (reversal(n) in group) == (diag == diag[::-1])
        # trace multiset is symmetric under negation
        assert group_traces(group) == tuple(sorted(-t for t in group_traces(group)))
        # canonical order, no repeats
        keys = [canonical_matrix_key(e) for e in elems]
        assert keys == sorted(keys)
        assert len(set(elems)) == len(elems)
        for a in elems:
            assert lat.is_isometry(a)
            assert det(a) in (-1, 1)
            assert negate(a) in group
        # closed under products, and every element has an inverse
        for a in elems:
            assert any(matmul(a, b) == ident for b in elems)
            for b in elems:
                assert matmul(a, b) in group


def test_symmetric_chain_orders():
    # all-2 chains carry coordinate-permutation symmetries: order
    # 2 * (k+1)! for length k >= 2, but just {+-1} for length 1
    assert orthogonal_group(gram([2])).order == 2
    for k in range(2, 6):
        group = orthogonal_group(gram([2] * k))
        assert group.complete
        assert group.order == 2 * math.factorial(k + 1)


def test_trace_search_found():
    res = find_isometry_with_trace(gram([2, 4, 2]), -1)
    assert res.complete
    assert res.traces is None
    assert res.witness == MINUS_RHO_3
    assert res.witness.trace == -1

    res = find_isometry_with_trace(gram([2, 2, 2]), -1)
    assert res.witness == MINUS_RHO_3

    res = find_isometry_with_trace(gram([4, 2, 4]), -1)
    assert res.witness == MINUS_RHO_3

    res = find_isometry_with_trace(gram([4, 4, 4]), -1)
    assert res.witness == MINUS_RHO_3

    res = find_isometry_with_trace(gram([6]), -1)
    assert res.witness == Isometry(((-1,),))

    res = find_isometry_with_trace(gram([2, 2, 4]), -1)
    assert res.witness == Isometry(((0, 1, 0), (1, 0, 0), (-1, -1, -1)))
    assert gram([2, 2, 4]).is_isometry(res.witness)

    res = find_isometry_with_trace(gram([2, 2, 2, 4]), -1)
    assert res.witness == Isometry(
        ((0, -1, 0, 0), (1, 1, 0, 0), (-1, -1, -1, 0), (0, 0, 0, -1))
    )
    assert gram([2, 2, 2, 4]).is_isometry(res.witness)


def test_trace_search_absent():
    res = find_isometry_with_trace(gram([4, 4]), -1)
    assert res.witness is None
    assert res.complete
    assert res.traces == ((-2, 1), (0, 2), (2, 1))

    res = find_isometry_with_trace(gram([2, 4, 2, 4]), -1)
    assert res.witness is None
    assert res.complete
    assert res.traces == ((-4, 1), (-2, 2), (0, 2), (2, 2), (4, 1))


def test_trace_search_caps():
    # cap too small to finish and no early witness: indeterminate
    res = find_isometry_with_trace(gram([2, 2]), 5, cap=3)
    assert res.witness is None
    assert not res.complete
    assert res.traces is None
    # a cap far below the group order (16) can still return a definitive
    # witness thanks to the short-circuit
    res = find_isometry_with_trace(gram([2, 4, 2]), -1, cap=8)
    assert res.complete
    assert res.witness == MINUS_RHO_3
    with pytest.raises(InvalidInputError):
        find_isometry_with_trace(gram([2, 2]), -1, cap=0)


def test_group_caps():
    group = orthogonal_group(gram([2]), cap=2)
    assert group.complete
    assert group.order == 2
    group = orthogonal_group(gram([2]), cap=1)
    assert not group.complete
    assert group.order <= 1
    # long 2-run: budget exhausts on candidate rows long before the
    # element count gets anywhere
    group = orthogonal_group(gram([2] * 10 + [4]), cap=4000)
    assert not group.complete
    with pytest.raises(InvalidInputError):
        orthogonal_group(gram([2, 2]), cap=0)


def _caps():
    # every cap up to 64, then a ladder; the search stops far below 4**10
    yield from range(1, 65)
    cap = 256
    while True:
        yield cap
        cap *= 4


def test_step_budget_alone_bounds_a_capped_search():
    # Each element ends with its own candidate row at the last depth, so
    # the step budget also bounds the element count: a capped group is a
    # canonical prefix of the full one with at most cap elements.
    diags = [d for n in range(1, 5) for d in itertools.product(range(2, 5), repeat=n)]
    diags.append((2,) * 6)
    for diag in diags:
        lat = IntersectionLattice(diag)
        groups = []
        for cap in _caps():
            groups.append((cap, orthogonal_group(lat, cap)))
            if groups[-1][1].complete:
                break
        last_cap, full = groups[-1]
        for cap, group in groups:
            assert group.order <= cap
            assert group.elements == full.elements[: group.order]
            assert group.complete == (cap == last_cap)
        # the trace search runs under the same budget
        for cap, group in groups[:16]:
            assert find_isometry_with_trace(lat, 99, cap).complete == group.complete
        search = find_isometry_with_trace(lat, 99, last_cap + 1)
        assert search.complete and search.witness is None
        assert search.traces == tuple(sorted(Counter(group_traces(full)).items()))
        # one pair per trace, at most 2n + 1 of them (a finite-order
        # integral isometry has |trace| <= n), summing to the group order
        traces, counts = zip(*search.traces)
        assert (
            list(traces) == sorted(set(traces))
            and len(traces) <= 2 * len(diag) + 1
            and sum(counts) == full.order
        )
    assert full.order == 2 * math.factorial(7)


def test_row_search_depth_is_not_bounded_by_recursion():
    # One search depth per row: at rank 1200 the search must cap, not
    # overflow the interpreter's recursion limit.
    group = orthogonal_group(IntersectionLattice((3,) * 1200))
    assert not group.complete


def test_gerstein_prediction():
    assert gerstein_prediction(gram([4])) is None
    assert gerstein_prediction(gram([3])) is None
    assert gerstein_prediction(gram([2, 4])) is None
    assert gerstein_prediction(gram([4, 2, 4])) is None
    assert gerstein_prediction(gram([4, 6])) is GroupShape.SIGNS_ONLY
    assert gerstein_prediction(gram([4, 4])) is GroupShape.SIGNS_AND_REVERSAL
    assert gerstein_prediction(gram([3, 5, 3])) is GroupShape.SIGNS_AND_REVERSAL
    assert gerstein_prediction(gram([3, 5, 4])) is GroupShape.SIGNS_ONLY
    assert GroupShape.SIGNS_ONLY.predicted_order == 2
    assert GroupShape.SIGNS_AND_REVERSAL.predicted_order == 4


def test_predictions_match_enumeration():
    ident2 = identity(2)
    rho2 = reversal(2)
    assert GroupShape.SIGNS_ONLY.predicted_elements(2) == (negate(ident2), ident2)
    assert GroupShape.SIGNS_AND_REVERSAL.predicted_elements(2) == (
        negate(rho2),
        rho2,
        negate(ident2),
        ident2,
    )
    for diag in [(4, 6), (4, 4), (3, 5, 3), (3, 5, 4), (6, 3, 4, 5)]:
        lat = IntersectionLattice(diag)
        shape = gerstein_prediction(lat)
        group = orthogonal_group(lat)
        assert group.complete
        assert group.elements == shape.predicted_elements(lat.n)
        assert group.order == shape.predicted_order


def _live_streams():
    # suspended short-vector enumerators, started or not
    return sum(
        1
        for obj in gc.get_objects()
        if inspect.isgenerator(obj) and obj.gi_code is lattice_module._fincke_pohst.__code__
    )


def test_no_stream_outlives_its_search():
    # Each search owns its enumerators, one per distinct diagonal entry,
    # so a long scan holds none between records, and a capped search
    # frees the ones it left suspended.
    search = lattice_module._iter_isometries(gram((4, 2, 2, 2)), 1000)
    assert next(search).trace == -4  # -id, the canonically least element
    assert _live_streams() == 2
    search.close()
    del search
    assert _live_streams() == 0
    assert sum(1 for _ in scan(30)) == 1741
    assert _live_streams() == 0
    assert not find_isometry_with_trace(gram((6,) + (2,) * 12), -1, 500).complete
    assert _live_streams() == 0


def test_no_walk_memo_outlives_its_search(monkeypatch):
    # The last depth's counted set, tree included, belongs to its search:
    # held while the search is suspended, freed when it ends, capped or
    # not.
    built = []

    class Tracked(lattice_module._CountedSet):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(lattice_module, "_CountedSet", Tracked)
    search = lattice_module._iter_isometries(gram((2,) * 8 + (4,)), 10**6)
    next(search)
    assert len(built) == 1 and built[0]() is not None
    assert len(built[0]().sizes) > 0
    search.close()
    del search
    assert built[0]() is None
    assert not find_isometry_with_trace(gram((2,) * 15 + (4,)), -1, 10_000).complete
    assert len(built) == 2 and built[1]() is None


def test_no_row_memo_outlives_its_search():
    # The kept images and -1 partner ranks belong to their search: held
    # while it is suspended, freed when it ends, complete or capped.  What
    # is kept must be what a fresh computation gives.
    lat = gram((4,) + (2,) * 5)
    for cap, capped in ((10**6, False), (100_000, True)):
        search = lattice_module._iter_isometries(lat, cap)
        next(search)
        memo = search.gi_frame.f_locals
        known, partners = memo["known"], memo["partners"]
        assert len(known) == 121 and len(partners) == 30
        try:
            for _ in search:
                pass
        except lattice_module._SearchCapped:
            assert capped
        else:
            assert not capped
        assert search.gi_frame is None
        for v, image in known.items():
            assert image == lat.mrow(v)
        m = dense_gram(lat.diag)
        for (v, a), ranks in partners.items():
            vecs = short_vectors(lat, a)
            assert ranks == tuple(j for j, w in enumerate(vecs) if pairing(m, w, v) == -1)
        # the ended search refers to neither: once memo goes, only these names do
        del memo
        assert sys.getrefcount(known) == 2
        assert sys.getrefcount(partners) == 2


def _assert_search_matches_the_scan(lat, caps):
    want = scanned_answers(lat, caps, -1)
    for cap in caps:
        assert orthogonal_group(lat, cap) == want[cap][0], (lat.diag, cap)
        assert find_isometry_with_trace(lat, -1, cap) == want[cap][1], (lat.diag, cap)


def test_row_search_matches_the_scan_oracle():
    # The counted walk must change no element, order, step charge or cap
    # point: every lattice with p <= 45, against the search that reads
    # every candidate of the last depth one at a time.
    diags = {
        expand(p, q).coeffs for p in range(2, 46) for q in range(1, p) if math.gcd(p, q) == 1
    }
    assert len(diags) == 627
    for diag in sorted(diags):
        _assert_search_matches_the_scan(IntersectionLattice(diag), (50, 1_000, 20_000))


def test_row_search_matches_the_scan_oracle_on_runs_of_twos(monkeypatch):
    # [2^k, a], [a, 2^k] and [2^k, a, 2]: the shapes whose last depth
    # reads thousands of vectors, and their neighbours, at the scan's
    # quick cap.  At 100,000 too where the last depth's set is large
    # enough to walk; under any cap the others run the scan's own code.
    walked = set()
    real = lattice_module._CountedSet

    def counted(diag, target):
        walked.add(diag)
        return real(diag, target)

    monkeypatch.setattr(lattice_module, "_CountedSet", counted)
    large = set()
    for k in range(1, 17):
        for a in range(3, 9):
            for diag in ((2,) * k + (a,), (a,) + (2,) * k, (2,) * k + (a, 2)):
                last = real(diag, diag[-1])
                if last.sizes[last.root] < lattice_module._WALK_AFTER:
                    _assert_search_matches_the_scan(IntersectionLattice(diag), (10_000,))
                else:
                    large.add(diag)
                    _assert_search_matches_the_scan(IntersectionLattice(diag), (10_000, 100_000))
    # the large sets are those of [2^k, a] with even a, and each walked
    assert walked == large
    assert {(len(d) - 1, d[-1]) for d in large} == {
        (k, a) for a in (4, 6, 8) for k in range(6, 17) if (k, a) not in {(6, 4), (6, 6), (7, 4)}
    }


def test_row_search_matches_the_scan_oracle_on_revisited_depths():
    # The middle depths jump between kept -1 partners on revisits: every
    # theorem-silent zero-rotation lattice with p <= 50 whose search caps
    # at 10,000 steps, a few of them with ten times the budget, and 2s on
    # both sides of a larger entry.
    capped = set()
    for p in range(2, 51):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            if any(a % 2 for a in exp):
                continue
            if decide_theorem(p, q, zero_vector(exp)).reason is not None:
                continue
            lat = gram(exp)
            if not find_isometry_with_trace(lat, -1, 10_000).complete:
                capped.add(lat.diag)
    assert len(capped) == 43
    for diag in sorted(capped):
        _assert_search_matches_the_scan(IntersectionLattice(diag), (1_000, 10_000))
    for diag in ((4,) + (2,) * 5, (2, 4) + (2,) * 4, (6,) + (2,) * 4, (10,) + (2,) * 4):
        assert diag in capped
        _assert_search_matches_the_scan(IntersectionLattice(diag), (100_000,))
    for j in range(1, 7):
        for k in range(1, 7):
            for a in range(3, 9):
                diag = (2,) * j + (a,) + (2,) * k
                _assert_search_matches_the_scan(IntersectionLattice(diag), (1_000, 10_000))


def test_row_search_matches_the_scan_oracle_on_long_runs_of_twos(monkeypatch):
    # Every depth of a 2 reads the closed-form norm-2 stream; [2^23] and
    # [3, 2^23] also read 512 of its vectors and walk the last depth's
    # norm-2 set.
    walked = set()
    real = lattice_module._CountedSet

    def counted(diag, target):
        walked.add((diag, target))
        return real(diag, target)

    monkeypatch.setattr(lattice_module, "_CountedSet", counted)
    twos = (2,) * 23
    for diag in ((4,) + twos, twos + (4,), (6, 2) + twos, twos, (3,) + twos):
        _assert_search_matches_the_scan(IntersectionLattice(diag), (10_000, 100_000))
    assert {diag for diag, target in walked if target == 2} == {twos, (3,) + twos}


def test_row_search_jumps_between_kept_partners(monkeypatch):
    # On [4, 2^5] the quick search revisits its middle depths under the
    # same rows, so it must read far fewer coordinates than the scan,
    # which pairs every candidate with the row above, for the same answer.
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

    real = lattice_module._fincke_pohst

    def counted(diag, target):
        return map(Counted, real(diag, target))

    monkeypatch.setattr(lattice_module, "_fincke_pohst", counted)
    monkeypatch.setattr(verification, "_fincke_pohst", counted)
    lat = gram((4,) + (2,) * 5)
    search = find_isometry_with_trace(lat, -1, 10_000)
    searched = reads[0]
    reads[0] = 0
    assert search == scanned_answers(lat, (10_000,), -1)[10_000][1]
    assert not search.complete
    assert searched * 5 < reads[0] * 2  # under 40% of the scan's reads


def test_weyl_witness_lies_in_the_group():
    # rank 1: -id, the negated empty product; A_2: the Coxeter element
    assert weyl_witness(IntersectionLattice((5,))) == Isometry(((-1,),))
    assert weyl_witness(IntersectionLattice((2, 2))) == Isometry(((-1, -1), (1, 0)))
    # every Weyl witness of a small diagonal is an element of the
    # enumerated group, and none appears where the group has no trace -1
    built = 0
    for n in (1, 2, 3, 4):
        for diag in itertools.product(range(2, 6), repeat=n):
            lat = IntersectionLattice(diag)
            w = weyl_witness(lat)
            group = orthogonal_group(lat)
            assert group.complete
            if w is None:
                continue
            built += 1
            assert w.trace == -1
            assert w in group.elements
    assert built == 82


def test_weyl_witness_exists_exactly_when_signed_weyl_traces_hold_minus_one():
    # the other direction: None means no element of +-W(R) has trace -1,
    # against the traces listed from permutations, on every diagonal of
    # 2s, 3s and 4s up to rank 8
    for n in range(1, 9):
        for diag in itertools.product((2, 3, 4), repeat=n):
            lat = IntersectionLattice(diag)
            assert (weyl_witness(lat) is not None) == (-1 in signed_weyl_traces(diag)), diag
    assert signed_weyl_traces((2, 2)) == {-2, -1, 0, 1, 2}
    assert signed_weyl_traces((3, 4)) == {-2, 2}


def test_weyl_witness_on_theorem_silent_lattices():
    # every zero-rotation lattice with p <= 100 that the theorem layer
    # leaves open; each witness is re-checked by a dense product
    silent = covered = 0
    for p in range(2, 101):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            if any(a % 2 for a in exp):
                continue
            if decide_theorem(p, q, zero_vector(exp)).reason is not None:
                continue
            silent += 1
            w = weyl_witness(gram(exp))
            if w is not None:
                covered += 1
                assert w.trace == -1
                assert is_isometry_dense(exp.coeffs, w), (p, q)
    assert (silent, covered) == (498, 479)


def test_searches_leave_no_garbage_cycles():
    # Every search's row lists and short-vector data are freed by reference
    # counting alone, so a long scan never waits on the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        assert len(short_vectors(IntersectionLattice((4,) + (2,) * 8), 4)) > 0
        assert find_isometry_with_trace(gram([2, 2]), -1).witness is not None
        capped = find_isometry_with_trace(gram([4, 2, 4, 2]), -1, 100)
        assert not capped.complete
        absent = find_isometry_with_trace(gram([3, 4]), -1)
        assert absent.complete and absent.witness is None
        assert orthogonal_group(gram([2, 2, 2])).complete
        assert gc.collect() == 0
        # A capped search leaves its streams suspended mid-enumeration;
        # ending the search frees them, enumerator included.
        assert not find_isometry_with_trace(gram((6,) + (2,) * 12), -1, 500).complete
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_capped_search_enumerates_only_what_it_examined(monkeypatch):
    # [6, 2^18] has 548,492 vectors of norm 6; a 10,000-step search
    # enumerates exactly the vectors it reads: one of norm 6 for row 0,
    # and the norm-2 vectors its rows 1.. examine before the cap.
    diag = (6,) + (2,) * 18
    pulled_by_norm = {}
    real = lattice_module._fincke_pohst

    def counted(diag, target):
        pulled_by_norm[target] = 0
        for v in real(diag, target):
            pulled_by_norm[target] += 1
            yield v

    monkeypatch.setattr(lattice_module, "_fincke_pohst", counted)
    search = find_isometry_with_trace(gram(diag), -1, 10_000)
    assert not search.complete
    assert pulled_by_norm == {6: 1, 2: 342}
    # The Weyl group of the run of 2s still decides it, with no search.
    witness = weyl_witness(gram(diag))
    assert witness is not None and witness.trace == -1
    assert is_isometry_dense(diag, witness)


class _Interrupted(Exception):
    pass


def test_interrupted_stream_is_never_reused(monkeypatch):
    # An enumerator that dies part way must end the call that owns its
    # stream, so no short prefix passes for the whole set, then or later.
    diag = (4, 2, 2, 2)
    real = lattice_module._fincke_pohst

    def dying(diag, target):
        source = real(diag, target)
        yield next(source)
        yield next(source)
        raise _Interrupted

    monkeypatch.setattr(lattice_module, "_fincke_pohst", dying)
    with pytest.raises(_Interrupted):
        short_vectors(IntersectionLattice(diag), 4)
    with pytest.raises(_Interrupted):
        orthogonal_group(IntersectionLattice(diag))
    monkeypatch.setattr(lattice_module, "_fincke_pohst", real)
    assert tuple(short_vectors(IntersectionLattice(diag), 4)) == short_vectors_rational(diag, 4)
    assert orthogonal_group(IntersectionLattice(diag)).order == 48


def test_threads_share_streams_safely():
    # Searches in several threads at once, interleaved at a tiny switch
    # interval; nothing is shared between them, and each must still see
    # every vector, in order.
    import sys
    import threading

    sets = [(IntersectionLattice((4,) + (2,) * 8), 4), (IntersectionLattice((4,) + (2,) * 8), 2)]
    group_lat = IntersectionLattice((3,) + (2,) * 5)
    want = ([short_vectors(lat, a) for lat, a in sets], orthogonal_group(group_lat).elements)
    results = []
    errors = []

    def work():
        try:
            vecs = [short_vectors(lat, a) for lat, a in sets]
            results.append((vecs, orthogonal_group(group_lat).elements))
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(results) == 20
    assert all(r == want for r in results)
