"""Tests for tridiagonal lattices, short vectors, and integral isometry
groups.

Expected values in here were frozen from an independent brute-force
implementation (box scans for short vectors, all-candidate-matrix
filtering for groups) before this module was trusted.
"""

import itertools
import math

import pytest

from lensmilnor import (
    GroupShape,
    IntersectionLattice,
    InvalidInputError,
    InvalidNormError,
    Isometry,
    canonical_matrix_key,
    canonical_vector_key,
    cf_invariants,
    expand,
    find_isometry_with_trace,
    gerstein_prediction,
    gram,
    orthogonal_group,
    short_vectors,
)

from lensmilnor.contact import zero_vector
from lensmilnor.lattice import _SHORT_VECTOR_CACHE_SIZE, _short_vectors_cached, weyl_witness
from lensmilnor.obstruct import decide_theorem, scan
from verification import det, is_isometry_dense

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


def test_matrix_and_minors():
    lat = gram([2, 4, 2])
    assert lat.matrix == ((2, -1, 0), (-1, 4, -1), (0, -1, 2))
    assert lat.minors == (2, 7, 12)
    assert lat.det == 12
    assert gram([6]).matrix == ((6,),)
    assert gram([6]).det == 6
    assert gram([2, 2]).minors == (2, 3)


def test_minors_match_expansion_invariants():
    # leading minors continue the weight recursion: minors[i] = mu[i+1]
    # (one step past the stored weights at the top), and det = p
    for p in range(2, 101):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            inv = cf_invariants(exp)
            lat = gram(exp)
            assert lat.det == p
            assert lat.minors[: len(exp) - 1] == inv.mu[1:]
            assert all(x < y for x, y in zip((1,) + lat.minors, lat.minors))


def test_norm_and_pairing():
    lat = gram([2, 2, 4])
    assert lat.norm((1, 0, 0)) == 2
    assert lat.norm((0, 0, 1)) == 4
    assert lat.norm((1, 1, 1)) == 2 + 2 + 4 - 2 - 2
    assert lat.pairing((1, 0, 0), (0, 1, 0)) == -1
    assert lat.pairing((1, 0, 0), (0, 0, 1)) == 0
    assert lat.pairing((1, 2, 3), (3, 2, 1)) == lat.pairing((3, 2, 1), (1, 2, 3))


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
    with pytest.raises(InvalidNormError):
        short_vectors(lat, -2)
    with pytest.raises(InvalidNormError):
        short_vectors(lat, 2.0)
    # repeated calls hand back equal, independently usable lists
    assert short_vectors(lat, 2) == short_vectors(lat, 2)


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
        by_norm = {}
        for v in itertools.product(range(-B, B + 1), repeat=n):
            if any(v):
                by_norm.setdefault(lat.norm(v), []).append(v)
        for norm in range(0, 9):
            got = short_vectors(lat, norm)
            want = sorted(by_norm.get(norm, []), key=canonical_vector_key)
            assert got == want
            for v in got:
                assert max(abs(x) for x in v) <= B - 1
            assert got == sorted(got, key=canonical_vector_key)


def test_isometry_container():
    with pytest.raises(InvalidInputError):
        Isometry(())
    with pytest.raises(InvalidInputError):
        Isometry(((1, 0), (0,)))
    with pytest.raises(InvalidInputError):
        Isometry(((1.0,),))
    ident = Isometry.identity(3)
    rho = Isometry.reversal(3)
    assert ident.trace == 3
    assert rho.trace == 1
    assert rho.rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    # the antidiagonal has trace 1 for odd size and 0 for even size
    for n in range(1, 7):
        assert Isometry.reversal(n).trace == n % 2
    assert (-ident).trace == -3
    assert ident.flatten() == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert det(ident) == 1
    assert det(-ident) == -1
    assert det(rho) == -1
    assert det(Isometry.reversal(2)) == -1
    assert rho @ rho == ident
    assert ident @ rho == rho
    a = Isometry(((1, 1), (0, 1)))
    b = Isometry(((1, 0), (1, 1)))
    assert a @ b == Isometry(((2, 1), (1, 1)))
    assert b @ a == Isometry(((1, 1), (1, 2)))
    with pytest.raises(InvalidInputError):
        a @ ident


def test_is_isometry():
    lat = gram([2, 4, 2])
    assert lat.is_isometry(Isometry.identity(3))
    assert lat.is_isometry(MINUS_RHO_3)
    assert not lat.is_isometry(Isometry(((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    assert not lat.is_isometry(Isometry.identity(2))


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
    assert orthogonal_group(gram([4, 4])).traces() == (-2, 0, 0, 2)
    assert orthogonal_group(gram([4, 6])).traces() == (-2, 2)
    assert orthogonal_group(gram([2, 4])).traces() == (-2, 0, 0, 2)
    assert orthogonal_group(gram([2, 6])).traces() == (-2, 0, 0, 2)
    assert orthogonal_group(gram([4, 4, 4])).traces() == (-3, -1, 1, 3)
    assert orthogonal_group(gram([2, 4, 2])).traces() == (
        (-3,) + (-1,) * 7 + (1,) * 7 + (3,)
    )
    # no trace -1 anywhere in this one
    assert orthogonal_group(gram([2, 4, 2, 4])).traces() == (
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
        ident = Isometry.identity(n)
        assert ident in group
        assert -ident in group
        # the reversal belongs exactly when the diagonal is palindromic
        assert (Isometry.reversal(n) in group) == (diag == diag[::-1])
        # trace multiset is symmetric under negation
        assert group.traces() == tuple(sorted(-t for t in group.traces()))
        # canonical order, no repeats
        keys = [canonical_matrix_key(e) for e in elems]
        assert keys == sorted(keys)
        assert len(set(elems)) == len(elems)
        for a in elems:
            assert lat.is_isometry(a)
            assert det(a) in (-1, 1)
            assert -a in group
        # closed under products, and every element has an inverse
        for a in elems:
            assert any(a @ b == ident for b in elems)
            for b in elems:
                assert a @ b in group


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
    assert res.traces == (-2, 0, 0, 2)

    res = find_isometry_with_trace(gram([2, 4, 2, 4]), -1)
    assert res.witness is None
    assert res.complete
    assert res.traces == (-4, -2, -2, 0, 0, 2, 2, 4)


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
    ident2 = Isometry.identity(2)
    rho2 = Isometry.reversal(2)
    assert GroupShape.SIGNS_ONLY.predicted_elements(2) == (-ident2, ident2)
    assert GroupShape.SIGNS_AND_REVERSAL.predicted_elements(2) == (
        -rho2,
        rho2,
        -ident2,
        ident2,
    )
    for diag in [(4, 6), (4, 4), (3, 5, 3), (3, 5, 4), (6, 3, 4, 5)]:
        lat = IntersectionLattice(diag)
        shape = gerstein_prediction(lat)
        group = orthogonal_group(lat)
        assert group.complete
        assert group.elements == shape.predicted_elements(lat.n)
        assert group.order == shape.predicted_order


def test_short_vector_cache_is_bounded():
    _short_vectors_cached.cache_clear()
    assert sum(1 for _ in scan(30)) == 1741
    info = _short_vectors_cached.cache_info()
    assert info.misses > _SHORT_VECTOR_CACHE_SIZE
    assert info.currsize <= _SHORT_VECTOR_CACHE_SIZE
    # The bound still holds the sets of a lattice with that many distinct
    # entries, so warming them before a group search saves every one.
    lat = IntersectionLattice(tuple(range(3, 3 + _SHORT_VECTOR_CACHE_SIZE)))
    for a in lat.diag:
        short_vectors(lat, a)
    hits = _short_vectors_cached.cache_info().hits
    assert orthogonal_group(lat).order == 2
    assert _short_vectors_cached.cache_info().hits - hits == _SHORT_VECTOR_CACHE_SIZE


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
