"""Tests for the contact layer: structure enumeration, Chern residues,
coarse classification, and the domination inequalities."""

import itertools
import math
import tracemalloc

import pytest

from lensmilnor import (
    InvalidInputError,
    ResultTooLargeError,
    RotationVector,
    TightClass,
    as_expansion,
    cf_invariants,
    chern_residue,
    classify_structure,
    enumerate_structures,
    expand,
    zero_vector,
)

from verification import (
    check_c1_theorem,
    enumerated_structure_mismatches,
    extremal_class,
    lemma_bounds,
    slot_values,
)


def test_slot_values():
    # The structures of one coefficient are its admissible rotation numbers.
    for a, values in [(2, (0,)), (3, (-1, 1)), (4, (-2, 0, 2)), (5, (-3, -1, 1, 3))]:
        assert slot_values(a) == values
        assert tuple(rot.r[0] for rot in enumerate_structures([a])) == values


def test_enumeration_examples():
    assert [r.r for r in enumerate_structures([3])] == [(-1,), (1,)]
    assert [r.r for r in enumerate_structures([2, 2, 2])] == [(0, 0, 0)]
    assert [r.r for r in enumerate_structures([2, 3, 2])] == [(0, -1, 0), (0, 1, 0)]
    # rightmost slot varies fastest, each slot ascending
    assert [r.r for r in enumerate_structures([3, 3])] == [
        (-1, -1),
        (-1, 1),
        (1, -1),
        (1, 1),
    ]
    assert len(enumerate_structures([5, 7])) == 24


def test_structure_count_never_exceeds_p():
    for p in range(2, 121):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            count = len(enumerate_structures(exp))
            assert count <= p
            assert count == math.prod(a - 1 for a in exp)


def test_rotation_vector_validation():
    exp = as_expansion([2, 3, 2])
    RotationVector(exp, (0, 1, 0))
    with pytest.raises(InvalidInputError):
        RotationVector(exp, (0, 0, 0))  # parity: slot for 3 must be odd
    with pytest.raises(InvalidInputError):
        RotationVector(exp, (1, 1, 0))  # bound: |r| <= 0 for coefficient 2
    with pytest.raises(InvalidInputError):
        RotationVector(exp, (0, 3, 0))  # bound: |r| <= 1 for coefficient 3
    with pytest.raises(InvalidInputError):
        RotationVector(exp, (0, 1))  # length mismatch
    with pytest.raises(InvalidInputError):
        zero_vector([3, 2])  # odd coefficient has no zero slot
    assert zero_vector([2, 4, 2]).is_zero


def test_rotation_vector_rejects_bool_slots():
    # (True, 5) would otherwise equal (1, 5) and render as [true,5].
    with pytest.raises(InvalidInputError):
        RotationVector(expand(34, 7), (True, 5))


def test_enumeration_cap():
    with pytest.raises(ResultTooLargeError):
        enumerate_structures([12], cap=5)
    with pytest.raises(ResultTooLargeError):
        check_c1_theorem([12], cap=5)
    assert len(enumerate_structures([12], cap=11)) == 11


@pytest.mark.parametrize("bad", [True, 1.5, "x"])
def test_enumeration_cap_must_be_an_integer(bad):
    # True would otherwise be the cap 1, 1.5 a cap, and "x" a bare TypeError.
    with pytest.raises(InvalidInputError, match="cap must be an integer"):
        enumerate_structures([3], cap=bad)


@pytest.mark.parametrize("bad", [0, -1])
def test_enumeration_cap_must_be_positive(bad):
    # A cap below 1 is bad input, not a cap that every pair exceeds.
    with pytest.raises(InvalidInputError, match=f"^cap must be positive, got {bad}$"):
        enumerate_structures([3], cap=bad)


def test_structures_sequence_matches_the_slot_product():
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            expected = [
                RotationVector(exp, r)
                for r in itertools.product(*(slot_values(a) for a in exp))
            ]
            rots = enumerate_structures(exp)
            assert len(rots) == len(expected)
            assert list(rots) == expected
            # A second pass builds the same vectors again.
            assert list(rots) == expected


def test_first_structure_does_not_wait_for_the_rest():
    exp = expand(1002000, 1001)
    tracemalloc.start()
    try:
        rots = enumerate_structures(exp)
        first = next(iter(rots))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.r == (-999, -999)
    assert peak < 2**20
    assert len(rots) == 1_000_000
    # Each pass builds its vectors afresh, and both passes agree.
    rots = enumerate_structures(expand(90600, 301))
    assert len(rots) == 90_000
    assert list(rots) == list(rots)


def test_chern_examples():
    assert chern_residue(RotationVector(as_expansion([3]), (1,))) == 1
    assert chern_residue(RotationVector(as_expansion([3]), (-1,))) == 2
    r = chern_residue(RotationVector(as_expansion([2, 3, 2]), (0, 1, 0)))
    assert type(r) is int and r == 2  # mod p = 8, pinned in test_contfrac
    assert chern_residue(RotationVector(as_expansion([5, 7]), (1, 1))) == 6
    assert chern_residue(RotationVector(as_expansion([5, 7]), (3, -5))) == 12
    assert chern_residue(zero_vector([2, 4, 2])) == 0


def test_classification():
    exp = as_expansion([5, 7])
    assert classify_structure(RotationVector(exp, (3, 5))) is TightClass.UNIVERSALLY_TIGHT
    assert classify_structure(RotationVector(exp, (-3, -5))) is TightClass.UNIVERSALLY_TIGHT
    assert classify_structure(RotationVector(exp, (3, -5))) is TightClass.VIRTUALLY_OVERTWISTED
    assert classify_structure(RotationVector(exp, (1, 1))) is TightClass.VIRTUALLY_OVERTWISTED
    # the all-2 chain has a single structure and it is universally tight
    assert classify_structure(zero_vector([2, 2, 2])) is TightClass.UNIVERSALLY_TIGHT


def test_universally_tight_count():
    # Exactly two extremal structures, collapsing to one when every
    # coefficient is 2; and on every structure with p <= 100 the one-sum
    # test agrees with the definition by the two extremal tuples.
    structures = 0
    for p in range(2, 101):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            ut = []
            for rot in enumerate_structures(exp):
                cls = classify_structure(rot)
                assert cls is extremal_class(rot), (p, q, rot.r)
                if cls is TightClass.UNIVERSALLY_TIGHT:
                    ut.append(rot)
                structures += 1
            expected = 1 if all(a == 2 for a in exp) else 2
            assert len(ut) == expected
    assert structures == 44_366


def test_residue_zero_iff_zero_vector_examples():
    assert check_c1_theorem([2, 4, 2])
    assert check_c1_theorem([5, 7])
    assert check_c1_theorem([2])
    # all-odd expansion: no structure has residue 0 at all
    for rot in enumerate_structures([5, 7]):
        assert chern_residue(rot) != 0


def test_residue_zero_iff_zero_vector_exhaustive():
    for p in range(2, 101):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            assert check_c1_theorem(expand(p, q))


def test_bound_report_examples():
    rep = lemma_bounds(RotationVector(as_expansion([2, 3, 2]), (0, 1, 0)))
    assert rep.sum_below_det
    assert rep.tail_weight_grows
    assert rep.last_dominates_prev  # vacuous: last rotation number is 0
    assert rep.last_dominates_rest
    assert rep.all_hold

    rep = lemma_bounds(RotationVector(as_expansion([3, 3]), (1, -1)))
    # mu = (1, 3), det = 8: sum is -2, last term 3 dominates head 1
    assert rep.all_hold

    rep = lemma_bounds(zero_vector([2, 2]))
    assert rep.all_hold

    rep = lemma_bounds(RotationVector(as_expansion([3]), (1,)))
    assert rep.all_hold


def test_bounds_hold_exhaustive():
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            for rot in enumerate_structures(exp):
                assert lemma_bounds(rot).all_hold


def test_tail_weight_growth_wide_range():
    # a_n mu_n > a_{n-1} mu_{n-1} depends only on the expansion, so it can
    # be pushed much further than the per-structure checks
    for p in range(2, 501):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            if len(exp) < 2:
                continue
            inv = cf_invariants(exp)
            assert exp.coeffs[-1] * inv.mu[-1] - exp.coeffs[-2] * inv.mu[-2] > 0


def test_residue_zero_forces_zero_sum():
    # |sum r_i mu_i| < p, so residue 0 mod p pins the integer sum to 0.
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            inv = cf_invariants(exp)
            for rot in enumerate_structures(exp):
                total = sum(ri * mi for ri, mi in zip(rot.r, inv.mu))
                assert abs(total) < p
                if total % p == 0:
                    assert total == 0


def test_enumerated_vectors_and_kept_residues_match_fresh_ones():
    assert enumerated_structure_mismatches(100) == []
