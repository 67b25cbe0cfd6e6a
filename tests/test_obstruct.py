"""Tests for the layered decision procedure and the scan stream.

All verdicts asserted here were frozen from an independent brute-force
pass (box-scan short vectors, all-matrix group filtering) before the
decision code was trusted.
"""

import math

import pytest

from lensmilnor import (
    InvalidInputError,
    Isometry,
    Outcome,
    Reason,
    RotationVector,
    TightClass,
    Verdict,
    as_expansion,
    decide_full,
    decide_theorem,
    enumerate_structures,
    evaluate_one,
    expand,
    find_isometry_with_trace,
    gram,
    scan,
    zero_vector,
)
from lensmilnor.lattice import weyl_witness
from verification import is_isometry_dense

MINUS_RHO_3 = Isometry(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))


def _zero(p, q):
    return zero_vector(expand(p, q))


def test_reason_obstructs():
    obstructing = {
        Reason.CHERN_NONZERO,
        Reason.THEOREM_B,
        Reason.THEOREM_CI,
        Reason.THEOREM_CII,
        Reason.COMPUTED_NO_TRACE_MINUS_ONE,
    }
    for reason in Reason:
        assert reason.obstructs == (reason in obstructing)


def test_verdict_invariants():
    with pytest.raises(InvalidInputError):
        Verdict(Outcome.OBSTRUCTED, None)
    with pytest.raises(InvalidInputError):
        Verdict(Outcome.OBSTRUCTED, Reason.TRACE_WITNESS_EXISTS)
    with pytest.raises(InvalidInputError):
        Verdict(Outcome.KNOWN_REALIZABLE, Reason.THEOREM_B)
    with pytest.raises(InvalidInputError):
        Verdict(Outcome.INCONCLUSIVE, Reason.TRACE_WITNESS_EXISTS)
    v = Verdict(Outcome.INCONCLUSIVE, None)
    assert v.witness is None
    assert v.trace_multiset is None
    assert v.group_order is None


def test_chern_gate():
    # all-odd expansion: every structure is ruled out by the residue
    exp = expand(34, 7)
    assert exp.coeffs == (5, 7)
    rots = enumerate_structures(exp)
    assert len(rots) == 24
    for rot in rots:
        v = decide_theorem(34, 7, rot)
        assert v.outcome is Outcome.OBSTRUCTED
        assert v.reason is Reason.CHERN_NONZERO
        assert v.complete


def test_theorem_layer():
    v = decide_theorem(15, 4, _zero(15, 4))
    assert (v.outcome, v.reason) == (Outcome.OBSTRUCTED, Reason.THEOREM_B)

    v = decide_theorem(209, 56, _zero(209, 56))
    assert expand(209, 56).coeffs == (4, 4, 4, 4)
    assert (v.outcome, v.reason) == (Outcome.OBSTRUCTED, Reason.THEOREM_CII)

    v = decide_theorem(180, 47, _zero(180, 47))
    assert expand(180, 47).coeffs == (4, 6, 8)
    assert (v.outcome, v.reason) == (Outcome.OBSTRUCTED, Reason.THEOREM_CI)

    # a coefficient 2 in a length-3 expansion keeps the theorem silent
    v = decide_theorem(12, 7, _zero(12, 7))
    assert (v.outcome, v.reason) == (Outcome.INCONCLUSIVE, None)
    assert v.complete

    # length-3 all-large palindromic expansion: silent as well
    v = decide_theorem(56, 15, _zero(56, 15))
    assert expand(56, 15).coeffs == (4, 4, 4)
    assert (v.outcome, v.reason) == (Outcome.INCONCLUSIVE, None)


def test_registry():
    v = decide_theorem(8, 1, _zero(8, 1))
    assert (v.outcome, v.reason) == (Outcome.KNOWN_REALIZABLE, Reason.REGISTRY_HIRZEBRUCH)
    assert v.certificate == "z^2+xy^n"

    for p, q in [(2, 1), (3, 2), (7, 6)]:
        v = decide_theorem(p, q, _zero(p, q))
        assert (v.outcome, v.reason) == (Outcome.KNOWN_REALIZABLE, Reason.REGISTRY_AN)
        assert v.certificate == "z^p+2xy"


def test_registry_consistency():
    # among zero-vector-admissible pairs, exactly q = 1 and q = p-1 land
    # in the registry; [2] (p = 2) matches the all-2 family first
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            exp = expand(p, q)
            if any(a % 2 for a in exp):
                continue
            v = decide_theorem(p, q, zero_vector(exp))
            if q == p - 1:
                assert v.reason is Reason.REGISTRY_AN
            elif q == 1:
                assert v.reason is Reason.REGISTRY_HIRZEBRUCH
            else:
                assert v.outcome is not Outcome.KNOWN_REALIZABLE


def test_gate_soundness():
    # nonzero residue always yields ChernNonzero; zero residue never does
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for rot in enumerate_structures(expand(p, q)):
                v = decide_theorem(p, q, rot)
                if rot.is_zero:
                    assert v.reason is not Reason.CHERN_NONZERO
                else:
                    assert (v.outcome, v.reason) == (
                        Outcome.OBSTRUCTED,
                        Reason.CHERN_NONZERO,
                    )


def test_full_decision_witnesses():
    v = decide_full(12, 7, _zero(12, 7))
    assert (v.outcome, v.reason) == (Outcome.INCONCLUSIVE, Reason.TRACE_WITNESS_EXISTS)
    assert v.witness == MINUS_RHO_3
    assert v.complete
    assert v.group_order is None
    assert v.trace_multiset is None

    v = decide_full(56, 15, _zero(56, 15))
    assert v.reason is Reason.TRACE_WITNESS_EXISTS
    assert v.witness == MINUS_RHO_3

    v = decide_full(10, 7, _zero(10, 7))
    assert v.reason is Reason.TRACE_WITNESS_EXISTS
    assert v.witness == Isometry(((0, 1, 0), (1, 0, 0), (-1, -1, -1)))

    v = decide_full(13, 10, _zero(13, 10))
    assert v.reason is Reason.TRACE_WITNESS_EXISTS
    assert v.witness == Isometry(
        ((0, -1, 0, 0), (1, 1, 0, 0), (-1, -1, -1, 0), (0, 0, 0, -1))
    )


def test_full_decision_computed_obstruction():
    # [2, 4, 2, 4]: complete group of order 8 with no trace -1 element
    assert expand(41, 24).coeffs == (2, 4, 2, 4)
    v = decide_full(41, 24, _zero(41, 24))
    assert (v.outcome, v.reason) == (
        Outcome.OBSTRUCTED,
        Reason.COMPUTED_NO_TRACE_MINUS_ONE,
    )
    assert v.complete
    assert v.trace_multiset == (-4, -2, -2, 0, 0, 2, 2, 4)
    assert v.group_order == 8
    assert v.witness is None
    # the reversed expansion decides the same way
    assert expand(41, 12).coeffs == (4, 2, 4, 2)
    v = decide_full(41, 12, _zero(41, 12))
    assert v.reason is Reason.COMPUTED_NO_TRACE_MINUS_ONE
    assert v.group_order == 8


def test_full_decision_capped():
    # [4, 2, 4, 2] has no Weyl-group witness and its search needs 464
    # steps: a smaller cap gives up honestly
    assert expand(41, 12).coeffs == (4, 2, 4, 2)
    assert weyl_witness(gram(expand(41, 12))) is None
    v = decide_full(41, 12, _zero(41, 12), cap=100)
    assert (v.outcome, v.reason) == (Outcome.INCONCLUSIVE, None)
    assert not v.complete
    assert v.certificate is None
    assert find_isometry_with_trace(gram(expand(41, 12)), -1, 463).complete is False
    assert find_isometry_with_trace(gram(expand(41, 12)), -1, 464).complete
    # long 2-run: the search alone caps, the Weyl group of the run of 2s
    # supplies an exactly checked witness
    assert expand(25, 8).coeffs == (4, 2, 2, 2, 2, 2, 2, 2)
    lat = gram(expand(25, 8))
    assert not find_isometry_with_trace(lat, -1, 20_000).complete
    v = decide_full(25, 8, _zero(25, 8), cap=20_000)
    assert (v.outcome, v.reason) == (Outcome.INCONCLUSIVE, Reason.TRACE_WITNESS_EXISTS)
    assert v.complete
    assert v.witness == weyl_witness(lat)
    assert v.witness.trace == -1
    assert is_isometry_dense(lat.diag, v.witness)


def test_full_decision_passthrough():
    # theorem-layer and registry verdicts survive decide_full unchanged
    v = decide_full(15, 4, _zero(15, 4))
    assert v.reason is Reason.THEOREM_B
    v = decide_full(209, 56, _zero(209, 56), cross_validate_below=300)
    assert v.reason is Reason.THEOREM_CII
    v = decide_full(180, 47, _zero(180, 47))
    assert v.reason is Reason.THEOREM_CI
    v = decide_full(8, 1, _zero(8, 1))
    assert v.reason is Reason.REGISTRY_HIRZEBRUCH
    v = decide_full(3, 2, _zero(3, 2))
    assert v.reason is Reason.REGISTRY_AN
    # cross-validation can be disabled without changing the verdict
    v = decide_full(15, 4, _zero(15, 4), cross_validate_below=0)
    assert v.reason is Reason.THEOREM_B


def test_mismatched_rotation_raises():
    rot = _zero(12, 7)
    with pytest.raises(InvalidInputError):
        decide_theorem(10, 7, rot)
    with pytest.raises(InvalidInputError):
        decide_full(10, 7, rot)
    with pytest.raises(InvalidInputError):
        evaluate_one(10, 7, rot)
    with pytest.raises(InvalidInputError):
        decide_theorem(12, 5, rot)  # 12/5 expands to [3, 2, 2]


def test_evaluate_one():
    rec = evaluate_one(41, 24, _zero(41, 24))
    assert (rec.p, rec.q) == (41, 24)
    assert rec.coeffs.coeffs == (2, 4, 2, 4)
    assert rec.rotation.is_zero
    assert rec.tight_class is TightClass.VIRTUALLY_OVERTWISTED
    assert rec.chern == 0
    assert rec.verdict.reason is Reason.COMPUTED_NO_TRACE_MINUS_ONE
    assert rec.error is None

    rec = evaluate_one(41, 24, _zero(41, 24), theorem_only=True)
    assert (rec.verdict.outcome, rec.verdict.reason) == (Outcome.INCONCLUSIVE, None)
    assert rec.verdict.complete

    exp = as_expansion([5, 7])
    rec = evaluate_one(34, 7, RotationVector(exp, (3, 5)))
    assert rec.tight_class is TightClass.UNIVERSALLY_TIGHT
    assert rec.chern == (3 * 1 + 5 * 5) % 34
    assert rec.verdict.reason is Reason.CHERN_NONZERO


def test_scan_smallest():
    records = list(scan(2))
    assert len(records) == 1
    rec = records[0]
    assert (rec.p, rec.q) == (2, 1)
    assert rec.verdict.reason is Reason.REGISTRY_AN


def test_scan_first_three():
    records = list(scan(3))
    assert [(r.p, r.q, r.rotation.r) for r in records] == [
        (2, 1, (0,)),
        (3, 1, (-1,)),
        (3, 1, (1,)),
        (3, 2, (0, 0)),
    ]
    assert records[1].chern == 2
    assert records[2].chern == 1
    assert records[1].verdict.reason is Reason.CHERN_NONZERO
    assert records[3].verdict.reason is Reason.REGISTRY_AN
    assert all(r.error is None for r in records)


def test_scan_filters():
    zero_only = list(scan(10, rot_zero_only=True))
    assert all(r.rotation.is_zero for r in zero_only)
    assert all(all(a % 2 == 0 for a in r.coeffs) for r in zero_only)
    expected_pairs = []
    for p in range(2, 11):
        for q in range(1, p):
            if math.gcd(p, q) == 1 and all(a % 2 == 0 for a in expand(p, q)):
                expected_pairs.append((p, q))
    assert [(r.p, r.q) for r in zero_only] == expected_pairs

    evens = list(scan(10, all_even_only=True))
    assert all(all(a % 2 == 0 for a in r.coeffs) for r in evens)
    assert {(r.p, r.q) for r in evens} == set(expected_pairs)
    # all structures of each all-even pair appear, not just the zero one
    by_pair = {}
    for r in evens:
        by_pair.setdefault((r.p, r.q), []).append(r.rotation.r)
    assert by_pair[(4, 1)] == [(-2,), (0,), (2,)]


def test_scan_is_deterministic():
    assert list(scan(20)) == list(scan(20))


def test_scan_bad_pmax():
    with pytest.raises(InvalidInputError):
        list(scan(1))
