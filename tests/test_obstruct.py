"""Tests for the layered decision procedure and the scan stream.

All verdicts asserted here were frozen from an independent brute-force
pass (box-scan short vectors, all-matrix group filtering) before the
decision code was trusted.
"""

import math
from collections import Counter
from dataclasses import fields as dataclass_fields

import pytest

from lensmilnor import (
    InvalidInputError,
    Isometry,
    LensSpace,
    Outcome,
    Reason,
    RotationVector,
    TightClass,
    Verdict,
    as_expansion,
    chern_residue,
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
from lensmilnor import contact, obstruct
from lensmilnor.lattice import weyl_witness
from verification import is_isometry_dense

MINUS_RHO_3 = Isometry(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))


def _zero(p, q):
    return zero_vector(expand(p, q))


def test_reason_outcome():
    # Obstructed only from a proved condition, KnownRealizable only from
    # the registry, and a verdict's outcome is its reason's.
    expected = {
        Reason.CHERN_NONZERO: Outcome.OBSTRUCTED,
        Reason.THEOREM_B: Outcome.OBSTRUCTED,
        Reason.THEOREM_CI: Outcome.OBSTRUCTED,
        Reason.THEOREM_CII: Outcome.OBSTRUCTED,
        Reason.COMPUTED_NO_TRACE_MINUS_ONE: Outcome.OBSTRUCTED,
        Reason.REGISTRY_HIRZEBRUCH: Outcome.KNOWN_REALIZABLE,
        Reason.REGISTRY_AN: Outcome.KNOWN_REALIZABLE,
        Reason.TRACE_WITNESS_EXISTS: Outcome.INCONCLUSIVE,
    }
    assert set(expected) == set(Reason)
    for reason, outcome in expected.items():
        assert reason.outcome is outcome
        certificate = {
            Reason.TRACE_WITNESS_EXISTS: MINUS_RHO_3,
            Reason.COMPUTED_NO_TRACE_MINUS_ONE: ((-2, 1), (0, 2), (2, 1)),
        }.get(reason)
        assert Verdict(reason, certificate).outcome is outcome
    assert Verdict(None).outcome is Outcome.INCONCLUSIVE
    assert Verdict(None, complete=False).outcome is Outcome.INCONCLUSIVE


def test_verdict_invariants():
    with pytest.raises(InvalidInputError):
        Verdict(Reason.TRACE_WITNESS_EXISTS)
    with pytest.raises(InvalidInputError):
        Verdict(Reason.TRACE_WITNESS_EXISTS, (-1, 1))
    # a witness must have trace -1: the 1 x 1 identity has trace 1
    with pytest.raises(InvalidInputError):
        Verdict(Reason.TRACE_WITNESS_EXISTS, Isometry(((1,),)))
    assert Verdict(Reason.TRACE_WITNESS_EXISTS, MINUS_RHO_3).witness is MINUS_RHO_3
    # the absence of trace -1 needs its proof: a non-empty histogram
    # without -1
    for certificate in (None, (), ((-2, 1), (-1, 2), (0, 1))):
        with pytest.raises(InvalidInputError):
            Verdict(Reason.COMPUTED_NO_TRACE_MINUS_ONE, certificate)
    v = Verdict(None)
    assert v.witness is None
    assert v.group_order is None


def test_verdict_output_fields_are_kept_not_fields():
    # output_fields is computed once and kept on the instance, outside
    # the fields: equality, the hash and repr see only the fields.
    cases = [
        (Verdict(Reason.CHERN_NONZERO), ("Obstructed", "ChernNonzero", None, None, True)),
        (Verdict(Reason.REGISTRY_AN, "z^p+2xy"), ("KnownRealizable", "RegistryAn", None, None, True)),
        (
            Verdict(Reason.TRACE_WITNESS_EXISTS, MINUS_RHO_3),
            ("Inconclusive", "TraceWitnessExists", MINUS_RHO_3.flatten(), None, True),
        ),
        (
            Verdict(Reason.COMPUTED_NO_TRACE_MINUS_ONE, ((-2, 1), (0, 2), (2, 1))),
            ("Obstructed", "ComputedNoTraceMinusOne", None, 4, True),
        ),
        (Verdict(None, complete=False), ("Inconclusive", None, None, None, False)),
    ]
    assert "output_fields" not in {f.name for f in dataclass_fields(Verdict)}
    for warm, expected in cases:
        assert warm.output_fields == expected
        assert warm.output_fields is warm.output_fields
        cold = Verdict(warm.reason, warm.certificate, warm.complete)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
    assert obstruct._CHERN_NONZERO.output_fields is obstruct._CHERN_NONZERO.output_fields


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
    assert v.certificate == ((-4, 1), (-2, 2), (0, 2), (2, 2), (4, 1))
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


def test_full_decision_checks_its_cap():
    # A bad cap raises before any layer decides: for the Chern-nonzero
    # structures of 7/3, the registry's 6/1 and the searched 12/7.
    structures = [(7, 3, rot) for rot in enumerate_structures(expand(7, 3))]
    assert [decide_full(*s).reason for s in structures] == [Reason.CHERN_NONZERO] * 2
    structures += [(6, 1, _zero(6, 1)), (12, 7, _zero(12, 7))]
    assert decide_full(6, 1, _zero(6, 1)).reason is Reason.REGISTRY_HIRZEBRUCH
    assert decide_full(12, 7, _zero(12, 7)).reason is Reason.TRACE_WITNESS_EXISTS
    for s in structures:
        with pytest.raises(InvalidInputError, match="^cap must be positive, got 0$"):
            decide_full(*s, cap=0)
        with pytest.raises(InvalidInputError, match="^cap must be an integer, got True$"):
            decide_full(*s, cap=True)


def test_full_decision_passthrough(monkeypatch):
    # theorem-layer and registry verdicts survive decide_full unchanged
    v = decide_full(15, 4, _zero(15, 4))
    assert v.reason is Reason.THEOREM_B
    monkeypatch.setattr(obstruct, "_CROSS_VALIDATE_MAX_P", 300)
    v = decide_full(209, 56, _zero(209, 56))
    assert v.reason is Reason.THEOREM_CII
    monkeypatch.undo()
    v = decide_full(180, 47, _zero(180, 47))
    assert v.reason is Reason.THEOREM_CI
    v = decide_full(8, 1, _zero(8, 1))
    assert v.reason is Reason.REGISTRY_HIRZEBRUCH
    v = decide_full(3, 2, _zero(3, 2))
    assert v.reason is Reason.REGISTRY_AN
    # cross-validation can be disabled without changing the verdict
    monkeypatch.setattr(obstruct, "_CROSS_VALIDATE_MAX_P", 0)
    v = decide_full(15, 4, _zero(15, 4))
    assert v.reason is Reason.THEOREM_B


def test_contradicted_chern_gate_becomes_error_rows(monkeypatch):
    # A zero residue with a nonzero rotation vector would contradict the
    # vanishing theorem: an internal error, reported as Error rows, never
    # a traceback or a silent Inconclusive.
    monkeypatch.setattr(obstruct, "chern_residue", lambda rot: 0)
    with pytest.raises(RuntimeError, match="internal error"):
        decide_theorem(8, 3, RotationVector(expand(8, 3), (1, -1)))
    records = list(scan(8))
    errors = [r for r in records if r.error is not None]
    assert errors
    assert all(r.error.startswith("internal error: zero residue") for r in errors)
    assert all(r.verdict is None and not r.rotation.is_zero for r in errors)
    assert all(r.rotation.is_zero for r in records if r.error is None)


def test_mismatched_rotation_raises():
    rot = _zero(12, 7)
    with pytest.raises(InvalidInputError):
        decide_theorem(10, 7, rot)
    with pytest.raises(InvalidInputError):
        decide_full(10, 7, rot)
    with pytest.raises(InvalidInputError):
        evaluate_one(10, 7, rot)
    with pytest.raises(InvalidInputError):
        decide_theorem(12, 5, rot)  # 12/5 expands to [3, 2, 3]
    # A structure from a valid expansion of the same length and the same p
    # that belongs to another pair: 11/4 = [3, 4] is the reverse of
    # 11/3 = [4, 3].
    other = next(iter(enumerate_structures(expand(11, 4))))
    message = r"built for \(3, 4\), but 11/3 expands to \(4, 3\)"
    with pytest.raises(InvalidInputError, match=message):
        decide_theorem(11, 3, other)


def test_checked_fast_path_rejects_what_lens_space_rejects():
    # (p, q) equal to the expansion's kept fraction passes without a new
    # LensSpace only as two plain ints; anything else goes through
    # LensSpace and keeps its error text.
    rot = _zero(2, 1)
    assert decide_theorem(2, 1, rot).reason is Reason.REGISTRY_AN
    for p, q in [(2, True), (True, 1), (2.0, 1), (2, 1.0)]:
        with pytest.raises(InvalidInputError, match="^p and q must be integers$"):
            decide_theorem(p, q, rot)
        with pytest.raises(InvalidInputError, match="^p and q must be integers$"):
            LensSpace(p, q)
    with pytest.raises(InvalidInputError, match=r"^need 0 < q < p, got p=2, q=2$"):
        decide_theorem(2, 2, rot)
    with pytest.raises(InvalidInputError, match=r"^p and q must be coprime, got p=4, q=2$"):
        decide_theorem(4, 2, rot)
    rot = _zero(12, 7)
    message = r"^rotation vector was built for \(2, 4, 2\), but 10/7 expands to \(2, 2, 4\)$"
    with pytest.raises(InvalidInputError, match=message):
        decide_theorem(10, 7, rot)
    with pytest.raises(InvalidInputError, match=message):
        evaluate_one(10, 7, rot, theorem_only=True)


def test_theorem_only_records_reach_every_traced_boundary(monkeypatch):
    # The per-layer benchmark times these module-level names; each must
    # still be reached for every record, and no record re-expands p/q.
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("decide_theorem", "chern_residue", "classify_structure", "expand"):
        counted(obstruct, name)
    counted(contact, "cf_invariants")
    records = 0
    for p, q in [(2, 1), (7, 6), (8, 5), (12, 7), (15, 4), (41, 24), (157, 43), (199, 81)]:
        for rot in enumerate_structures(expand(p, q)):
            obstruct.evaluate_one(p, q, rot, theorem_only=True)
            records += 1
    assert records == 91
    assert calls.get("expand", 0) == 0
    assert calls["decide_theorem"] == records
    assert calls["classify_structure"] == records
    # One residue per record, for the Chern gate and the record alike.
    assert calls["chern_residue"] == records
    assert calls["cf_invariants"] >= records


# decide_theorem(p, q, rot) over every structure of each pair, counted by
# reason; frozen before the residue could be passed in.
_THEOREM_COUNTS = {
    (2, 1): {"RegistryAn": 1},
    (8, 1): {"ChernNonzero": 6, "RegistryHirzebruch": 1},
    (12, 7): {"ChernNonzero": 2, None: 1},
    (15, 4): {"ChernNonzero": 8, "TheoremB": 1},
    (34, 7): {"ChernNonzero": 24},
    (41, 24): {"ChernNonzero": 8, None: 1},
    (86, 15): {"ChernNonzero": 44, "TheoremCi": 1},
    (157, 43): {"ChernNonzero": 42},
    (199, 81): {"ChernNonzero": 24},
}


def test_passed_residue_decides_as_the_computed_one():
    for (p, q), counts in _THEOREM_COUNTS.items():
        reasons = Counter()
        for rot in enumerate_structures(expand(p, q)):
            chern = chern_residue(rot)
            verdict = decide_theorem(p, q, rot)
            assert decide_theorem(p, q, rot, chern=chern) == verdict
            rec = evaluate_one(p, q, rot, theorem_only=True)
            assert (rec.chern, rec.verdict) == (chern, verdict)
            if p <= 41:
                rec = evaluate_one(p, q, rot)
                assert (rec.chern, rec.verdict) == (chern, decide_full(p, q, rot))
            reasons[verdict.reason.value if verdict.reason else None] += 1
        assert reasons == counts, (p, q)


def test_passed_residue_is_held_against_the_vector():
    # The residue vanishes exactly at r = 0: a passed value that says
    # otherwise raises in both deciders, never decides.
    zero = _zero(12, 7)
    nonzero = RotationVector(expand(12, 7), (0, 2, 0))
    assert (chern_residue(zero), chern_residue(nonzero)) == (0, 4)
    for decide in (decide_theorem, decide_full):
        for chern in (1, 4):
            message = f"^internal error: residue {chern} for 12/7 with r = 0$"
            with pytest.raises(RuntimeError, match=message):
                decide(12, 7, zero, chern=chern)
        with pytest.raises(RuntimeError, match="^internal error: zero residue for 12/7 with r = "):
            decide(12, 7, nonzero, chern=0)
        # A wrong but nonzero residue for a nonzero vector still only
        # says what the true one says.
        assert decide(12, 7, nonzero, chern=3).reason is Reason.CHERN_NONZERO


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


def test_evaluated_records_equal_constructed_ones():
    # A record from evaluate_one must be indistinguishable from one the
    # public constructor builds from its fields.
    names = obstruct.Record._fields
    checked = 0
    for p, q, theorem_only in [(41, 24, False), (157, 43, True), (34, 7, False), (60, 7, True)]:
        for rot in enumerate_structures(expand(p, q)):
            rec = evaluate_one(p, q, rot, theorem_only=theorem_only)
            built = obstruct.Record(*(getattr(rec, name) for name in names))
            assert rec == built and built == rec
            assert hash(rec) == hash(built)
            assert repr(rec) == repr(built)
            checked += 1
    assert checked == 91


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


def test_scan_turns_a_structure_cap_into_error_rows():
    # As in obstruct and structures, the cap bounds each pair's structures:
    # pairs with more become one Error row each, and the scan goes on with
    # the next pair.
    records = list(scan(5, cap=2))
    errors = [r for r in records if r.error is not None]
    assert [(r.p, r.q) for r in errors] == [(4, 1), (5, 1)]
    assert errors[0].error == "3 structures exceed cap 2 for coefficients (4,)"
    assert all(r.rotation is None and r.verdict is None for r in errors)
    assert [(r.p, r.q) for r in records if r.error is None] == [
        (2, 1), (3, 1), (3, 1), (3, 2), (4, 3), (5, 2), (5, 2), (5, 3), (5, 3), (5, 4)
    ]
    # 7/1 = [7] has 6 structures.
    rows = [r for r in scan(7, cap=3) if (r.p, r.q) == (7, 1)]
    assert [r.error for r in rows] == ["6 structures exceed cap 3 for coefficients (7,)"]


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
    # True is not the p_max 1, and 2.5 and "x" are bad input, not a TypeError.
    for bad in (2.5, "x", True):
        with pytest.raises(InvalidInputError, match="^p_max must be an integer, got "):
            list(scan(bad))


def test_scan_checks_its_cap():
    # A bad cap fails the scan instead of becoming an Error row per pair.
    with pytest.raises(InvalidInputError, match="^cap must be positive, got 0$"):
        list(scan(12, cap=0))
    with pytest.raises(InvalidInputError, match="^cap must be an integer, got True$"):
        list(scan(12, cap=True))
