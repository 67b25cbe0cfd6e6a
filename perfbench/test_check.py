"""Tests for the benchmark's own output check, on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import gcd

import pytest

from check import (
    check_groups,
    check_records,
    is_trace_minus_one_isometry,
    ref_key,
    structure_total,
)
from worker import SRC, _records, _render_group, import_package
from workloads import _gerstein_pairs, expansion, pairs_for, searched_pairs, universe

lm = import_package()
from lensmilnor.cli import OutputRecord, emit_record  # noqa: E402

PAIRS = [(p, q) for p in range(2, 13) for q in range(1, p) if gcd(p, q) == 1]


def _lines(theorem_only: bool) -> list[dict]:
    out = []
    for p, q in PAIRS:
        for rot in lm.enumerate_structures(lm.expand(p, q)):
            rec = lm.evaluate_one(p, q, rot, theorem_only=theorem_only)
            out.append(json.loads(emit_record(OutputRecord.from_record(rec), "json")))
    return out


def _raw(objs: list[dict]) -> list[bytes]:
    """Lines as `--format json` writes them."""
    return [(json.dumps(o, separators=(",", ":")) + "\n").encode() for o in objs]


def _reference(lines: list[dict]) -> dict[str, list]:
    return {
        ref_key(o["p"], o["q"], o["rotation"]): [o["verdict"], o["reason"], o["complete"]]
        for o in lines
        if (o["verdict"], o["reason"], o["complete"]) != ("Obstructed", "ChernNonzero", True)
    }


@pytest.fixture(scope="module")
def full():
    lines = _lines(theorem_only=False)
    return lines, _reference(lines)


def test_clean_stream_passes(full):
    lines, ref = full
    tally = check_records(_raw(lines), PAIRS, ref)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == len(lines)
    assert tally.decided["TraceWitnessExists"] >= 1


def test_theorem_only_stream_passes():
    lines = _lines(theorem_only=True)
    tally = check_records(_raw(lines), PAIRS, _reference(lines))
    assert tally.failed == 0, tally.problems
    assert tally.decided["silent"] >= 1


def test_corrupted_witness_fails(full):
    lines, ref = full
    i = next(i for i, o in enumerate(lines) if o["witness"] is not None)
    bad = [dict(o) for o in lines]
    bad[i]["witness"] = list(bad[i]["witness"])
    bad[i]["witness"][0] += 1
    tally = check_records(_raw(bad), PAIRS, ref)
    assert tally.failed == 1
    assert "witness is not a trace -1 isometry" in tally.problems[0]


def test_flipped_verdict_fails(full):
    lines, ref = full
    i = next(i for i, o in enumerate(lines) if o["reason"] == "TheoremB")
    flipped = [dict(o) for o in lines]
    flipped[i]["verdict"] = "KnownRealizable"
    assert check_records(_raw(flipped), PAIRS, ref).failed == 1
    # A verdict that meets every hypothesis still has to match the reference.
    j = next(i for i, o in enumerate(lines) if o["reason"] == "TraceWitnessExists")
    o = lines[j]
    ref = dict(ref)
    ref[ref_key(o["p"], o["q"], o["rotation"])] = ["Obstructed", "ComputedNoTraceMinusOne", True]
    tally = check_records(_raw(lines), PAIRS, ref)
    assert tally.failed == 1 and "reference" in tally.problems[0]


def test_wrong_residue_on_chern_nonzero_record_fails(full):
    lines, ref = full
    i = next(i for i, o in enumerate(lines) if o["reason"] == "ChernNonzero")
    bad = [dict(o) for o in lines]
    bad[i]["chern"] = (bad[i]["chern"] + 1) % bad[i]["p"] or 1
    tally = check_records(_raw(bad), PAIRS, ref)
    assert tally.failed == 1 and "chern" in tally.problems[0]


def test_error_row_marked_complete_fails(full):
    lines, ref = full
    err = [dict(o) for o in lines]
    err[3].update(verdict="Error", reason="boom", complete=True)
    tally = check_records(_raw(err), PAIRS, ref)
    assert tally.failed == 1
    assert "Error row" in tally.problems[0]


def test_capped_reference_may_become_complete(full):
    lines, ref = full
    i = next(i for i, o in enumerate(lines) if o["reason"] == "TraceWitnessExists")
    o = lines[i]
    ref = dict(ref)
    ref[ref_key(o["p"], o["q"], o["rotation"])] = ["Inconclusive", None, False]
    assert check_records(_raw(lines), PAIRS, ref).failed == 0


def test_capped_reference_may_not_become_a_theorem_verdict(full):
    lines, ref = full
    i = next(i for i, o in enumerate(lines) if o["reason"] == "TraceWitnessExists")
    o = lines[i]
    ref = dict(ref)
    ref[ref_key(o["p"], o["q"], o["rotation"])] = ["Inconclusive", None, False]
    for verdict, reason in (("Obstructed", "TheoremCi"), ("Inconclusive", None)):
        bad = [dict(x) for x in lines]
        bad[i].update(verdict=verdict, reason=reason, witness=None)
        tally = check_records(_raw(bad), PAIRS, ref)
        assert tally.failed == 1, (verdict, reason)


def test_reason_must_meet_its_hypothesis(full):
    lines, ref = full
    # An empty reference holds nothing to compare with, so only the
    # hypothesis tests can catch these.
    i = next(i for i, o in enumerate(lines) if o["reason"] == "TheoremB")
    j = next(i for i, o in enumerate(lines) if o["reason"] == "TraceWitnessExists")
    for k, verdict, reason in (
        (i, "KnownRealizable", "RegistryAn"),  # TheoremB's hypothesis holds
        (i, "Obstructed", "ChernNonzero"),  # the residue is 0
        (j, "Obstructed", "TheoremCii"),  # the theorem layer is silent
    ):
        bad = [dict(x) for x in lines]
        bad[k].update(verdict=verdict, reason=reason, witness=None)
        problems = check_records(_raw(bad), PAIRS, {}).problems
        assert any("hypothesis" in p or "chern 0" in p for p in problems), (reason, problems)


def test_records_loop_matches_scan():
    """The worker's per-pair loop prints what scan() prints."""
    pairs = [(p, q) for p, q in universe("scan_p50") if p <= 14]
    fns = {"expand": lm.expand, "enumerate_structures": lm.enumerate_structures,
           "evaluate_one": lm.evaluate_one}
    render = lambda rec: emit_record(OutputRecord.from_record(rec), "json")  # noqa: E731
    ours = [render(r) for r in _records("scan_p50", pairs, fns, lm, 1_000_000)]
    assert ours == [render(r) for r in lm.scan(14, cap=1_000_000)]


def test_render_group_matches_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for p, q in [(8, 3), (21, 8), (55, 21)]:
        cli = subprocess.run(
            [sys.executable, "-m", "lensmilnor.cli", "autgroup", f"{p}/{q}", "--format", "json"],
            capture_output=True, env=env, check=True,
        ).stdout
        diag = tuple(lm.expand(p, q))
        assert _render_group(diag, lm.orthogonal_group(lm.IntersectionLattice(diag))) == cli


def test_missing_and_surplus_records_fail(full):
    lines, ref = full
    assert check_records(_raw(lines[:-1]), PAIRS, ref).failed == 1
    tally = check_records(_raw(lines + lines[-1:]), PAIRS, ref)
    assert tally.failed == 1 and tally.attempted == len(lines) + 1


def test_witness_arithmetic():
    # -rho has trace -1 for odd rank but preserves only a palindromic diagonal.
    minus_rho = [0, 0, -1, 0, -1, 0, -1, 0, 0]
    assert is_trace_minus_one_isometry((3, 2, 3), minus_rho)
    assert not is_trace_minus_one_isometry((2, 2, 4), minus_rho)
    v = lm.decide_full(12, 7, lm.zero_vector(lm.expand(12, 7)))
    flat = list(v.witness.flatten())
    assert is_trace_minus_one_isometry((2, 4, 2), flat)
    flat[4] += 2
    assert not is_trace_minus_one_isometry((2, 4, 2), flat)


def test_groups_checked_against_prediction():
    pairs = [(8, 3), (21, 8), (11, 3)]
    lines = []
    for p, q in pairs:
        diag = tuple(lm.expand(p, q))
        group = lm.orthogonal_group(lm.IntersectionLattice(diag))
        lines.append(json.loads(_render_group(diag, group)))
    assert check_groups(_raw(lines), pairs).failed == 0
    bad = [dict(o) for o in lines]
    bad[1]["elements"] = bad[1]["elements"][:2]
    bad[1]["order"] = 2
    assert check_groups(_raw(bad), pairs).failed == 1


def test_gerstein_inputs_match_brute_filter():
    brute = [
        (p, q) for p in range(2, 80) for q in range(1, p)
        if gcd(p, q) == 1 and len(c := expansion(p, q)) >= 2 and min(c) >= 3
    ]
    assert sorted(_gerstein_pairs(79)) == brute


def test_samples_are_seeded_and_keep_searched_pairs():
    ref = {"scan_p50": {"records": {"46/15/0,0,0": ["Inconclusive", None, False]}}}
    a = pairs_for("scan_p50", 5, ref)
    assert a == pairs_for("scan_p50", 5, ref)
    assert a != pairs_for("scan_p50", 6, ref)
    records = lambda pairs: sum(structure_total(expansion(*pq)) for pq in pairs)  # noqa: E731
    assert records(a) == records(pairs_for("scan_p50", 0, ref))
    assert a.count((46, 15)) == 1
    assert searched_pairs(ref["scan_p50"]["records"]) == {(46, 15)}


def test_gerstein_samples_are_distinct():
    a = pairs_for("gerstein_autgroup", 3, {})
    assert a == pairs_for("gerstein_autgroup", 3, {})
    assert len(a) == len(set(a)) == len(universe("gerstein_autgroup"))
    assert a != pairs_for("gerstein_autgroup", 4, {})
