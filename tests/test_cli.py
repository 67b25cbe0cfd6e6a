"""End-to-end tests of the command-line interface.

Outputs are asserted at byte level where the format promises
reproducibility (json, csv); table output is checked structurally plus
for run-to-run byte equality.

test_golden_bytes freezes the stdout bytes and exit code of every
subcommand in every format, with and without --quiet, against the files
in tests/golden/.  After a deliberate output change, rewrite them with

    PYTHONPATH=src python3 tests/test_cli.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import lensmilnor.cli as cli
import lensmilnor.obstruct as obstruct
from lensmilnor.cli import OutputRecord, emit_record, main, render, run
from lensmilnor.contact import enumerate_structures, zero_vector
from lensmilnor.contfrac import expand
from lensmilnor.errors import InvalidInputError
from lensmilnor.lattice import TraceSearch
from lensmilnor.obstruct import Record, evaluate_one, scan
from verification import identity

GOLDEN = Path(__file__).resolve().parent / "golden"

# (name, argv, exit code, patched): each case runs in every format, with
# and without --quiet.  patched cases run with _contradicting_search in
# place, which makes scan and obstruct emit an "internal error" Error row
# for 7/4.
GOLDEN_CASES = [
    ("expand", ["expand", "28/15"], 0, False),
    ("structures", ["structures", "8/5"], 0, False),
    ("chern", ["chern", "8/5", "--rot=0,1,0"], 0, False),
    ("autgroup", ["autgroup", "12/7"], 0, False),
    ("autgroup_capped", ["autgroup", "--coeffs", "2,2", "--cap", "3", "--strict"], 2, False),
    ("autgroup_empty", ["autgroup", "--coeffs", "2,2", "--cap", "1"], 0, False),
    ("obstruct_chern", ["obstruct", "8/5"], 0, False),
    ("obstruct_registry", ["obstruct", "2/1"], 0, False),
    ("obstruct_theorem", ["obstruct", "15/4", "--rot=0,0"], 0, False),
    ("obstruct_computed", ["obstruct", "41/24", "--rot=0,0,0,0"], 0, False),
    ("obstruct_theorem_only", ["obstruct", "41/24", "--rot=0,0,0,0", "--theorem-only"], 0, False),
    ("obstruct_witness", ["obstruct", "12/7", "--rot=0,0,0"], 0, False),
    ("scan", ["scan", "--pmax", "4"], 0, False),
    ("scan_rot_zero", ["scan", "--pmax", "10", "--rot-zero-only"], 0, False),
    ("scan_all_even", ["scan", "--pmax", "7", "--all-even-only"], 0, False),
    ("scan_error", ["scan", "--pmax", "7", "--rot-zero-only"], 0, True),
    ("obstruct_error", ["obstruct", "7/4", "--strict"], 2, True),
]

_real_search = obstruct.find_isometry_with_trace


def _contradicting_search(lattice, trace, cap):
    """A broken trace search that finds a trace -1 witness on [2,4], where
    TheoremB proves none exists."""
    if lattice.diag == (2, 4):
        return TraceSearch(witness=identity(2), complete=True, traces=None)
    return _real_search(lattice, trace, cap)


def _golden_path(name, fmt, quiet):
    # json has no header line, so --quiet shares the default file.
    suffix = ".quiet" if quiet and fmt != "json" else ""
    return GOLDEN / f"{name}{suffix}.{fmt}"


def _capture(argv, patched):
    """Exit code and stdout bytes of one CLI run."""
    buf = io.BytesIO()
    stdout = io.TextIOWrapper(buf)
    patch = (
        mock.patch.object(obstruct, "find_isometry_with_trace", _contradicting_search)
        if patched
        else contextlib.nullcontext()
    )
    with patch, contextlib.redirect_stdout(stdout):
        code = run(argv)
    return code, buf.getvalue()


def _golden_params():
    for name, argv, code, patched in GOLDEN_CASES:
        for fmt in ("json", "csv", "table"):
            for quiet in (False, True):
                flags = ["--format", fmt] + (["--quiet"] if quiet else [])
                ident = f"{name}-{fmt}" + ("-quiet" if quiet else "")
                yield pytest.param(name, argv + flags, code, patched, fmt, quiet, id=ident)


def _run(capfdbinary, argv):
    code = run(argv)
    captured = capfdbinary.readouterr()
    return code, captured.out, captured.err


def test_expand_table(capfdbinary):
    code, out, err = _run(capfdbinary, ["expand", "28/15"])
    assert code == 0
    assert out == b"[2,8,2]\n"
    assert err == b""


def test_expand_json(capfdbinary):
    code, out, _ = _run(capfdbinary, ["expand", "28/15", "--format", "json"])
    assert code == 0
    assert out == b'{"p":28,"q":15,"coeffs":[2,8,2]}\n'


def test_expand_csv(capfdbinary):
    code, out, _ = _run(capfdbinary, ["expand", "28/15", "--format", "csv"])
    assert code == 0
    assert out == b"p,q,coeffs\n28,15,[2;8;2]\n"
    code, out, _ = _run(capfdbinary, ["expand", "28/15", "--format", "csv", "--quiet"])
    assert code == 0
    assert out == b"28,15,[2;8;2]\n"


def test_global_flags_before_subcommand(capfdbinary):
    code, out, _ = _run(capfdbinary, ["--format", "json", "expand", "28/15"])
    assert code == 0
    assert out == b'{"p":28,"q":15,"coeffs":[2,8,2]}\n'
    # Given on both sides of the subcommand, the later flag wins.
    code, out, _ = _run(capfdbinary, ["--format", "json", "expand", "28/15", "--format", "csv"])
    assert code == 0
    assert out == b"p,q,coeffs\n28,15,[2;8;2]\n"
    code, out, _ = _run(
        capfdbinary, ["--cap", "3", "--strict", "autgroup", "--coeffs", "2,2", "--format", "json"]
    )
    assert code == 2
    assert out == b'{"diag":[2,2],"order":0,"complete":false,"elements":[]}\n'
    code, out, _ = _run(capfdbinary, ["--quiet", "--format", "csv", "structures", "8/5"])
    assert code == 0
    assert out == b"8,5,[2;3;2],[0;-1;0],UT,6\n8,5,[2;3;2],[0;1;0],UT,2\n"
    code, out, err = _run(capfdbinary, ["--cap", "0", "expand", "28/15"])
    assert code == 1
    assert out == b""
    assert err == b"error: cap must be positive, got 0\n"


def test_structures(capfdbinary):
    code, out, _ = _run(capfdbinary, ["structures", "8/5", "--format", "csv"])
    assert code == 0
    assert out == (
        b"p,q,coeffs,rotation,tight_class,chern\n"
        b"8,5,[2;3;2],[0;-1;0],UT,6\n"
        b"8,5,[2;3;2],[0;1;0],UT,2\n"
    )
    code, out, _ = _run(capfdbinary, ["structures", "8/5", "--format", "json"])
    lines = out.splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "p": 8,
        "q": 5,
        "coeffs": [2, 3, 2],
        "rotation": [0, -1, 0],
        "tight_class": "UT",
        "chern": 6,
    }


def test_structures_cap(capfdbinary):
    code, out, err = _run(capfdbinary, ["structures", "34/7", "--cap", "10"])
    assert code == 1
    assert out == b""
    assert err.startswith(b"error:")


def test_chern(capfdbinary):
    code, out, _ = _run(capfdbinary, ["chern", "8/5", "--rot=0,1,0", "--format", "json"])
    assert code == 0
    assert out == (
        b'{"p":8,"q":5,"coeffs":[2,3,2],"rotation":[0,1,0],'
        b'"tight_class":"UT","chern":2}\n'
    )


def test_chern_requires_rot(capfdbinary):
    code, out, err = _run(capfdbinary, ["chern", "8/5"])
    assert code == 1
    assert err.startswith(b"error:")


def test_chern_rejects_bad_rot(capfdbinary):
    # parity violation: slot for coefficient 2 must hold 0
    code, _, err = _run(capfdbinary, ["chern", "8/5", "--rot=1,1,0"])
    assert code == 1
    assert err.startswith(b"error:")
    code, _, err = _run(capfdbinary, ["chern", "8/5", "--rot=0,x,0"])
    assert code == 1
    assert err.startswith(b"error:")


def test_obstruct_json(capfdbinary):
    code, out, _ = _run(
        capfdbinary, ["obstruct", "12/7", "--rot=0,0,0", "--format", "json"]
    )
    assert code == 0
    assert out == (
        b'{"p":12,"q":7,"coeffs":[2,4,2],"rotation":[0,0,0],"tight_class":"VO",'
        b'"chern":0,"verdict":"Inconclusive","reason":"TraceWitnessExists",'
        b'"witness":[0,0,-1,0,-1,0,-1,0,0],"group_order":null,"complete":true}\n'
    )


def test_obstruct_csv(capfdbinary):
    code, out, _ = _run(
        capfdbinary, ["obstruct", "12/7", "--rot=0,0,0", "--format", "csv"]
    )
    assert code == 0
    assert out == (
        b"p,q,coeffs,rotation,tight_class,chern,verdict,reason,witness,"
        b"group_order,complete\n"
        b"12,7,[2;4;2],[0;0;0],VO,0,Inconclusive,TraceWitnessExists,"
        b"0;0;-1;0;-1;0;-1;0;0,,true\n"
    )


def test_obstruct_table(capfdbinary):
    code, out, _ = _run(capfdbinary, ["obstruct", "12/7", "--rot=0,0,0"])
    assert code == 0
    lines = out.decode().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("p")
    assert "verdict" in lines[0]
    assert "[2,4,2]" in lines[1]
    assert "TraceWitnessExists" in lines[1]
    assert "[[0,0,-1],[0,-1,0],[-1,0,0]]" in lines[1]
    # run-to-run byte determinism
    _, again, _ = _run(capfdbinary, ["obstruct", "12/7", "--rot=0,0,0"])
    assert again == out


def test_obstruct_registry_row(capfdbinary):
    code, out, _ = _run(capfdbinary, ["obstruct", "2/1", "--format", "csv", "--quiet"])
    assert code == 0
    assert out == b"2,1,[2],[0],UT,0,KnownRealizable,RegistryAn,,,true\n"


def test_obstruct_computed_row(capfdbinary):
    code, out, _ = _run(
        capfdbinary,
        ["obstruct", "41/24", "--rot=0,0,0,0", "--format", "csv", "--quiet"],
    )
    assert code == 0
    assert out == (
        b"41,24,[2;4;2;4],[0;0;0;0],VO,0,Obstructed,ComputedNoTraceMinusOne,"
        b",8,true\n"
    )


def test_obstruct_theorem_only(capfdbinary):
    code, out, _ = _run(
        capfdbinary,
        ["obstruct", "41/24", "--rot=0,0,0,0", "--theorem-only", "--format", "csv", "--quiet"],
    )
    assert code == 0
    assert out == b"41,24,[2;4;2;4],[0;0;0;0],VO,0,Inconclusive,,,,true\n"


def test_obstruct_all_structures(capfdbinary):
    code, out, _ = _run(capfdbinary, ["obstruct", "34/7", "--format", "json"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    for line in lines:
        obj = json.loads(line)
        assert obj["verdict"] == "Obstructed"
        assert obj["reason"] == "ChernNonzero"
        assert obj["chern"] != 0


def test_obstruct_nonzero_rot_row(capfdbinary):
    code, out, _ = _run(
        capfdbinary, ["obstruct", "8/5", "--rot=0,-1,0", "--format", "csv", "--quiet"]
    )
    assert code == 0
    assert out == b"8,5,[2;3;2],[0;-1;0],UT,6,Obstructed,ChernNonzero,,,true\n"


def test_autgroup_json(capfdbinary):
    code, out, _ = _run(capfdbinary, ["autgroup", "--coeffs", "4,4", "--format", "json"])
    assert code == 0
    assert out == (
        b'{"diag":[4,4],"order":4,"complete":true,'
        b'"elements":[[0,-1,-1,0],[0,1,1,0],[-1,0,0,-1],[1,0,0,1]]}\n'
    )


def test_autgroup_table(capfdbinary):
    code, out, _ = _run(capfdbinary, ["autgroup", "--coeffs", "4,4"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "# diag [4,4] order 4 complete true"
    assert lines[1].split() == ["index", "trace", "matrix"]
    assert len(lines) == 6
    assert lines[2].split() == ["0", "0", "[[0,-1],[-1,0]]"]
    assert lines[5].split() == ["3", "2", "[[1,0],[0,1]]"]


def test_autgroup_csv(capfdbinary):
    code, out, _ = _run(capfdbinary, ["autgroup", "--coeffs", "4,4", "--format", "csv"])
    assert code == 0
    assert out == (
        b"index,trace,matrix\n"
        b"0,0,0;-1;-1;0\n"
        b"1,0,0;1;1;0\n"
        b"2,-2,-1;0;0;-1\n"
        b"3,2,1;0;0;1\n"
    )


def test_autgroup_negated_coeffs(capfdbinary):
    code, out, _ = _run(
        capfdbinary, ["autgroup", "--coeffs=-2,-4,-2", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["diag"] == [2, 4, 2]
    assert obj["order"] == 16
    assert obj["complete"] is True


def test_autgroup_pq_and_coeffs(capfdbinary):
    code, out, _ = _run(
        capfdbinary, ["autgroup", "12/7", "--coeffs", "2,4,2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["order"] == 16

    code, _, err = _run(capfdbinary, ["autgroup", "12/7", "--coeffs", "2,2"])
    assert code == 1
    assert err.startswith(b"error:")

    code, _, err = _run(capfdbinary, ["autgroup"])
    assert code == 1
    assert err.startswith(b"error:")


def test_autgroup_mixed_sign_coeffs(capfdbinary):
    code, _, err = _run(capfdbinary, ["autgroup", "--coeffs=2,-4,2"])
    assert code == 1
    assert err.startswith(b"error:")


def test_strict_exit_code(capfdbinary):
    # order-12 group behind a cap of 3: indeterminate
    code, _, _ = _run(capfdbinary, ["autgroup", "--coeffs", "2,2", "--cap", "3"])
    assert code == 0
    code, _, _ = _run(
        capfdbinary, ["autgroup", "--coeffs", "2,2", "--cap", "3", "--strict"]
    )
    assert code == 2
    # strict with everything complete stays 0
    code, _, _ = _run(capfdbinary, ["scan", "--pmax", "10", "--strict", "--quiet"])
    assert code == 0


def test_strict_fails_on_error_rows():
    # A theorem contradicted by the enumeration becomes an Error row; it is
    # not a success.
    argv = ["scan", "--pmax", "10", "--strict", "--format", "csv", "--quiet"]
    code, out = _capture(argv, patched=True)
    assert code == 2
    assert b"\n7,4,[2;4],[0;0],,,Error,internal error: TheoremB for 7/4" in out
    code, clean = _capture(argv, patched=False)
    assert code == 0
    assert clean.count(b"\n") == out.count(b"\n")
    # obstruct reports the same failure as a row, not a traceback
    argv = ["obstruct", "7/4", "--strict", "--format", "csv", "--quiet"]
    code, out = _capture(argv, patched=True)
    assert code == 2
    assert b"7,4,[2;4],[0;0],,,Error,internal error: TheoremB for 7/4" in out
    code, clean = _capture(argv, patched=False)
    assert code == 0
    assert clean.count(b"\n") == out.count(b"\n") == 3


def test_invalid_inputs(capfdbinary):
    for argv in [
        ["expand", "4/2"],
        ["expand", "7/0"],
        ["expand", "7/9"],
        ["expand", "abc"],
        ["expand", "7"],
        ["expand", "28/15", "--format", "yaml"],
        ["expand", "28/15", "--cap", "0"],
        ["nosuchcommand"],
    ]:
        code, out, err = _run(capfdbinary, argv)
        assert code == 1, argv
        assert err.startswith(b"error:"), argv


def test_expand_coprimality_message(capfdbinary):
    code, _, err = _run(capfdbinary, ["expand", "4/2"])
    assert code == 1
    assert b"coprime" in err


def test_help_exits_zero(capfdbinary):
    code, out, _ = _run(capfdbinary, ["--help"])
    assert code == 0
    assert b"expand" in out
    # The help text wraps to the terminal width.
    assert b"(default 1000000)" in b" ".join(out.split())
    code, out, _ = _run(capfdbinary, ["scan", "--help"])
    assert code == 0
    assert b"--pmax" in out


def test_scan_json_round_trip(capfdbinary):
    code, first, _ = _run(capfdbinary, ["scan", "--pmax", "12", "--format", "json"])
    assert code == 0
    code, second, _ = _run(capfdbinary, ["scan", "--pmax", "12", "--format", "json"])
    assert code == 0
    assert first == second
    expected = b"".join(
        emit_record(OutputRecord.from_record(r), "json") for r in scan(12)
    )
    assert first == expected
    obj = json.loads(first.splitlines()[0])
    assert (obj["p"], obj["q"], obj["reason"]) == (2, 1, "RegistryAn")


_ERROR_TEXT = 'bad "p/q" \\ here\nnext line: \u00e9\u03bb\u2192\U0001f600'
_JSON_ROWS = [
    {"p": 2, "q": 1, "coeffs": (2,), "rotation": None, "chern": None, "complete": True},
    {"flags": (True, False, None), "nested": ((1, (2, ())), ((-3,),)), "empty": ()},
    {"big": 2**64 + 1, "neg": -(2**70), "row": (2**64, -(2**64) - 1, 0)},
    {"verdict": "Error", "reason": _ERROR_TEXT, "witness": None},
]


def test_json_render_writes_json_dumps_bytes():
    for row in _JSON_ROWS:
        assert render(row, "json") == (json.dumps(row, separators=(",", ":")) + "\n").encode()
    # An Error record's text as the census writes it.
    rec = Record(7, 4, expand(7, 4), None, None, None, None, error=_ERROR_TEXT)
    out = OutputRecord.from_record(rec)
    line = emit_record(out, "json")
    assert line == (json.dumps(vars(out), separators=(",", ":")) + "\n").encode()
    assert json.loads(line)["reason"] == _ERROR_TEXT
    assert line.isascii()


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
def test_json_render_builds_no_encoder_per_row(monkeypatch):
    calls = 0
    make = json.encoder.c_make_encoder

    def counted(*args):
        nonlocal calls
        calls += 1
        return make(*args)

    monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
    for i in range(1000):
        render(_JSON_ROWS[i % len(_JSON_ROWS)], "json")
    assert calls == 0


_FORMATS = ("json", "csv", "table")


def _one_field_apart(out):
    """Copies of out, each apart from it in one field that emit_record
    caches: by value, by True against 1, or by an equal value in a new
    object (which must render as out does)."""
    changes = {
        "p": (out.p + 1, True),
        "q": (out.q + 1, True),
        "coeffs": ((*out.coeffs, 2), (True, *out.coeffs[1:]), tuple(list(out.coeffs))),
        "verdict": ("Obstructed" if out.verdict != "Obstructed" else "Inconclusive",),
        "reason": ("TheoremB" if out.reason != "TheoremB" else None,),
        "witness": ((1, 0, 0, -1), (True, 0, 0, 1), None),
        "group_order": (1, True, 2, None),
        "complete": (not out.complete, 1, 0),
    }
    for field, values in changes.items():
        for value in values:
            yield dataclasses.replace(out, **{field: value})


def _mixed_records():
    """OutputRecords of every reason, in a stream whose pair and verdict
    change from record to record."""
    theorem_only = [
        evaluate_one(p, q, rot, theorem_only=True)
        for p, q in [(2, 1), (8, 1), (8, 5), (15, 4), (86, 15)]
        for rot in enumerate_structures(expand(p, q))
    ]
    searched = [
        evaluate_one(12, 7, zero_vector(expand(12, 7))),  # TraceWitnessExists
        evaluate_one(41, 24, zero_vector(expand(41, 24))),  # ComputedNoTraceMinusOne
        evaluate_one(41, 12, zero_vector(expand(41, 12)), cap=100),  # capped
        Record(7, 4, expand(7, 4), None, None, None, None, error=_ERROR_TEXT),
    ]
    # Two pairs that alternate, record by record.
    first, second = (
        [evaluate_one(p, q, rot, theorem_only=True) for rot in enumerate_structures(expand(p, q))]
        for p, q in [(15, 4), (41, 24)]
    )
    alternating = [rec for two in zip(first, second) for rec in two]
    records = theorem_only + searched + alternating
    outs = [OutputRecord.from_record(rec) for rec in records]
    reasons = {out.reason for out in outs}
    assert {"ChernNonzero", "RegistryAn", "RegistryHirzebruch", "TheoremB", "TheoremCi"} <= reasons
    assert {"TraceWitnessExists", "ComputedNoTraceMinusOne", None, _ERROR_TEXT} <= reasons
    assert any(out.complete is False for out in outs)
    synthetic = OutputRecord(
        1, 1, (2, 2), (0, 0), "UT", 0, "Inconclusive", None, (1, 0, 0, 1), 1, True
    )
    witness = next(out for out in outs if out.witness is not None)
    error = next(out for out in outs if out.verdict == "Error")
    for out in (synthetic, witness, error):
        for apart in _one_field_apart(out):
            outs += [out, apart, apart]
    # Equal values that render apart.
    outs += [dataclasses.replace(synthetic, group_order=x) for x in (0.0, -0.0)]
    return outs


def test_cached_record_cells_never_go_stale():
    # emit_record reuses the previous record's pair and verdict cells;
    # render(vars(out), fmt) renders every field afresh.  Each record is
    # written in all three formats, in an order that turns with it.
    outs = _mixed_records()
    for i, out in enumerate(outs):
        for k in range(3):
            fmt = _FORMATS[(i + k) % 3]
            assert emit_record(out, fmt) == render(vars(out), fmt), (i, fmt, out)
    # The record is mutable: the same object, changed in place, is
    # written with its new values.
    out = dataclasses.replace(outs[0])
    for field, value in [("q", out.q + 1), ("coeffs", (3, 3)), ("complete", 1), ("witness", (1,))]:
        setattr(out, field, value)
        for fmt in _FORMATS:
            assert emit_record(out, fmt) == render(vars(out), fmt), (field, fmt)


def test_record_cells_cache_holds_one_entry_per_format():
    census = [
        OutputRecord.from_record(evaluate_one(p, q, rot, theorem_only=True))
        for p in range(2, 61)
        for q in range(1, p)
        if math.gcd(p, q) == 1
        for rot in enumerate_structures(expand(p, q))
    ]
    for fmt in _FORMATS:
        assert b"".join(emit_record(out, fmt) for out in census) == b"".join(
            render(vars(out), fmt) for out in census
        )
    # One (values, pair cells, verdict cells) tuple per format, whatever
    # the scan's length.
    assert set(cli._last_cells) == set(_FORMATS)
    for entry in cli._last_cells.values():
        values, pair_cells, verdict_cells = entry
        assert len(values) == 8
        assert type(pair_cells) is str and type(verdict_cells) is str
    with pytest.raises(InvalidInputError, match="unknown format 'xml'"):
        emit_record(census[0], "xml")
    assert set(cli._last_cells) == set(_FORMATS)


# scan --pmax 30 in csv and table, frozen as test_acceptance_10 freezes
# the json bytes.
@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("csv", "f6e12460e4eca201940ce88a4a01a1ea11ad4429581e4b2ef0d7220a22df1116"),
        ("table", "80f2a1b71a5c7f468a77b85f7b98a8c9c851e66a59681f5cf99a63f3b1207cbc"),
    ],
)
def test_scan_bytes_frozen_in_csv_and_table(capfdbinary, fmt, digest):
    code, out, _ = _run(capfdbinary, ["scan", "--pmax", "30", "--format", fmt])
    assert code == 0
    assert len(out.splitlines()) == 1742
    assert hashlib.sha256(out).hexdigest() == digest


def test_scan_csv_single_header(capfdbinary):
    code, out, _ = _run(capfdbinary, ["scan", "--pmax", "6", "--format", "csv"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0].startswith("p,q,coeffs")
    assert sum(1 for line in lines if line.startswith("p,q")) == 1
    assert len(lines) > 2


def test_scan_rot_zero_only(capfdbinary):
    code, out, _ = _run(
        capfdbinary,
        ["scan", "--pmax", "10", "--rot-zero-only", "--format", "json"],
    )
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert all(r == 0 for r in obj["rotation"])
        assert all(a % 2 == 0 for a in obj["coeffs"])


def test_closed_stdout_exits_quietly():
    # A reader that stops after one line (like `| head -1`) gets no
    # traceback, and the exit code says SIGPIPE: 128 + 13.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "lensmilnor.cli", "scan", "--pmax", "60", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert json.loads(proc.stdout.readline())["p"] == 2
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""


def test_main_uses_sys_argv(capfdbinary, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lensmilnor", "expand", "9/2"])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 0
    assert capfdbinary.readouterr().out == b"[5,2]\n"


@pytest.mark.parametrize("name,argv,code,patched,fmt,quiet", list(_golden_params()))
def test_golden_bytes(name, argv, code, patched, fmt, quiet):
    got_code, got = _capture(argv, patched)
    assert got_code == code
    assert got == _golden_path(name, fmt, quiet).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for param in _golden_params():
        name, argv, _, patched, fmt, quiet = param.values
        _golden_path(name, fmt, quiet).write_bytes(_capture(argv, patched)[1])
