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
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import lensmilnor.obstruct as obstruct
from lensmilnor.cli import OutputRecord, emit_record, main, run
from lensmilnor.lattice import Isometry, TraceSearch
from lensmilnor.obstruct import scan

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
        return TraceSearch(witness=Isometry.identity(2), complete=True, traces=None)
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
