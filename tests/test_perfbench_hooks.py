"""The benchmark's traced run still finds every boundary it wraps.

perfbench/tracing.py replaces module-level names of the package (the
ones obstruct and contact look up at call time) with timed wrappers.  A
renamed or retyped name would only show up as a failed traced benchmark
run, so each workload's worker runs here on a few pairs, untraced and
traced: both must exit 0 and write the same bytes, and the traced run
must record calls on every span those pairs reach.  The structure count
the tracer takes from len() must match the records actually written.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"

CENSUS_SPANS = {
    "contfrac.expand",
    "contfrac.cf_invariants",
    "contact.enumerate_structures",
    "contact.chern_residue",
    "contact.classify_structure",
    "obstruct.decide_theorem",
    "obstruct.evaluate_one",
    "cli.render",
}
# Per workload: a few pairs, and every span they reach.
CASES = {
    # Chern gate, both registry families and a theorem obstruction.
    "theorem_census": ([(2, 1), (8, 1), (8, 5), (12, 7), (7, 2)], CENSUS_SPANS),
    # A witness, a quick search that caps before the Weyl-group witness,
    # a completed absence and a cross-validated TheoremB.
    "scan_p50": (
        [(10, 3), (19, 6), (41, 12), (7, 2)],
        CENSUS_SPANS
        | {
            "lattice.gram",
            "lattice.short_vectors",
            "lattice.search.witness",
            "lattice.search.capped",
            "lattice.search.absent",
        },
    ),
    "gerstein_autgroup": (
        [(8, 3), (11, 3), (21, 8)],
        {"contfrac.expand", "lattice.short_vectors", "lattice.orthogonal_group", "cli.render"},
    ),
}


def _run(workload: str, inputs: Path, trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(inputs), str(trace), str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(CASES))
def test_traced_worker_reaches_its_spans(workload, tmp_path):
    pairs, spans = CASES[workload]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(pairs))
    plain, traced = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"

    untraced = _run(workload, inputs, 0, plain)
    summary = _run(workload, inputs, 1, traced)

    assert untraced["records"] == summary["records"] > 0
    assert plain.read_bytes() == traced.read_bytes()
    layers = summary["layers"]
    reached = {
        name.removesuffix(".calls")
        for name, calls in layers.items()
        if name.endswith(".calls") and calls > 0
    }
    cross_validated = {"obstruct.cross_validate"} if workload == "scan_p50" else set()
    assert reached == spans | cross_validated
    if workload != "gerstein_autgroup":
        # The tracer counts structures by len(); every one is read and
        # becomes a record.
        assert layers["contact.structures"] == summary["records"]


def test_every_guarded_boundary_is_a_span_its_case_reaches():
    # perfbench/run.py fails a traced run when a boundary listed under
    # "guard" in perfbench/reference.json saw calls when the reference
    # was made and sees none now.  Each such boundary must therefore be
    # one the cases above require, so that a change that stops reaching
    # it (say, one that drops the capped quick searches) fails here too,
    # not only in a traced benchmark run.
    guard = json.loads((ROOT / "perfbench" / "reference.json").read_text())["guard"]
    assert set(guard) == set(CASES)
    for workload, names in guard.items():
        cross_validated = {"obstruct.cross_validate"} if workload == "scan_p50" else set()
        spans = CASES[workload][1] | cross_validated
        assert {name.removesuffix(".calls") for name in names} <= spans, workload
