"""Rebuild reference.json from the package as it stands.

    python3 perfbench/make_reference.py

The reference holds, for theorem_census and scan_p50 at seed 0, the
(verdict, reason, complete) of every record that is not the common
(Obstructed, ChernNonzero, complete), and, per workload, the traced
boundaries that saw calls.  The checker holds every later run to these
verdicts and the traced run fails when one of these boundaries goes
silent, so rebuild it only when a verdict or a boundary changes on
purpose, and say so.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from check import DEFAULT_VERDICT, ref_key
from run import OUT, spawn, write_inputs
from workloads import REFERENCE, WORKLOADS


def verdicts(workload: str) -> dict[str, list]:
    write_inputs(workload, 0, {})
    spawn(workload, False, False, perf_counter() + 600)
    records = {}
    with open(OUT / f"{workload}.jsonl") as fh:
        for line in fh:
            obj = json.loads(line)
            got = [obj["verdict"], obj["reason"], obj["complete"]]
            if tuple(got) != DEFAULT_VERDICT:
                records[ref_key(obj["p"], obj["q"], obj["rotation"])] = got
    return records


def boundaries(workload: str) -> list[str]:
    write_inputs(workload, 0, {})
    traced = spawn(workload, True, False, perf_counter() + 600)
    return sorted(
        name for name, value in traced.summary["layers"].items()
        if name.endswith(".calls") and value > 0
    )


def dump(reference: dict) -> str:
    """JSON with one record or one guard list per line, for readable diffs."""
    out = ['{"guard": {']
    out.append(",\n".join(f"  {json.dumps(w)}: {json.dumps(names)}"
                          for w, names in sorted(reference["guard"].items())))
    out.append("}")
    for w in ("theorem_census", "scan_p50"):
        out.append(f', {json.dumps(w)}: {{"records": {{')
        records = reference[w]["records"]
        out.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(records.items())))
        out.append("}}")
    out.append("}")
    return "\n".join(out) + "\n"


def main() -> int:
    reference = {w: {"records": verdicts(w)} for w in ("theorem_census", "scan_p50")}
    reference["guard"] = {w: boundaries(w) for w in WORKLOADS}
    REFERENCE.write_text(dump(reference))
    for path in OUT.iterdir():
        path.unlink()
    OUT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
