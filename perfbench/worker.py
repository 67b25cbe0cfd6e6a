"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD INPUTS TRACE OUT [--setup-only]

INPUTS is a JSON list of the (p, q) pairs to evaluate, written by run.py.
Set-up is starting the interpreter, importing lensmilnor from the
checkout's src/ and reading the inputs; the worker then prints "ready" so
the parent can time it.  The pass evaluates every input with the
package's public functions, renders each record as the CLI's JSON line and
writes it to OUT, the way `lensmilnor ... --format json > OUT` would.  The
last stdout line is a JSON summary: records, wall time, gaps between
successive records, peak RSS and, when traced, the per-layer aggregates.
"""

from __future__ import annotations

import json
import resource
import sys
from array import array
from pathlib import Path
from statistics import quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package():
    """Import lensmilnor from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import lensmilnor

    if not Path(lensmilnor.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"lensmilnor imported from {lensmilnor.__file__}, not {SRC}")
    return lensmilnor


def _render_group(diag, group) -> bytes:
    """The line `lensmilnor autgroup P/Q --format json` prints.

    A copy of the JSON branch of cli._cmd_autgroup, which has no public
    renderer of its own; test_check.py holds the two byte for byte equal.
    """
    obj = {
        "diag": list(diag),
        "order": group.order,
        "complete": group.complete,
        "elements": [list(e.flatten()) for e in group],
    }
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def _records(workload, pairs, fns, lm, cap):
    """Yield the workload's obstruct records, one per structure: what
    scan() does for each of its entries, over the given pairs, so that
    every seed takes one path (test_check.py holds it to scan()'s bytes)."""
    theorem_only = workload == "theorem_census"
    for p, q in pairs:
        coeffs = fns["expand"](p, q)
        for rot in fns["enumerate_structures"](coeffs, cap=cap):
            try:
                yield fns["evaluate_one"](p, q, rot, theorem_only=theorem_only, cap=cap)
            except Exception as exc:  # noqa: BLE001 - reported as an Error row
                yield lm.Record(p, q, coeffs, rot, None, None, None, error=str(exc))


def _groups(pairs, fns, lm, cap):
    """Yield (diag, group) for every pair, as `autgroup P/Q` computes it."""
    for p, q in pairs:
        diag = tuple(fns["expand"](p, q))
        yield diag, fns["orthogonal_group"](lm.IntersectionLattice(diag), cap=cap)


def main(argv: list[str]) -> int:
    workload, inputs, trace, out_path = argv[0], argv[1], argv[2] == "1", argv[3]
    lm = import_package()
    from lensmilnor.cli import OutputRecord, emit_record
    from workloads import CAP

    with open(inputs) as fh:
        pairs = [tuple(pq) for pq in json.load(fh)]
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    fns = {
        "expand": lm.expand,
        "enumerate_structures": lm.enumerate_structures,
        "evaluate_one": lm.evaluate_one,
        "orthogonal_group": lm.orthogonal_group,
    }
    if workload == "gerstein_autgroup":
        render = lambda item: _render_group(*item)  # noqa: E731
    else:
        render = lambda rec: emit_record(OutputRecord.from_record(rec), "json")  # noqa: E731
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        fns.update(tracer.install())
        render = tracer.render(render)
    if workload == "gerstein_autgroup":
        items = _groups(pairs, fns, lm, CAP)
    else:
        items = _records(workload, pairs, fns, lm, CAP)

    gaps = array("d")
    with open(out_path, "wb") as out:
        start = prev = perf_counter()
        for item in items:
            out.write(render(item))
            now = perf_counter()
            gaps.append(now - prev)
            prev = now
        out.flush()
        wall = perf_counter() - start

    cuts = quantiles(gaps, n=100) if len(gaps) >= 2 else [gaps[0] if gaps else 0.0] * 99
    summary = {
        "records": len(gaps),
        "wall_s": wall,
        "record_p50_ms": cuts[49] * 1e3,
        "record_p99_ms": cuts[98] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["attributed_s"] = tracer.attributed_s()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
