"""lensmilnor benchmark: census workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is theorem_census, scan_p50, gerstein_autgroup, or all.  Run it from
the root of a checkout; it imports lensmilnor from src/ there.

The load is a closed loop with one caller: each pass evaluates the whole
workload in a fresh single-threaded process (worker.py), one record after
another, so the package's process-global caches start cold every time, as
they do for a CLI user.  Set-up (interpreter start, import, input
generation) is timed on its own, several times per run.  Passes start
until --seconds have gone by, and each runs to its end; each metric is
the median over the run's passes.  Every pass's output is checked by
check.py, and any failure makes the command exit 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics; trace.overhead_s is the
traced wall minus the untraced wall.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from check import Tally, check_file
from tracing import COUNTS, SPANS
from workloads import WORKLOADS, load_reference, pairs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_SAMPLES = 15
# Past this many seconds into a workload every worker is killed, so that a
# one-workload run ends within three minutes whatever the package does.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "record_p50_ms": "ms",
    "record_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}
DECIDED = (
    "ChernNonzero", "TheoremB", "TheoremCi", "TheoremCii", "ComputedNoTraceMinusOne",
    "RegistryHirzebruch", "RegistryAn", "TraceWitnessExists", "silent", "capped", "Error",
)


@dataclass
class Pass:
    setup_s: float | None
    summary: dict | None
    tally: Tally = field(default_factory=Tally)
    exit_code: int | None = None


def write_inputs(workload: str, seed: int, reference: dict) -> list[tuple[int, int]]:
    """Generate the workload's pairs and write them where the worker reads them."""
    pairs = pairs_for(workload, seed, reference)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}.inputs.json").write_text(json.dumps(pairs))
    return pairs


def spawn(workload: str, trace: bool, setup_only: bool, deadline: float) -> Pass:
    """Run worker.py once; time its set-up and collect its summary line."""
    out = OUT / f"{workload}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           str(OUT / f"{workload}.inputs.json"), "1" if trace else "0", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start if first == "ready\n" else None
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    summary = None
    if code == 0 and rest:
        summary = json.loads(rest[-1])
    return Pass(setup_s, summary, exit_code=code)


def run_pass(workload, trace, deadline, pairs, reference) -> Pass:
    out = OUT / f"{workload}.jsonl"
    # A worker that dies before writing must not leave the last pass's file.
    out.write_bytes(b"")
    result = spawn(workload, trace, False, deadline)
    result.tally = check_file(out, workload, pairs, reference)
    return result


def _problems(name: str, passes: list[Pass]) -> list[str]:
    out = []
    for ps in passes:
        if ps.exit_code != 0 or ps.summary is None:
            out.append(f"{name}: worker exited with code {ps.exit_code}")
        out += [f"{name}: {p}" for p in ps.tally.problems]
    return out


def measure(workload: str, seed: int, seconds: int, deadline: float, reference: dict):
    """End-to-end metrics of one workload: (metrics, passes, problems)."""
    pairs = write_inputs(workload, seed, reference)
    setups = [spawn(workload, False, True, deadline).setup_s for _ in range(SETUP_SAMPLES)]
    passes: list[Pass] = []
    began = perf_counter()
    while True:
        passes.append(run_pass(workload, False, deadline, pairs, reference))
        if passes[-1].summary is None or perf_counter() - began >= seconds:
            break
    problems = _problems(workload, passes)
    setups += [ps.setup_s for ps in passes]
    if None in setups:
        problems.append(f"{workload}: a worker did not finish set-up")
    done = [ps.summary for ps in passes if ps.summary is not None]
    if not done:
        return {}, passes, problems
    metrics = {
        "setup_s": median(s for s in setups if s is not None),
        "wall_s": median(s["wall_s"] for s in done),
        "records_per_s": median(s["records"] / s["wall_s"] for s in done),
        "record_p50_ms": median(s["record_p50_ms"] for s in done),
        "record_p99_ms": median(s["record_p99_ms"] for s in done),
        "peak_rss_mib": median(s["peak_rss_mib"] for s in done),
    }
    return metrics, passes, problems


def measure_layers(workload: str, seed: int, deadline: float, reference: dict):
    """Per-layer metrics of one workload: (metrics, passes, problems)."""
    pairs = write_inputs(workload, seed, reference)
    plain = run_pass(workload, False, deadline, pairs, reference)
    traced = run_pass(workload, True, deadline, pairs, reference)
    passes = [plain, traced]
    problems = _problems(workload, passes)
    if plain.summary is None or traced.summary is None:
        return {}, passes, problems
    layers = traced.summary["layers"]
    metrics = dict(layers)
    searches = sum(layers[f"lattice.search.{k}.calls"] for k in ("witness", "capped", "absent"))
    complete = searches - layers["lattice.search.capped.calls"]
    # Complete searches over searches attempted; 0 when none ran.
    metrics["lattice.search.useful_ratio"] = complete / searches if searches else 0.0
    for cls in DECIDED:
        metrics[f"obstruct.decided.{cls}"] = traced.tally.decided.get(cls, 0)
    metrics["capped_records"] = traced.tally.capped
    metrics["failed_records"] = traced.tally.failed
    wall = traced.summary["wall_s"]
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = plain.summary["wall_s"]
    metrics["trace.overhead_s"] = wall - plain.summary["wall_s"]
    metrics["trace.attributed_s"] = traced.summary["attributed_s"]
    metrics["trace.unattributed_s"] = wall - traced.summary["attributed_s"]
    for name in reference["guard"][workload]:
        if layers[name] == 0:
            problems.append(
                f"{workload}: boundary {name} saw calls at the seed commit and none now"
            )
    return metrics, passes, problems


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update(COUNTS)
    units["lattice.search.useful_ratio"] = "ratio"
    for cls in DECIDED:
        units[f"obstruct.decided.{cls}"] = "count"
    units["capped_records"] = "count"
    units["failed_records"] = "count"
    for name in ("wall_s", "untraced_wall_s", "overhead_s", "attributed_s", "unattributed_s"):
        units[f"trace.{name}"] = "s"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lensmilnor" / "__init__.py").is_file():
        print(f"error: no lensmilnor package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = load_reference()
    units = per_layer_units() if args.trace else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    problems: list[str] = []
    try:
        for w in workloads:
            deadline = perf_counter() + DEADLINE_S
            if args.trace:
                got, passes, probs = measure_layers(w, args.seed, deadline, reference)
            else:
                got, passes, probs = measure(w, args.seed, args.seconds, deadline, reference)
            problems += probs
            attempted += sum(ps.tally.attempted for ps in passes)
            failed += sum(ps.tally.failed for ps in passes)
            prefix = f"{w}." if len(workloads) > 1 else ""
            for name, unit in units.items():
                if name not in got:
                    problems.append(f"{w}: no value for {name}")
                    continue
                metrics[prefix + name] = {"value": got[name], "unit": unit}
            _print_table(w, got, units, passes)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _print_table(workload: str, got: dict, units: dict, passes: list[Pass]) -> None:
    done = [ps.summary for ps in passes if ps.summary]
    tally = passes[-1].tally if passes else Tally()
    print(f"== {workload}: {len(passes)} pass(es), "
          f"{done[-1]['records'] if done else 0} records in the last")
    for name, unit in units.items():
        if name in got:
            print(f"  {name:40s} {got[name]:>16.6g} {unit}")
    if "wall_s" in got:
        print(f"  {'capped_records':40s} {tally.capped:>16d} count")
        print(f"  {'failed_records':40s} {sum(ps.tally.failed for ps in passes):>16d} "
              f"count (of {sum(ps.tally.attempted for ps in passes)} attempted)")
        print(f"  record gaps per pass: {done[-1]['records'] if done else 0} samples "
              "(p50 and p99 are of these)")


if __name__ == "__main__":
    sys.exit(main())
