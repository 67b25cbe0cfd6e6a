"""Workload inputs: the (p, q) pairs each workload evaluates, from a seed.

Seed 0 is the canonical range: every pair the workload covers, in scan
order (p ascending, then q).  Any other seed draws pairs with replacement
from the same range until the sample holds as many records as seed 0
does, and puts it in scan order, so a claim made at seed 0 can be
re-checked on a different mix of inputs.  Equal record counts keep a
percentile of the record gaps at the same rank from seed to seed.

gerstein_autgroup draws without replacement instead, from the wider range
p <= 700 (7,753 pairs), so that every group is computed once, cold: the
package caches short vectors per lattice, and a pair drawn twice would
find them warm, as no CLI call of `autgroup P/Q` does.  A repeat is
harmless elsewhere: theorem_census and the resampled scan_p50 pairs never
reach the lattice layer, the only one that caches.

scan_p50 is the exception to plain resampling: 156 of its 773 pairs reach
the trace -1 search and take 99% of its time, 26 capped searches most of
it.  Resampling those would swing the wall time by about a quarter from
seed to seed, so every sample keeps each of them once (as a survey keeps
its certainty units) and resamples only the other pairs.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

from check import THEOREMS, expansion, structure_total

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Pinned so that lowering the package's default cap cannot buy speed.
CAP = 1_000_000
WORKLOADS = ("theorem_census", "scan_p50", "gerstein_autgroup")
P_MAX = {"theorem_census": 200, "scan_p50": 50, "gerstein_autgroup": 600}
GERSTEIN_SAMPLE_P_MAX = 700


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def universe(workload: str) -> list[tuple[int, int]]:
    """Every pair the workload covers at seed 0, in scan order."""
    if workload == "gerstein_autgroup":
        return sorted(_gerstein_pairs(P_MAX[workload]))
    return [
        (p, q)
        for p in range(2, P_MAX[workload] + 1)
        for q in range(1, p)
        if gcd(p, q) == 1
    ]


def _gerstein_pairs(p_max: int) -> list[tuple[int, int]]:
    """Pairs whose expansion has rank >= 2 and every entry >= 3 (Gerstein's
    hypothesis).  The expansions are grown entry by entry: the leading
    minors m_k = a_k m_{k-1} - m_{k-2} increase with k and with a_k, and
    the last one is p, so a prefix whose minor exceeds p_max is dropped."""
    out = []

    def grow(coeffs: list[int], m1: int, m2: int) -> None:
        for a in range(3, p_max + 1):
            m = a * m1 - m2
            if m > p_max:
                return
            coeffs.append(a)
            if len(coeffs) >= 2:
                out.append(_fold(coeffs))
            grow(coeffs, m, m1)
            coeffs.pop()

    grow([], 1, 0)
    return out


def _fold(coeffs: list[int]) -> tuple[int, int]:
    """(p, q) with p/q = a_1 - 1/(a_2 - ...)."""
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        num, den = a * num - den, num
    return num, den


def searched_pairs(records: dict[str, list]) -> set[tuple[int, int]]:
    """Pairs whose zero structure reached the trace -1 search in the
    reference: a search verdict, a capped search, or a theorem verdict the
    search cross-validated (every theorem verdict at p <= 200)."""
    out = set()
    for key, (_, reason, complete) in records.items():
        if not complete or reason in THEOREMS or reason in (
            "TraceWitnessExists", "ComputedNoTraceMinusOne"
        ):
            p, q, _ = key.split("/")
            out.add((int(p), int(q)))
    return out


def pairs_for(workload: str, seed: int, reference: dict) -> list[tuple[int, int]]:
    """The inputs of one workload at one seed."""
    pairs = universe(workload)
    if seed == 0:
        return pairs
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gerstein_autgroup":
        population = _gerstein_pairs(GERSTEIN_SAMPLE_P_MAX)
        return sorted(rng.sample(population, len(pairs)))
    kept: list[tuple[int, int]] = []
    if workload == "scan_p50":
        searched = searched_pairs(reference[workload]["records"])
        kept = [pq for pq in pairs if pq in searched]
        pairs = [pq for pq in pairs if pq not in searched]
    size = lambda pq: structure_total(expansion(*pq))  # noqa: E731
    left = sum(size(pq) for pq in pairs)
    drawn = []
    # Draws that would overshoot are put back; pairs with a single
    # structure (q = p - 1) always fit, so the loop ends.
    while left:
        pq = rng.choice(pairs)
        if size(pq) <= left:
            drawn.append(pq)
            left -= size(pq)
    return sorted(kept + drawn)
