"""Acceptance gate for the package.

One test per acceptance criterion, in order.  Each test performs its
exhaustive check over the stated range, prints a single line

    acceptance <name>: PASS|FAIL (<detail>)

(visible with pytest -s), and fails the run if the criterion does not
hold.  All arithmetic is exact; the timed criteria assert their
wall-clock budget.  Everything here is single-process and sequential, so
determinism checks reduce to run-to-run byte equality.
"""

import itertools
import math
import time

from lensmilnor import (
    IntersectionLattice,
    Isometry,
    LensSpace,
    Outcome,
    Reason,
    canonical_vector_key,
    cf_invariants,
    chern_residue,
    decide_full,
    decide_theorem,
    enumerate_structures,
    evaluate,
    expand,
    find_isometry_with_trace,
    gerstein_prediction,
    gram,
    is_palindromic,
    orthogonal_group,
    q_squared_is_one,
    short_vectors,
    zero_vector,
)
from lensmilnor.cli import run
from lensmilnor.lattice import weyl_witness

from verification import lemma_bounds

_SUITE_START = time.perf_counter()


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {status}{suffix}")
    assert ok, f"acceptance {name}: {status}{suffix}"


def _coprime_pairs(p_max):
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


def test_acceptance_01_roundtrip_and_minor_identities():
    start = time.perf_counter()
    failures = []
    pairs = 0
    for p, q in _coprime_pairs(500):
        pairs += 1
        exp = expand(p, q)
        if evaluate(exp) != LensSpace(p, q):
            failures.append(f"roundtrip {p}/{q}")
            continue
        inv = cf_invariants(exp)
        n = len(exp)
        if abs(inv.delta_at(n)) != p:
            failures.append(f"|last minor| {p}/{q}")
        for i in range(n):
            if inv.delta_at(i) != (-1) ** i * inv.mu[i]:
                failures.append(f"minor/weight tie {p}/{q} at {i}")
                break
        for i in range(n + 1):
            if (-1) ** i * inv.delta_at(i) <= 0:
                failures.append(f"minor sign {p}/{q} at {i}")
                break
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(
        "roundtrip-and-minor-identities",
        ok,
        f"{pairs} pairs, {elapsed:.2f}s; first failures: {failures[:3]}"
        if failures
        else f"{pairs} pairs, {elapsed:.2f}s < 10s",
    )


def test_acceptance_02_residue_vanishes_only_at_zero():
    start = time.perf_counter()
    failures = []
    count = 0
    for p, q in _coprime_pairs(200):
        for rot in enumerate_structures(expand(p, q)):
            count += 1
            if (chern_residue(rot).value == 0) != rot.is_zero:
                failures.append(f"{p}/{q} r={rot.r}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "residue-vanishes-only-at-zero",
        ok,
        f"{count} structures, {elapsed:.2f}s; first failures: {failures[:3]}"
        if failures
        else f"{count} structures, {elapsed:.2f}s < 60s",
    )


def test_acceptance_03_domination_inequalities():
    start = time.perf_counter()
    failures = []
    count = 0
    for p, q in _coprime_pairs(200):
        for rot in enumerate_structures(expand(p, q)):
            count += 1
            if not lemma_bounds(rot).all_hold:
                failures.append(f"{p}/{q} r={rot.r}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(
        "domination-inequalities",
        ok,
        f"{count} structures, {elapsed:.2f}s; first failures: {failures[:3]}"
        if failures
        else f"{count} structures, {elapsed:.2f}s",
    )


def test_acceptance_04_palindrome_congruence_law():
    start = time.perf_counter()
    failures = []
    pairs = 0
    for p, q in _coprime_pairs(500):
        pairs += 1
        if is_palindromic(expand(p, q)) != q_squared_is_one(p, q):
            failures.append(f"{p}/{q}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(
        "palindrome-congruence-law",
        ok,
        f"{pairs} pairs, {elapsed:.2f}s; first failures: {failures[:3]}"
        if failures
        else f"{pairs} pairs, {elapsed:.2f}s",
    )


def test_acceptance_05_group_shapes_for_large_even_diagonals():
    start = time.perf_counter()
    failures = []
    count = 0
    for n in range(2, 6):
        for diag in itertools.product((4, 6, 8), repeat=n):
            count += 1
            lat = IntersectionLattice(diag)
            shape = gerstein_prediction(lat)
            group = orthogonal_group(lat)
            if not group.complete:
                failures.append(f"{diag} capped")
                continue
            if group.elements != shape.predicted_elements(n):
                failures.append(f"{diag} elements")
            elif group.order != shape.predicted_order:
                failures.append(f"{diag} order")
    elapsed = time.perf_counter() - start
    ok = not failures and count == 360 and elapsed < 60.0
    _report(
        "group-shapes-for-large-even-diagonals",
        ok,
        f"{count} lattices, {elapsed:.2f}s; first failures: {failures[:3]}"
        if failures
        else f"{count} lattices, {elapsed:.2f}s < 60s",
    )


def test_acceptance_06_two_block_lattices_have_no_trace_minus_one():
    start = time.perf_counter()
    failures = []
    pairs = 0
    for x1 in range(1, 7):
        for x2 in range(1, 7):
            if x1 * x2 <= 1:
                continue
            pairs += 1
            group = orthogonal_group(gram([2 * x1, 2 * x2]))
            if not group.complete:
                failures.append(f"({x1},{x2}) capped")
                continue
            if -1 in group.traces():
                failures.append(f"({x1},{x2}) group has trace -1")
            # Direct search over 2x2 integer matrices [[a,b],[c,d]] with
            # entries in [-6,6] and trace -1, requiring both row-norm
            # equations (each written as a sum of nonnegative terms) and
            # the off-diagonal pairing equation.
            hits = 0
            for a in range(-6, 7):
                d = -1 - a
                if not -6 <= d <= 6:
                    continue
                for b in range(-6, 7):
                    if (2 * x1 - 1) * a * a + (a - b) ** 2 + (2 * x2 - 1) * b * b != 2 * x1:
                        continue
                    for c in range(-6, 7):
                        if (2 * x1 - 1) * c * c + (c - d) ** 2 + (2 * x2 - 1) * d * d != 2 * x2:
                            continue
                        if 2 * x1 * a * c - a * d - b * c + 2 * x2 * b * d == -1:
                            hits += 1
            if hits:
                failures.append(f"({x1},{x2}) brute force found {hits}")
    elapsed = time.perf_counter() - start
    ok = not failures and pairs == 35
    _report(
        "two-block-lattices-have-no-trace-minus-one",
        ok,
        f"{pairs} pairs, {elapsed:.2f}s; first failures: {failures[:3]}"
        if failures
        else f"{pairs} pairs, {elapsed:.2f}s",
    )


def test_acceptance_07_golden_verdicts():
    start = time.perf_counter()
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: {got} != {want}")

    v = decide_full(15, 4, zero_vector(expand(15, 4)))
    check("15/4", (v.outcome, v.reason), (Outcome.OBSTRUCTED, Reason.THEOREM_B))

    v = decide_full(209, 56, zero_vector(expand(209, 56)))
    check("209/56", (v.outcome, v.reason), (Outcome.OBSTRUCTED, Reason.THEOREM_CII))

    v = decide_full(180, 47, zero_vector(expand(180, 47)))
    check("180/47", (v.outcome, v.reason), (Outcome.OBSTRUCTED, Reason.THEOREM_CI))

    for rot in enumerate_structures(expand(34, 7)):
        v = decide_full(34, 7, rot)
        check(
            f"34/7 r={rot.r}",
            (v.outcome, v.reason),
            (Outcome.OBSTRUCTED, Reason.CHERN_NONZERO),
        )

    v = decide_full(12, 7, zero_vector(expand(12, 7)))
    check(
        "12/7",
        (v.outcome, v.reason),
        (Outcome.INCONCLUSIVE, Reason.TRACE_WITNESS_EXISTS),
    )
    if v.witness is None or v.witness.rows != ((0, 0, -1), (0, -1, 0), (-1, 0, 0)):
        failures.append(f"12/7 witness: {v.witness}")

    for n in range(1, 11):
        v = decide_full(2 * n, 1, zero_vector(expand(2 * n, 1)))
        check(f"{2 * n}/1 outcome", v.outcome, Outcome.KNOWN_REALIZABLE)
        if n == 1:
            check("2/1 reason", (v.reason, v.certificate), (Reason.REGISTRY_AN, "z^p+2xy"))
        else:
            check(
                f"{2 * n}/1 reason",
                (v.reason, v.certificate),
                (Reason.REGISTRY_HIRZEBRUCH, "z^2+xy^n"),
            )

    for p in range(2, 21):
        v = decide_full(p, p - 1, zero_vector(expand(p, p - 1)))
        check(
            f"{p}/{p - 1}",
            (v.outcome, v.reason, v.certificate),
            (Outcome.KNOWN_REALIZABLE, Reason.REGISTRY_AN, "z^p+2xy"),
        )

    elapsed = time.perf_counter() - start
    _report(
        "golden-verdicts",
        not failures,
        f"{elapsed:.2f}s; failures: {failures[:3]}" if failures else f"{elapsed:.2f}s",
    )


def test_acceptance_08_theorem_and_search_never_contradict():
    start = time.perf_counter()
    failures = []
    fired = 0
    theorem_reasons = (Reason.THEOREM_B, Reason.THEOREM_CI, Reason.THEOREM_CII)
    for p, q in _coprime_pairs(200):
        exp = expand(p, q)
        if any(a % 2 for a in exp):
            continue
        v = decide_theorem(p, q, zero_vector(exp))
        if v.reason not in theorem_reasons:
            continue
        fired += 1
        lat = gram(exp)
        search = find_isometry_with_trace(lat, -1)
        if not search.complete:
            failures.append(f"{p}/{q} capped")
        elif search.witness is not None:
            failures.append(f"{p}/{q} witness {search.witness.rows}")
        weyl = weyl_witness(lat)
        if weyl is not None:
            failures.append(f"{p}/{q} Weyl witness {weyl.rows}")
    elapsed = time.perf_counter() - start
    ok = not failures and fired == 222 and elapsed < 300.0
    _report(
        "theorem-and-search-never-contradict",
        ok,
        f"{fired} theorem verdicts checked, {elapsed:.2f}s; failures: {failures[:3]}"
        if failures
        else f"{fired} theorem verdicts checked, {elapsed:.2f}s",
    )


def test_acceptance_09_group_matches_naive_search():
    start = time.perf_counter()
    failures = []
    count = 0
    diags = [(a,) for a in range(2, 7)]
    diags += list(itertools.product(range(2, 7), repeat=2))
    diags += list(itertools.product(range(2, 7), repeat=3))
    for diag in diags:
        count += 1
        lat = IntersectionLattice(diag)
        n = lat.n
        norms = sorted(set(diag))
        bound = 1
        for a in norms:
            for v in short_vectors(lat, a):
                bound = max(bound, max(abs(x) for x in v))
        wide = bound + 1
        by_norm = {}
        for v in itertools.product(range(-wide, wide + 1), repeat=n):
            if any(v):
                by_norm.setdefault(lat.norm(v), []).append(v)
        sound = True
        for a in norms:
            for v in by_norm.get(a, []):
                if max(abs(x) for x in v) > bound:
                    sound = False
        if not sound:
            failures.append(f"{diag} widened box found new vectors")
            continue
        matrix = lat.matrix
        naive = []
        for combo in itertools.product(*(by_norm.get(a, []) for a in diag)):
            good = True
            for i in range(n):
                for j in range(i):
                    if lat.pairing(combo[i], combo[j]) != matrix[i][j]:
                        good = False
                        break
                if not good:
                    break
            if good:
                naive.append(combo)
        naive.sort(key=lambda rows: canonical_vector_key(x for r in rows for x in r))
        group = orthogonal_group(lat)
        if not group.complete:
            failures.append(f"{diag} capped")
            continue
        if naive != [e.rows for e in group.elements]:
            failures.append(f"{diag} row-built naive group differs")
        if n <= 2:
            literal = []
            for entries in itertools.product(range(-wide, wide + 1), repeat=n * n):
                rows = tuple(entries[i * n : (i + 1) * n] for i in range(n))
                if lat.is_isometry(Isometry(rows)):
                    literal.append(rows)
            literal.sort(key=lambda rows: canonical_vector_key(x for r in rows for x in r))
            if literal != [e.rows for e in group.elements]:
                failures.append(f"{diag} literal all-matrix scan differs")
    elapsed = time.perf_counter() - start
    ok = not failures and count == 155
    _report(
        "group-matches-naive-search",
        ok,
        f"{count} lattices, {elapsed:.2f}s; failures: {failures[:3]}"
        if failures
        else f"{count} lattices, {elapsed:.2f}s",
    )


def test_acceptance_10_scan_output_is_deterministic(capfdbinary):
    start = time.perf_counter()
    code_first = run(["scan", "--pmax", "50", "--format", "json"])
    first = capfdbinary.readouterr().out
    code_second = run(["scan", "--pmax", "50", "--format", "json"])
    second = capfdbinary.readouterr().out
    elapsed = time.perf_counter() - start
    total = time.perf_counter() - _SUITE_START
    capped = first.count(b'"complete":false')
    ok = (
        code_first == 0
        and code_second == 0
        and first == second
        and len(first.splitlines()) > 1000
        and capped == 0
        and total < 300.0
    )
    _report(
        "scan-output-is-deterministic",
        ok,
        f"{len(first.splitlines())} records twice, byte-equal={first == second}, "
        f"{capped} capped, {elapsed:.2f}s; acceptance total {total:.2f}s < 300s",
    )
