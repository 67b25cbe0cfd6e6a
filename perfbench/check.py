"""Output check for the benchmark, by a path independent of the package.

Every emitted line is checked with this file's own integer arithmetic:
the expansion, the structure set, the Chern residue and the tight class
are recomputed (a line that is not byte for byte the expected
ChernNonzero line is parsed and checked field by field), every witness is multiplied
out (A M A^T = M and trace -1), every reason's hypothesis is tested
(ChernNonzero exactly when the residue is nonzero; a registry or theorem
reason exactly when its family or theorem covers the expansion), verdicts
must carry a reason that can justify them, autgroup groups must equal
Gerstein's prediction, and every verdict that was complete in the stored
seed reference must keep its (outcome, reason); one capped there may only
become a completed search.  Nothing here imports lensmilnor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

RECORD_FIELDS = (
    "p", "q", "coeffs", "rotation", "tight_class", "chern",
    "verdict", "reason", "witness", "group_order", "complete",
)
GROUP_FIELDS = ("diag", "order", "complete", "elements")
OBSTRUCTING = {"ChernNonzero", "TheoremB", "TheoremCi", "TheoremCii", "ComputedNoTraceMinusOne"}
REGISTRY = {"RegistryHirzebruch", "RegistryAn"}
THEOREMS = {"TheoremB", "TheoremCi", "TheoremCii"}
# What a search the theorem layer left to it can conclude when it completes.
SEARCHED = ("TraceWitnessExists", "ComputedNoTraceMinusOne")
# Reference entries are stored only for records that differ from this.
DEFAULT_VERDICT = ("Obstructed", "ChernNonzero", True)


def expansion(p: int, q: int) -> tuple[int, ...]:
    """Coefficients a_i >= 2 with p/q = a_1 - 1/(a_2 - ...), by ceiling division."""
    out = []
    while q:
        a = (p + q - 1) // q
        out.append(a)
        p, q = q, a * q - p
    return tuple(out)


def weights(coeffs: tuple[int, ...]) -> list[int]:
    """mu_1 = 1, mu_2 = a_1, mu_i = a_{i-1} mu_{i-1} - mu_{i-2}."""
    mu = [1, coeffs[0]][: len(coeffs)]
    for i in range(2, len(coeffs)):
        mu.append(coeffs[i - 1] * mu[-1] - mu[-2])
    return mu


def structures(coeffs: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Admissible rotation vectors in ascending lexicographic order."""
    return product(*(range(2 - a, a - 1, 2) for a in coeffs))


def structure_total(coeffs: tuple[int, ...]) -> int:
    total = 1
    for a in coeffs:
        total *= a - 1
    return total


def is_trace_minus_one_isometry(coeffs: tuple[int, ...], flat: list[int]) -> bool:
    """Whether the row-major matrix A satisfies A M A^T = M and trace A = -1,
    for the tridiagonal M with diagonal coeffs and off-diagonal -1."""
    n = len(coeffs)
    if len(flat) != n * n or not all(type(x) is int for x in flat):
        return False
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    if sum(rows[i][i] for i in range(n)) != -1:
        return False

    def gram(i: int, j: int) -> int:
        if i == j:
            return coeffs[i]
        return -1 if abs(i - j) == 1 else 0

    mrows = []
    for r in rows:
        mrows.append([
            coeffs[k] * r[k] - (r[k - 1] if k else 0) - (r[k + 1] if k + 1 < n else 0)
            for k in range(n)
        ])
    return all(
        sum(x * y for x, y in zip(rows[i], mrows[j])) == gram(i, j)
        for i in range(n)
        for j in range(i + 1)
    )


def predicted_group(coeffs: tuple[int, ...]) -> list[list[int]]:
    """Gerstein: {+-id}, plus {+-rho} for a palindromic diagonal, as
    row-major lists in the canonical order 0 < -1 < 1 < -2 < 2 ..."""
    n = len(coeffs)
    ident = [int(i == j) for i in range(n) for j in range(n)]
    elems = [ident, [-x for x in ident]]
    if coeffs == coeffs[::-1]:
        rho = [int(i + j == n - 1) for i in range(n) for j in range(n)]
        elems += [rho, [-x for x in rho]]
    return sorted(elems, key=lambda m: [(abs(x), x > 0) for x in m])


def theorem_layer(p: int, q: int, coeffs: tuple[int, ...]) -> tuple[str, str] | None:
    """(verdict, reason) that the registry and the theorems give a structure
    with residue 0 (so r = 0 and every a_i = 2 x_i is even), or None where
    all of them are silent: all 2s is A_n; one coefficient is Hirzebruch;
    two with x_1 x_2 > 1 are Theorem B; three or more with every x_i > 1
    are Theorem C(i) unless q^2 = 1 mod p, then C(ii) when n is even."""
    n = len(coeffs)
    xs = [a // 2 for a in coeffs]
    if all(a == 2 for a in coeffs):
        return ("KnownRealizable", "RegistryAn")
    if n == 1:
        return ("KnownRealizable", "RegistryHirzebruch")
    if n == 2 and xs[0] * xs[1] > 1:
        return ("Obstructed", "TheoremB")
    if n >= 3 and all(x > 1 for x in xs):
        if (q * q - 1) % p:
            return ("Obstructed", "TheoremCi")
        if n % 2 == 0:
            return ("Obstructed", "TheoremCii")
    return None


def ref_key(p: int, q: int, rotation: Iterable[int]) -> str:
    return f"{p}/{q}/" + ",".join(str(r) for r in rotation)


@dataclass
class Tally:
    """What the check saw: records attempted and failed, capped records,
    record counts per decided class, and the first few problems."""

    attempted: int = 0
    failed: int = 0
    capped: int = 0
    decided: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {why}")

    def passed(self, cls: str) -> None:
        self.decided[cls] = self.decided.get(cls, 0) + 1
        self.capped += cls == "capped"

    def surplus(self, lines: Iterator[bytes]) -> None:
        """Count lines left over after every expected record as failed."""
        for _ in lines:
            self.attempted += 1
            self.fail("end of stream", "surplus record")


def _decided_class(obj: dict) -> str:
    if obj["verdict"] == "Error":
        return "Error"
    if not obj["complete"]:
        return "capped"
    return obj["reason"] or "silent"


def _record_problem(
    obj: dict, p: int, q: int, coeffs: tuple[int, ...], mu: list[int],
    rotation: tuple[int, ...], reference: dict[str, list],
) -> str | None:
    """Why one obstruct record is wrong, or None when it checks out."""
    if list(obj) != list(RECORD_FIELDS):
        return f"fields {list(obj)}"
    verdict, reason, complete = obj["verdict"], obj["reason"], obj["complete"]
    if verdict == "Error":
        return f"Error row: {reason}"
    if (obj["p"], obj["q"]) != (p, q):
        return f"expected {p}/{q}, got {obj['p']}/{obj['q']}"
    if tuple(obj["coeffs"]) != coeffs:
        return f"coeffs {obj['coeffs']}, expected {list(coeffs)}"
    if obj["rotation"] is None or tuple(obj["rotation"]) != rotation:
        return f"rotation {obj['rotation']}, expected {list(rotation)}"
    if obj["chern"] != sum(r * m for r, m in zip(rotation, mu)) % p:
        return f"chern {obj['chern']}"
    extremal = rotation in (tuple(a - 2 for a in coeffs), tuple(2 - a for a in coeffs))
    if obj["tight_class"] != ("UT" if extremal else "VO"):
        return f"tight_class {obj['tight_class']}"
    if type(complete) is not bool:
        return f"complete {complete!r}"
    if obj["chern"]:
        if (verdict, reason, complete) != DEFAULT_VERDICT:
            return f"{verdict}/{reason} with chern {obj['chern']} != 0"
    elif (expected := theorem_layer(p, q, coeffs)) is not None:
        if (verdict, reason, complete) != (*expected, True):
            return f"{verdict}/{reason}, but the hypothesis of {expected[1]} holds"
    elif reason not in (None, *SEARCHED):
        return f"{verdict}/{reason}, but its hypothesis fails"
    if verdict == "Obstructed" and reason not in OBSTRUCTING:
        return f"Obstructed with reason {reason}"
    if verdict == "KnownRealizable" and reason not in REGISTRY:
        return f"KnownRealizable with reason {reason}"
    if verdict == "Inconclusive" and reason not in (None, "TraceWitnessExists"):
        return f"Inconclusive with reason {reason}"
    if verdict not in ("Obstructed", "KnownRealizable", "Inconclusive"):
        return f"verdict {verdict!r}"
    if not complete and (verdict, reason) != ("Inconclusive", None):
        return f"capped record with verdict {verdict}/{reason}"
    witness = obj["witness"]
    if (witness is not None) != (reason == "TraceWitnessExists"):
        return f"witness {witness} with reason {reason}"
    if witness is not None and not is_trace_minus_one_isometry(coeffs, witness):
        return "witness is not a trace -1 isometry"
    order = obj["group_order"]
    if (order is not None) != (reason == "ComputedNoTraceMinusOne"):
        return f"group_order {order} with reason {reason}"
    if order is not None and (type(order) is not int or order < 2 or order % 2):
        return f"group_order {order} cannot hold +-id"
    want = reference.get(ref_key(p, q, rotation), DEFAULT_VERDICT)
    if want[2] and (verdict, reason) != (want[0], want[1]):
        return f"{verdict}/{reason}, reference {want[0]}/{want[1]}"
    if not want[2] and complete and reason not in SEARCHED:
        return f"{verdict}/{reason}, capped in the reference"
    return None


def _group_problem(obj: dict, coeffs: tuple[int, ...]) -> str | None:
    if list(obj) != list(GROUP_FIELDS):
        return f"fields {list(obj)}"
    if tuple(obj["diag"]) != coeffs:
        return f"diag {obj['diag']}, expected {list(coeffs)}"
    if obj["complete"] is not True:
        return "group enumeration capped"
    if obj["order"] != len(obj["elements"]):
        return f"order {obj['order']} but {len(obj['elements'])} elements"
    if obj["elements"] != predicted_group(coeffs):
        return "group differs from Gerstein's prediction"
    return None


def _parse(raw: bytes) -> dict | str:
    """The record on one line, or the line itself when it is not JSON."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw.decode(errors="replace").rstrip("\n")


def _default_line(p: int, q: int, coeffs_text: str, rotation: tuple[int, ...], tight: str,
                  chern: int) -> bytes:
    """The exact line `--format json` prints for an (Obstructed, ChernNonzero)
    record; lines that differ from it are parsed and checked field by field."""
    return (
        f'{{"p":{p},"q":{q},"coeffs":[{coeffs_text}],'
        f'"rotation":[{",".join(map(str, rotation))}],"tight_class":"{tight}",'
        f'"chern":{chern},"verdict":"Obstructed","reason":"ChernNonzero",'
        '"witness":null,"group_order":null,"complete":true}\n'
    ).encode()


def check_records(
    lines: Iterable[bytes], pairs: list[tuple[int, int]], reference: dict[str, list]
) -> Tally:
    """Check an obstruct/scan stream against the pairs it was asked for.

    The stream must hold, for each pair in order, every tight structure in
    ascending order.  Missing, surplus, malformed and Error rows all count
    as failed; attempted is the number of records the pairs call for.
    """
    tally = Tally()
    in_reference = {tuple(int(x) for x in key.split("/")[:2]) for key in reference}
    it = iter(lines)
    for p, q in pairs:
        coeffs = expansion(p, q)
        mu = weights(coeffs)
        coeffs_text = ",".join(map(str, coeffs))
        extremal = (tuple(a - 2 for a in coeffs), tuple(2 - a for a in coeffs))
        fast = (p, q) not in in_reference
        tally.attempted += structure_total(coeffs)
        for rotation in structures(coeffs):
            raw = next(it, None)
            if raw is None:
                tally.fail(f"{p}/{q} {list(rotation)}", "missing record")
                continue
            if fast:
                chern = sum(r * m for r, m in zip(rotation, mu)) % p
                tight = "UT" if rotation in extremal else "VO"
                if chern and raw == _default_line(p, q, coeffs_text, rotation, tight, chern):
                    tally.passed("ChernNonzero")
                    continue
            obj = _parse(raw)
            if not isinstance(obj, dict):
                tally.fail(f"{p}/{q} {list(rotation)}", f"unparsable line {obj[:80]!r}")
                continue
            try:
                problem = _record_problem(obj, p, q, coeffs, mu, rotation, reference)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed record ({exc!r})"
            if problem is None:
                tally.passed(_decided_class(obj))
            else:
                tally.fail(f"{p}/{q} {list(rotation)}", problem)
    tally.surplus(it)
    return tally


def check_groups(lines: Iterable[bytes], pairs: list[tuple[int, int]]) -> Tally:
    """Check an autgroup stream: one complete, predicted group per pair."""
    tally = Tally()
    it = iter(lines)
    for p, q in pairs:
        tally.attempted += 1
        raw = next(it, None)
        obj = None if raw is None else _parse(raw)
        where = f"{p}/{q}"
        if not isinstance(obj, dict):
            tally.fail(where, "missing record" if obj is None else f"unparsable line {obj[:80]!r}")
            continue
        try:
            problem = _group_problem(obj, expansion(p, q))
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed record ({exc!r})"
        if problem is None:
            tally.passed("group")
        else:
            tally.fail(where, problem)
    tally.surplus(it)
    return tally


def check_file(path, workload: str, pairs: list[tuple[int, int]], reference: dict) -> Tally:
    with open(path, "rb") as lines:
        if workload == "gerstein_autgroup":
            return check_groups(lines, pairs)
        return check_records(lines, pairs, reference[workload]["records"])
