"""Command-line front end.

Subcommands: expand, structures, chern, autgroup, obstruct, scan.  Lens
spaces are written P/Q; coefficient lists are comma-separated and may be
given negated (--coeffs=-2,-4,-2 is normalized to 2,4,2).  Values that
start with a minus sign must use the --flag=value form.

Every subcommand builds rows: ordered field -> value dicts whose lists
are tuples, with the fields witness and matrix holding row-major
flattened matrices.  render() turns one row into one line, and the
output is byte-reproducible: json emits one object per line with a
fixed key order and no floating point, csv emits a header (unless
--quiet) and comma-separated rows with bracketed semicolon-separated
lists and semicolon-joined matrices, table emits aligned columns with
nested matrices.  Two shapes are format-specific: the table form of
expand is the bare expansion, and autgroup emits its json as one object
for the whole group and starts its table with a "# diag" summary line.

Exit codes: 0 ok, 1 invalid input, 2 under --strict when any result is
capped/indeterminate or an Error row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields as dataclass_fields
from typing import IO, Sequence

from .contact import RotationVector, chern_residue, classify_structure, enumerate_structures
from .contfrac import LensSpace, expand
from .errors import InvalidInputError, InvalidNormError, ResultTooLargeError
from .lattice import DEFAULT_GROUP_CAP, IntersectionLattice, orthogonal_group
from .obstruct import Record, _evaluate_or_error, scan

_WIDTHS = {
    "p": 5,
    "q": 5,
    "coeffs": 14,
    "rotation": 14,
    "tight_class": 11,
    "chern": 6,
    "verdict": 15,
    "reason": 23,
    "witness": 30,
    "group_order": 11,
    "complete": 8,
    "index": 5,
    "trace": 6,
    "matrix": 30,
}


@dataclass(frozen=True)
class OutputRecord:
    """Serialization form of one obstruction record; field order fixed."""

    p: int
    q: int
    coeffs: tuple[int, ...]
    rotation: tuple[int, ...] | None
    tight_class: str | None
    chern: int | None
    verdict: str
    reason: str | None
    witness: tuple[int, ...] | None
    group_order: int | None
    complete: bool

    @staticmethod
    def from_record(rec: Record) -> "OutputRecord":
        if rec.error is not None:
            verdict = "Error"
            reason: str | None = rec.error
            witness = None
            group_order = None
            complete = True
        else:
            v = rec.verdict
            verdict = v.outcome.value
            reason = v.reason.value if v.reason is not None else None
            witness = v.witness.flatten() if v.witness is not None else None
            group_order = v.group_order
            complete = v.complete
        return OutputRecord(
            p=rec.p,
            q=rec.q,
            coeffs=tuple(rec.coeffs),
            rotation=tuple(rec.rotation.r) if rec.rotation is not None else None,
            tight_class=rec.tight_class.value if rec.tight_class is not None else None,
            chern=rec.chern,
            verdict=verdict,
            reason=reason,
            witness=witness,
            group_order=group_order,
            complete=complete,
        )


_FIELDS = tuple(f.name for f in dataclass_fields(OutputRecord))


def _bracketed(values, sep: str) -> str:
    return "[" + sep.join(str(v) for v in values) + "]"


# Fields whose tuple value is a row-major flattened square matrix.
_MATRIX_FIELDS = ("witness", "matrix")


def _cell(field: str, value, fmt: str) -> str:
    """The csv or table text of one value."""
    if value is None:
        return "" if fmt == "csv" else "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if field not in _MATRIX_FIELDS:
            return _bracketed(value, ";" if fmt == "csv" else ",")
        if fmt == "csv":
            return ";".join(str(x) for x in value)
        n = math.isqrt(len(value))
        return _bracketed((_bracketed(value[i * n : (i + 1) * n], ",") for i in range(n)), ",")
    if isinstance(value, str) and fmt == "csv":
        # Keep the row structure intact whatever the text contains.
        return value.replace(",", ";").replace("\n", " ")
    return str(value)


def render(row: dict, fmt: str) -> bytes:
    """One output line for one row of ordered field -> value pairs."""
    if fmt == "json":
        return (json.dumps(row, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        return (",".join(_cell(f, v, fmt) for f, v in row.items()) + "\n").encode()
    if fmt == "table":
        cells = (_cell(f, v, fmt).ljust(_WIDTHS.get(f, 10)) for f, v in row.items())
        return ("  ".join(cells).rstrip() + "\n").encode()
    raise InvalidInputError(f"unknown format {fmt!r}")


def emit_record(record: OutputRecord, format: str) -> bytes:
    """One output line for one record; identical input, identical bytes."""
    return render(vars(record), format)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class _Ctx:
    fmt: str
    cap: int
    quiet: bool
    strict: bool
    out: IO[bytes]


def _common_flags() -> argparse.ArgumentParser:
    par = _Parser(add_help=False)
    par.add_argument(
        "--format", choices=("json", "csv", "table"), default=argparse.SUPPRESS,
        help="output format (default table)",
    )
    par.add_argument(
        "--cap", type=int, default=argparse.SUPPRESS,
        help="bound on enumeration size and search work (default 1000000)",
    )
    par.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress header lines",
    )
    par.add_argument(
        "--strict", action="store_true", default=argparse.SUPPRESS,
        help="exit 2 when any result is capped/indeterminate or an error",
    )
    return par


def _build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(
        prog="lensmilnor",
        description="Milnor-fiber boundary obstructions for tight lens spaces.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common], help="continued fraction of P/Q")
    p_expand.add_argument("pq", metavar="P/Q")
    p_expand.set_defaults(func=_cmd_expand)

    p_struct = sub.add_parser(
        "structures", parents=[common], help="list the tight structures on L(P,Q)"
    )
    p_struct.add_argument("pq", metavar="P/Q")
    p_struct.set_defaults(func=_cmd_structures)

    p_chern = sub.add_parser(
        "chern", parents=[common], help="Chern-class residue of one structure"
    )
    p_chern.add_argument("pq", metavar="P/Q")
    p_chern.add_argument("--rot", required=True, help="rotation numbers r1,...,rn")
    p_chern.set_defaults(func=_cmd_structures)

    p_aut = sub.add_parser(
        "autgroup", parents=[common], help="integral isometry group of the lattice"
    )
    p_aut.add_argument("pq", metavar="P/Q", nargs="?")
    p_aut.add_argument("--coeffs", help="diagonal a1,...,an (negatives normalized)")
    p_aut.set_defaults(func=_cmd_autgroup)

    p_obs = sub.add_parser(
        "obstruct", parents=[common], help="obstruction verdicts for L(P,Q)"
    )
    p_obs.add_argument("pq", metavar="P/Q")
    p_obs.add_argument("--rot", help="restrict to one rotation vector r1,...,rn")
    p_obs.add_argument(
        "--theorem-only", action="store_true",
        help="skip the isometry-group fallback",
    )
    p_obs.set_defaults(func=_cmd_obstruct)

    p_scan = sub.add_parser(
        "scan", parents=[common], help="verdicts for all (p,q) up to a bound"
    )
    p_scan.add_argument("--pmax", type=int, required=True)
    p_scan.add_argument("--rot-zero-only", action="store_true")
    p_scan.add_argument("--all-even-only", action="store_true")
    p_scan.set_defaults(func=_cmd_scan)

    return parser


def _parse_pq(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise InvalidInputError(f"expected P/Q, got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"expected integers in P/Q, got {text!r}") from None
    space = LensSpace(p, q)
    return space.p, space.q


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidInputError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None


def _normalize_coeffs(values: tuple[int, ...]) -> tuple[int, ...]:
    """Accept an all-negative coefficient list and flip its sign."""
    if values and all(v < 0 for v in values):
        values = tuple(-v for v in values)
    if not values or any(v < 2 for v in values):
        raise InvalidInputError(
            f"coefficients must be all >= 2 or all <= -2, got {list(values)}"
        )
    return values


def _emit(ctx: _Ctx, fields: Sequence[str], rows) -> bool:
    """Write the header (csv and table, unless --quiet) and then the rows.

    The header goes out just before the first row, so an error raised
    while producing it leaves stdout empty.  Returns True when a row is
    capped (complete false) or an Error row.
    """
    headerless = ctx.fmt == "json" or ctx.quiet
    header = None if headerless else render(dict(zip(fields, fields)), ctx.fmt)
    flagged = False
    for row in rows:
        if header is not None:
            ctx.out.write(header)
            header = None
        if row.get("complete") is False or row.get("verdict") == "Error":
            flagged = True
        ctx.out.write(render(row, ctx.fmt))
    if header is not None:
        ctx.out.write(header)
    return flagged


def _rotations(ns, ctx: _Ctx, exp) -> list[RotationVector]:
    """The structure named by --rot, or every structure when it is absent."""
    if getattr(ns, "rot", None) is not None:
        return [RotationVector(exp, _parse_int_list(ns.rot, "--rot"))]
    return enumerate_structures(exp, cap=ctx.cap)


def _cmd_expand(ns, ctx: _Ctx) -> bool:
    p, q = _parse_pq(ns.pq)
    row = {"p": p, "q": q, "coeffs": tuple(expand(p, q))}
    if ctx.fmt == "table":
        # The table form is the bare expansion.
        ctx.out.write((_cell("coeffs", row["coeffs"], "table") + "\n").encode())
        return False
    return _emit(ctx, tuple(row), [row])


_STRUCT_FIELDS = ("p", "q", "coeffs", "rotation", "tight_class", "chern")


def _cmd_structures(ns, ctx: _Ctx) -> bool:
    """structures, and chern for the one structure given by --rot."""
    p, q = _parse_pq(ns.pq)
    rows = (
        {
            "p": p,
            "q": q,
            "coeffs": tuple(rot.coeffs),
            "rotation": rot.r,
            "tight_class": classify_structure(rot).value,
            "chern": chern_residue(rot).value,
        }
        for rot in _rotations(ns, ctx, expand(p, q))
    )
    return _emit(ctx, _STRUCT_FIELDS, rows)


def _cmd_autgroup(ns, ctx: _Ctx) -> bool:
    if ns.pq is None and ns.coeffs is None:
        raise InvalidInputError("autgroup needs P/Q or --coeffs")
    diag = None
    if ns.coeffs is not None:
        diag = _normalize_coeffs(_parse_int_list(ns.coeffs, "--coeffs"))
    if ns.pq is not None:
        p, q = _parse_pq(ns.pq)
        expanded = tuple(expand(p, q))
        if diag is not None and diag != expanded:
            raise InvalidInputError(
                f"{p}/{q} expands to {list(expanded)}, which disagrees "
                f"with --coeffs {list(diag)}"
            )
        diag = expanded
    group = orthogonal_group(IntersectionLattice(diag), cap=ctx.cap)

    if ctx.fmt == "json":
        # One object for the whole group.
        obj = {
            "diag": diag,
            "order": group.order,
            "complete": group.complete,
            "elements": [e.flatten() for e in group],
        }
        ctx.out.write(render(obj, "json"))
        return not group.complete
    if ctx.fmt == "table" and not ctx.quiet:
        summary = (
            f"# diag {_cell('diag', diag, 'table')} order {group.order} "
            f"complete {_cell('complete', group.complete, 'table')}\n"
        )
        ctx.out.write(summary.encode())
    rows = (
        {"index": i, "trace": e.trace, "matrix": e.flatten()} for i, e in enumerate(group)
    )
    _emit(ctx, ("index", "trace", "matrix"), rows)
    return not group.complete


def _emit_records(ctx: _Ctx, records) -> bool:
    return _emit(ctx, _FIELDS, (vars(OutputRecord.from_record(rec)) for rec in records))


def _cmd_obstruct(ns, ctx: _Ctx) -> bool:
    p, q = _parse_pq(ns.pq)
    rots = _rotations(ns, ctx, expand(p, q))
    return _emit_records(
        ctx,
        (
            _evaluate_or_error(p, q, rot, theorem_only=ns.theorem_only, cap=ctx.cap)
            for rot in rots
        ),
    )


def _cmd_scan(ns, ctx: _Ctx) -> bool:
    records = scan(
        ns.pmax,
        rot_zero_only=ns.rot_zero_only,
        all_even_only=ns.all_even_only,
        cap=ctx.cap,
    )
    return _emit_records(ctx, records)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute, return the exit code (0 ok, 1 bad input,
    2 indeterminate or Error rows under --strict)."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    ctx = _Ctx(
        fmt=getattr(ns, "format", "table"),
        cap=getattr(ns, "cap", DEFAULT_GROUP_CAP),
        quiet=getattr(ns, "quiet", False),
        strict=getattr(ns, "strict", False),
        out=sys.stdout.buffer,
    )
    if ctx.cap < 1:
        print("error: --cap must be positive", file=sys.stderr)
        return 1
    try:
        indeterminate = ns.func(ns, ctx)
        ctx.out.flush()
    except (InvalidInputError, InvalidNormError, ResultTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if ctx.strict and indeterminate:
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
