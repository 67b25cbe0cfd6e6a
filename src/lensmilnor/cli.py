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

A line is its row's cells, joined and framed: a json cell is "key":value,
a csv or table cell the text of one value.  The obstruct and scan
records are written by emit_record, which formats only a record's own
cells (rotation, tight_class, chern) and takes the pair's cells (p, q,
coeffs) and the verdict's (verdict to complete) from the previous record
of the same format when each of the group's values is the very object
that record held: every structure of a pair shares the first, and most
records of a census the second.  The bytes are render()'s.

Exit codes: 0 ok, 1 invalid input, 2 under --strict when any result is
capped/indeterminate or an Error row, 141 (128 + SIGPIPE) when the
reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields
from typing import IO, Iterable, Sequence

from .contact import RotationVector, chern_residue, classify_structure, enumerate_structures
from .contfrac import expand
from .errors import DEFAULT_CAP, InvalidInputError, ResultTooLargeError, check_cap
from .lattice import IntersectionLattice, orthogonal_group
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


@dataclass
class OutputRecord:
    """Serialization form of one obstruction record; field order fixed.

    Not frozen: it is built and rendered once per record, and a frozen
    dataclass pays an object.__setattr__ call per field.
    """

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
            verdict, reason, witness, group_order, complete = rec.verdict.output_fields
        # Positional, in field order: keyword arguments cost about a
        # microsecond more per record.
        return OutputRecord(
            rec.p,
            rec.q,
            # The expansion's and the vector's own tuples: tuple() over
            # a CFExpansion runs its Python-level __iter__.
            rec.coeffs.coeffs,
            rec.rotation.r if rec.rotation is not None else None,
            # _value_ is the plain attribute behind the slower .value
            # descriptor.
            rec.tight_class._value_ if rec.tight_class is not None else None,
            rec.chern,
            verdict,
            reason,
            witness,
            group_order,
            complete,
        )


_FIELDS = tuple(f.name for f in dataclass_fields(OutputRecord))


def _bracketed(values, sep: str) -> str:
    return "[" + sep.join(map(str, values)) + "]"


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


# json.dumps builds a new JSONEncoder on every call that passes
# separators, and JSONEncoder.encode builds a new C encoder on every call.
# This C encoder is built once, from the arguments JSONEncoder.iterencode
# passes (ensure_ascii on), and writes the same bytes.  Rows are acyclic,
# so it keeps no markers for the circular-reference check.
_encoder = json.JSONEncoder(separators=(",", ":"))
_escape = json.encoder.encode_basestring_ascii
if json.encoder.c_make_encoder is not None:
    _iterencode = json.encoder.c_make_encoder(
        None,
        _encoder.default,
        _escape,
        _encoder.indent,
        _encoder.key_separator,
        _encoder.item_separator,
        _encoder.sort_keys,
        _encoder.skipkeys,
        _encoder.allow_nan,
    )
else:

    def _iterencode(value, _current_indent_level):
        return _encoder.iterencode(value)


def _json_encode(value) -> str:
    return "".join(_iterencode(value, 0))


def _cells(row: dict, fmt: str) -> str:
    """The cells of a row's fields, joined as a line of the format joins
    them; a JSON cell is "key":value."""
    if fmt == "json":
        return _json_encode(row)[1:-1]
    if fmt == "csv":
        return ",".join(_cell(f, v, fmt) for f, v in row.items())
    if fmt == "table":
        return "  ".join(_cell(f, v, fmt).ljust(_WIDTHS.get(f, 10)) for f, v in row.items())
    raise InvalidInputError(f"unknown format {fmt!r}")


# What joins two runs of cells within a line.
_SEP = {"json": ",", "csv": ",", "table": "  "}


def _line(cells: str, fmt: str) -> bytes:
    """The output line of a row's joined cells."""
    if fmt == "json":
        return ("{" + cells + "}\n").encode()
    if fmt == "table":
        cells = cells.rstrip()
    return (cells + "\n").encode()


def render(row: dict, fmt: str) -> bytes:
    """One output line for one row of ordered field -> value pairs: its
    cells, joined and framed as the format writes a line.  Nothing is
    cached; emit_record writes the same bytes for a record's fields."""
    return _line(_cells(row, fmt), fmt)


# A record's fields in three groups: the pair's, shared by every
# structure of a pair; the structure's own; and the verdict's, shared by
# most records of a census.
_PAIR_FIELDS, _OWN_FIELDS, _VERDICT_FIELDS = _FIELDS[:3], _FIELDS[3:6], _FIELDS[6:]
_shared_values = operator.itemgetter(*_PAIR_FIELDS, *_VERDICT_FIELDS)
_own_values = operator.itemgetter(*_OWN_FIELDS)

# Per format, the last record line's pair and verdict values with their
# joined cells: one (values, pair cells, verdict cells) tuple, replaced
# whole, so a reader never pairs one record's values with another's
# text, and memory stays O(1) on any scan.  It saves work only: no line
# depends on what it holds.  A group's cells are reused only when each of
# its values is the very object held here; record fields hold immutable
# values, so the same object renders alike every time.
_last_cells: dict[str, tuple] = {}


def _refresh(fmt: str, shared: tuple, last: tuple | None) -> tuple:
    """The entry of fmt for a record with these pair and verdict values,
    stored in place of last: a group keeps last's cells under
    emit_record's rule, and is rendered afresh otherwise."""
    n = len(_PAIR_FIELDS)
    pair, verdict = shared[:n], shared[n:]
    if last is not None and all(map(operator.is_, pair, last[0][:n])):
        pair_cells = last[1]
    elif fmt == "json" and type(pair[0]) is int and type(pair[1]) is int:
        # As the encoder writes two ints, with only coeffs encoded: one
        # encoder call on the three cells as a dict costs twice as much.
        pair_cells = f'"p":{pair[0]!r},"q":{pair[1]!r},"coeffs":{_json_encode(pair[2])}'
    else:
        pair_cells = _cells(dict(zip(_PAIR_FIELDS, pair)), fmt)
    if last is not None and all(map(operator.is_, verdict, last[0][n:])):
        verdict_cells = last[2]
    else:
        verdict_cells = _cells(dict(zip(_VERDICT_FIELDS, verdict)), fmt)
    entry = (shared, pair_cells, verdict_cells)
    _last_cells[fmt] = entry
    return entry


def _record_line(row: dict, fmt: str) -> bytes:
    """render(row, fmt) for the fields of an OutputRecord, with the
    pair's and the verdict's cells reused as emit_record says."""
    shared = _shared_values(row)
    last = _last_cells.get(fmt)
    if last is None or not all(map(operator.is_, shared, last[0])):
        last = _refresh(fmt, shared, last)
    rotation, tight_class, chern = _own_values(row)
    if fmt == "json" and type(tight_class) is str and type(chern) is int:
        # render's line, with the str and the int written as the encoder
        # writes them and only the rotation encoded: one encoder call on
        # the three cells as a dict costs more than the rest of the line.
        return (
            f'{{{last[1]},"rotation":{"".join(_iterencode(rotation, 0))},'
            f'"tight_class":{_escape(tight_class)},"chern":{chern!r},{last[2]}}}\n'
        ).encode()
    own = _cells(dict(zip(_OWN_FIELDS, (rotation, tight_class, chern))), fmt)
    return _line(_SEP[fmt].join((last[1], own, last[2])), fmt)


def emit_record(record: OutputRecord, format: str) -> bytes:
    """One output line for one record; the bytes of
    render(vars(record), format).

    Only rotation, tight_class and chern are formatted on every call.
    The cells of p, q and coeffs, and those of verdict, reason, witness,
    group_order and complete, are reused from the previous call in the
    same format when each of the group's values is the very object that
    call was given, and formatted afresh otherwise.  One entry per format
    is kept, whatever the number of records.
    """
    return _record_line(vars(record), format)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _common_flags() -> argparse.ArgumentParser:
    par = _Parser(add_help=False)
    par.add_argument(
        "--format", choices=("json", "csv", "table"), default=argparse.SUPPRESS,
        help="output format (default table)",
    )
    par.add_argument(
        "--cap", type=int, default=argparse.SUPPRESS,
        help="bound on enumeration size and search work in every subcommand, "
        f"scan included (default {DEFAULT_CAP})",
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
    parser = _Parser(
        prog="lensmilnor",
        description="Milnor-fiber boundary obstructions for tight lens spaces.",
        parents=[_common_flags()],
    )
    # argparse shares a parent's actions, so these defaults would reach the
    # subcommands too; those take a copy of their own, whose SUPPRESS
    # defaults leave a flag given before the subcommand in place.
    parser.set_defaults(format="table", cap=DEFAULT_CAP, quiet=False, strict=False)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common], help="continued fraction of P/Q")
    p_expand.add_argument("pq", metavar="P/Q")
    p_expand.set_defaults(func=_cmd_expand)

    p_struct = sub.add_parser(
        "structures", parents=[common], help="list the tight structures on L(P,Q)"
    )
    p_struct.add_argument("pq", metavar="P/Q")
    p_struct.set_defaults(func=_cmd_structures, rot=None)

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
    return p, q


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


def _emit(ns, out: IO[bytes], fields: Sequence[str], rows, line=render) -> bool:
    """Write the header (csv and table, unless --quiet) and then the rows,
    each as line(row, format).

    The header goes out just before the first row, so an error raised
    while producing it leaves stdout empty.  Returns True when a row is
    capped (complete false) or an Error row.
    """
    headerless = ns.format == "json" or ns.quiet
    header = None if headerless else render(dict(zip(fields, fields)), ns.format)
    flagged = False
    for row in rows:
        if header is not None:
            out.write(header)
            header = None
        if row.get("complete") is False or row.get("verdict") == "Error":
            flagged = True
        out.write(line(row, ns.format))
    if header is not None:
        out.write(header)
    return flagged


def _rotations(ns, exp) -> Iterable[RotationVector]:
    """The structure named by --rot, or every structure when it is absent."""
    if ns.rot is not None:
        return [RotationVector(exp, _parse_int_list(ns.rot, "--rot"))]
    return enumerate_structures(exp, cap=ns.cap)


def _cmd_expand(ns, out: IO[bytes]) -> bool:
    p, q = _parse_pq(ns.pq)
    row = {"p": p, "q": q, "coeffs": expand(p, q).coeffs}
    if ns.format == "table":
        # The table form is the bare expansion.
        out.write((_cell("coeffs", row["coeffs"], "table") + "\n").encode())
        return False
    return _emit(ns, out, tuple(row), [row])


_STRUCT_FIELDS = _FIELDS[:6]


def _cmd_structures(ns, out: IO[bytes]) -> bool:
    """structures, and chern for the one structure given by --rot."""
    p, q = _parse_pq(ns.pq)
    exp = expand(p, q)
    rows = (
        {
            "p": p,
            "q": q,
            "coeffs": exp.coeffs,
            "rotation": rot.r,
            "tight_class": classify_structure(rot).value,
            "chern": chern_residue(rot),
        }
        for rot in _rotations(ns, exp)
    )
    return _emit(ns, out, _STRUCT_FIELDS, rows)


def _cmd_autgroup(ns, out: IO[bytes]) -> bool:
    if ns.pq is None and ns.coeffs is None:
        raise InvalidInputError("autgroup needs P/Q or --coeffs")
    diag = None
    if ns.coeffs is not None:
        diag = _normalize_coeffs(_parse_int_list(ns.coeffs, "--coeffs"))
    if ns.pq is not None:
        p, q = _parse_pq(ns.pq)
        expanded = expand(p, q).coeffs
        if diag is not None and diag != expanded:
            raise InvalidInputError(
                f"{p}/{q} expands to {list(expanded)}, which disagrees "
                f"with --coeffs {list(diag)}"
            )
        diag = expanded
    group = orthogonal_group(IntersectionLattice(diag), cap=ns.cap)

    if ns.format == "json":
        # One object for the whole group.
        obj = {
            "diag": diag,
            "order": group.order,
            "complete": group.complete,
            "elements": [e.flatten() for e in group],
        }
        out.write(render(obj, "json"))
        return not group.complete
    if ns.format == "table" and not ns.quiet:
        summary = (
            f"# diag {_cell('diag', diag, 'table')} order {group.order} "
            f"complete {_cell('complete', group.complete, 'table')}\n"
        )
        out.write(summary.encode())
    rows = (
        {"index": i, "trace": e.trace, "matrix": e.flatten()} for i, e in enumerate(group)
    )
    _emit(ns, out, ("index", "trace", "matrix"), rows)
    return not group.complete


def _emit_records(ns, out: IO[bytes], records) -> bool:
    rows = (vars(OutputRecord.from_record(rec)) for rec in records)
    return _emit(ns, out, _FIELDS, rows, _record_line)


def _cmd_obstruct(ns, out: IO[bytes]) -> bool:
    p, q = _parse_pq(ns.pq)
    records = (
        _evaluate_or_error(p, q, rot, theorem_only=ns.theorem_only, cap=ns.cap)
        for rot in _rotations(ns, expand(p, q))
    )
    return _emit_records(ns, out, records)


def _cmd_scan(ns, out: IO[bytes]) -> bool:
    records = scan(
        ns.pmax,
        rot_zero_only=ns.rot_zero_only,
        all_even_only=ns.all_even_only,
        cap=ns.cap,
    )
    return _emit_records(ns, out, records)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute, return the exit code (0 ok, 1 bad input,
    2 indeterminate or Error rows under --strict, 141 stdout closed)."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    out = sys.stdout.buffer
    try:
        check_cap(ns.cap)
        indeterminate = ns.func(ns, out)
        out.flush()
    except (InvalidInputError, ResultTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so the flush of
        # what is still buffered at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    if ns.strict and indeterminate:
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
