"""Command line driver: parse .b1a algebra files, run analyses, print reports.

The .b1a format is UTF-8, '#' starts a comment, tokens are whitespace
separated::

    elements 0 z x y u 1
    zero 0
    one 1
    add
    <order rows of order labels>
    mul
    <order rows of order labels>

Row i, column j of a table is (row element) op (column element) in the
``elements`` order; the zero element must be listed first.

Commands: validate, ideals, spectrum, nil, assoc, decompose, laskerian,
evans, audit, builtin.  Reports are deterministic: the same input produces
byte-identical output.  Exit codes: 0 success, 1 for a property verdict the
caller asked to assert, 2 for input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .algebra import (
    Algebra,
    AlgebraError,
    AxiomError,
    BUILTIN_NAMES,
    _label_problem,
    builtin,
)
from .decompose import (
    audit,
    evans_report,
    laskerian_check,
    minimalize,
    radical_decomposition,
)
from .ideals import (
    enumerate_ideals,
    enumerate_saturated_ideals,
    mask_of,
    member_labels,
)
from .spectrum import associated_primes, nilradical, spectrum


class ParseError(AlgebraError):
    """Syntax problem in a .b1a file; the message carries the location."""

    def __init__(self, line: int, message: str, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}"
        if column is not None:
            where += f", entry {column}"
        super().__init__(f"{where}: {message}")


def parse_algebra_text(text: str) -> Algebra:
    """Parse .b1a source into a validated algebra.

    Labels and entries are checked and mapped to indices in one pass here,
    so that each defect names its line; the ``Algebra`` constructor then
    finds only the axioms to refuse.
    """
    # (line number, tokens) with comments and blanks dropped
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))

    names: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    labels: dict[str, str] = {}  # the zero and one directives' labels
    tables: dict[str, tuple[tuple[int, ...], ...]] = {}
    seen_at: dict[str, int] = {}

    pos = 0
    while pos < len(rows):
        lineno, (head, *args) = rows[pos]
        pos += 1
        if head in seen_at:
            raise ParseError(lineno, f"duplicate directive {head!r} (first at line {seen_at[head]})")
        if head == "elements":
            if not args:
                raise ParseError(lineno, "elements directive needs at least one label")
            names = tuple(args)
            problem = _label_problem(names)
            if problem is not None:
                raise ParseError(lineno, problem)
            index = {name: i for i, name in enumerate(names)}
        elif head in ("zero", "one"):
            if len(args) != 1:
                raise ParseError(lineno, f"{head} directive needs exactly one label")
            labels[head] = args[0]
        elif head in ("add", "mul"):
            if args:
                raise ParseError(lineno, f"{head} directive takes no arguments")
            if names is None:
                raise ParseError(lineno, f"{head} table appears before the elements directive")
            n = len(names)
            table: list[tuple[int, ...]] = []
            for r, (row_line, row) in enumerate(rows[pos:pos + n], start=1):
                if len(row) != n:
                    raise ParseError(
                        row_line, f"{head} table row {r} has {len(row)} entries, expected {n}"
                    )
                try:
                    table.append(tuple(map(index.__getitem__, row)))
                except KeyError as exc:
                    entry = exc.args[0]
                    raise ParseError(
                        row_line, f"unknown label {entry!r}", column=row.index(entry) + 1
                    ) from None
            if len(table) < n:
                raise ParseError(lineno, f"{head} table ends after {len(table)} of {n} rows")
            tables[head] = tuple(table)
            pos += n
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
        seen_at[head] = lineno

    for needed in ("elements", "zero", "one", "add", "mul"):
        if needed not in seen_at:
            raise ParseError(len(text.splitlines()) + 1, f"missing directive: {needed}")
    for head in ("zero", "one"):
        if labels[head] not in index:
            raise ParseError(seen_at[head], f"unknown label {labels[head]!r}")
    if names[0] != labels["zero"]:
        raise ParseError(
            seen_at["elements"], f"zero element {labels['zero']!r} must be listed first"
        )
    return Algebra(names, tables["add"], tables["mul"], index[labels["one"]])


def parse_algebra_file(path: str | Path) -> Algebra:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"not valid UTF-8 (byte offset {exc.start})") from None
    # A leading byte-order mark is dropped after decoding, so that the
    # offsets of decode errors still count from the file's first byte.
    return parse_algebra_text(text.removeprefix("\ufeff"))


def serialize_algebra(algebra: Algebra) -> str:
    """Canonical .b1a text; parsing it back yields an identical algebra."""
    lines = ["elements " + " ".join(algebra.names)]
    lines.append(f"zero {algebra.names[0]}")
    lines.append(f"one {algebra.names[algebra.one]}")
    for directive, table in (("add", algebra.add), ("mul", algebra.mul)):
        lines.append(directive)
        for row in table:
            lines.append(" ".join(algebra.names[e] for e in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rendering


def _ideal_str(algebra: Algebra, mask: int) -> str:
    return ",".join(member_labels(algebra, mask))


def _ideal_list(algebra: Algebra, masks) -> list[str]:
    return [_ideal_str(algebra, m) for m in masks]


def _render_value(value, out, indent: int, key: str | None = None) -> None:
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            print(f"{pad}{key}:", file=out)
        for k, v in value.items():
            _render_value(v, out, indent + (key is not None), key=k)
    elif isinstance(value, list):
        print(f"{pad}{key if key is not None else 'items'} ({len(value)}):", file=out)
        for item in value:
            if isinstance(item, (dict, list)):
                print(f"{pad}  -", file=out)
                _render_value(item, out, indent + 2)
            else:
                print(f"{pad}  {item}", file=out)
    else:
        print(f"{pad}{label}{value}", file=out)


def _emit(command: str, label: str, result: dict, fmt: str, out) -> None:
    if fmt == "json":
        import json  # only here, so text reports skip loading it

        payload = {
            "command": command,
            "algebra": label,
            "engine_version": __version__,
            "result": result,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"command: {command}", file=out)
        print(f"algebra: {label}", file=out)
        print(f"engine: b1alg {__version__}", file=out)
        _render_value(result, out, indent=0)


# ---------------------------------------------------------------------------
# Commands: each maps a parsed algebra and the arguments to (payload, status)


def _parse_ideal_flag(algebra: Algebra, text: str) -> int:
    """The mask named by an --ideal value, which must name an element; zero
    is implicit.  The analyses check that the mask is an ideal."""
    labels = [t for t in text.split(",") if t]
    if not labels:
        zero = algebra.names[0]
        raise AlgebraError(f"--ideal {text!r} names no element; the zero ideal is spelled {zero!r}")
    unknown = [t for t in labels if t not in algebra.index]
    if unknown:
        raise AlgebraError(f"--ideal contains unknown label {unknown[0]!r}")
    return mask_of(algebra.index[t] for t in labels) | 1


def _associated_list(algebra: Algebra, pairs) -> list[dict]:
    return [
        {"witness": algebra.names[x], "prime": _ideal_str(algebra, p)} for x, p in pairs
    ]


def _invalid_payload(exc: AxiomError) -> dict:
    """The validate report of tables that fail the axioms."""
    return {
        "valid": exc.report.valid,
        "violations": [
            {"axiom": v.axiom, "witness": [exc.names[i] for i in v.witness]}
            for v in exc.report.violations
        ],
        "trivial": len(exc.names) == 1,
    }


def cmd_validate(algebra: Algebra, args) -> tuple[dict, int]:
    payload = {"valid": True, "violations": [], "order": algebra.order,
               "trivial": algebra.is_trivial}
    return payload, 0


def cmd_ideals(algebra: Algebra, args) -> tuple[dict, int]:
    masks = (
        enumerate_saturated_ideals(algebra) if args.saturated else enumerate_ideals(algebra)
    )
    payload = {
        "saturated_only": bool(args.saturated),
        "count": len(masks),
        "ideals": _ideal_list(algebra, masks),
    }
    return payload, 0


def cmd_spectrum(algebra: Algebra, args) -> tuple[dict, int]:
    result = spectrum(algebra)
    payload = {
        "primes": _ideal_list(algebra, result.primes),
        "saturated_primes": _ideal_list(algebra, result.saturated_primes),
        "min_primes": _ideal_list(algebra, result.min_primes),
        "min_saturated_primes": _ideal_list(algebra, result.min_saturated_primes),
        "max_saturated": _ideal_list(algebra, result.max_saturated),
        "associated": _associated_list(algebra, result.associated),
        "nilradical": _ideal_str(algebra, result.nilradical),
        "zero_divisors": list(member_labels(algebra, result.zero_divisors)),
        "standard": result.standard,
        "standard_cover": _ideal_list(algebra, result.standard_cover),
    }
    return payload, 0


def cmd_nil(algebra: Algebra, args) -> tuple[dict, int]:
    return {"nilradical": _ideal_str(algebra, nilradical(algebra))}, 0


def cmd_assoc(algebra: Algebra, args) -> tuple[dict, int]:
    return {"associated": _associated_list(algebra, associated_primes(algebra))}, 0


def cmd_decompose(algebra: Algebra, args) -> tuple[dict, int]:
    result = radical_decomposition(algebra, _parse_ideal_flag(algebra, args.ideal))
    if args.minimal:
        result = minimalize(result)
    payload = {
        "input": _ideal_str(algebra, result.input),
        "radical": _ideal_str(algebra, result.intersection()),
        "components": _ideal_list(algebra, result.components),
        "irredundant": result.irredundant,
        "split_trace": [
            {
                "ideal": _ideal_str(algebra, node),
                "witness": [algebra.names[u], algebra.names[v]],
            }
            for node, (u, v) in result.split_trace
        ],
    }
    return payload, 0


def cmd_laskerian(algebra: Algebra, args) -> tuple[dict, int]:
    report = laskerian_check(algebra)
    payload = {
        "laskerian": report.laskerian,
        "witness": None if report.witness is None else _ideal_str(algebra, report.witness),
        "saturated_primaries": _ideal_list(algebra, report.saturated_primaries),
        "primaries": _ideal_list(algebra, report.primaries),
        "table": {
            _ideal_str(algebra, ideal): _ideal_list(algebra, parts)
            for ideal, parts in report.table
        },
    }
    return payload, 1 if args.assert_laskerian and not report.laskerian else 0


def cmd_evans(algebra: Algebra, args) -> tuple[dict, int]:
    if args.ideal is not None:
        masks = [_parse_ideal_flag(algebra, args.ideal)]
    else:
        masks = enumerate_saturated_ideals(algebra)[:-1]
    reports = [evans_report(algebra, m) for m in masks]
    passed = all(r.passed for r in reports)
    payload = {
        "all_passed": passed,
        "reports": [
            {
                "ideal": _ideal_str(algebra, r.ideal),
                "maximal_conductors": [
                    {"witness": algebra.names[y], "conductor": _ideal_str(algebra, c)}
                    for y, c in r.maximal_conductors
                ],
                "all_prime": r.all_prime,
                "all_saturated": r.all_saturated,
                "union_equals_divisor_set": r.union_equals_divisor_set,
                "passed": r.passed,
            }
            for r in reports
        ],
    }
    return payload, 1 if args.assert_evans and not passed else 0


def cmd_audit(algebra: Algebra, args) -> tuple[dict, int]:
    result = audit(algebra)
    payload = {
        "passed": result.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in result.checks
        ],
    }
    return payload, 0 if result.passed else 1


_IDEAL_HELP = "comma-separated element labels denoting an ideal"
_ASSERT_HELP = "exit with status 1 when the property fails"

# name, help, command, extra arguments as (flag, argparse keywords)
COMMANDS = (
    ("validate", "check the axioms of an algebra file", cmd_validate, ()),
    ("ideals", "enumerate the ideals", cmd_ideals, (
        ("--saturated", {"action": "store_true", "help": "saturated ideals only"}),
    )),
    ("spectrum", "primes, minimal primes, spectra", cmd_spectrum, ()),
    ("nil", "the nilradical", cmd_nil, ()),
    ("assoc", "associated primes with witnesses", cmd_assoc, ()),
    ("decompose", "prime decomposition of a saturated ideal's radical", cmd_decompose, (
        ("--ideal", {"metavar": "SET", "required": True, "help": _IDEAL_HELP}),
        ("--minimal", {"action": "store_true", "help": "drop redundant components"}),
    )),
    ("laskerian", "saturated-primary decomposability of all saturated ideals",
     cmd_laskerian, (
        ("--assert-laskerian", {"action": "store_true", "help": _ASSERT_HELP}),
    )),
    ("evans", "maximal-conductor reports for saturated ideals", cmd_evans, (
        ("--ideal", {"metavar": "SET", "help": _IDEAL_HELP}),
        ("--assert-evans", {"action": "store_true", "help": _ASSERT_HELP}),
    )),
    ("audit", "run the full invariant suite; exit 1 on any failure", cmd_audit, ()),
)


def _run(args) -> int:
    """Parse the file, run the command on it, print the report."""
    try:
        algebra = parse_algebra_file(args.file)
    except AxiomError as exc:
        if args.command != "validate":
            raise
        payload, status = _invalid_payload(exc), 2
    else:
        payload, status = args.run(algebra, args)
    # validate echoes the normalised path, the analyses the path as given
    label = str(Path(args.file)) if args.command == "validate" else args.file
    _emit(args.command, label, payload, args.format, sys.stdout)
    return status


def _builtin(args) -> int:
    text = serialize_algebra(builtin(args.name))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b1alg",
        description="Analyze finite characteristic-one semirings (.b1a files).",
    )
    parser.add_argument("--version", action="version", version=f"b1alg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, command, extra in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra definition (.b1a)")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default: text)",
        )
        for flag, options in extra:
            p.add_argument(flag, **options)
        p.set_defaults(func=_run, run=command)

    p = sub.add_parser("builtin", help="emit a builtin algebra as .b1a text")
    p.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")
    p.set_defaults(func=_builtin)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AxiomError as exc:
        print(f"error: invalid algebra: {exc}", file=sys.stderr)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
