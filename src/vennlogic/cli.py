"""Command-line front end.

Usage:
    vennlogic codify -e "x & y" -v x,y
    vennlogic eval -e "x ^ y" -a "x=0.6;y=0.3" --logic fuzzy
    vennlogic eval -e "x & y" -a "x=0.5,0.3,0.2;y=0.4,0.4,0.2" --logic neutrosophic
    vennlogic table 1 --format csv
    vennlogic table 2 -a "x=0.5,0.3,0.2;y=0.4,0.4,0.2" --order TIF
    vennlogic parts 3
    vennlogic selftest --seed 42

Assignments are name=value entries joined by ';'.  Fuzzy values take a bare
truth (falsehood is its complement) or an explicit "t,f" pair; neutrosophic
values take all three components "T,I,F"; boolean values take 0 or 1.  Every
component lies in [0, 1], with no slack, and a pair within 1e-9 of t + f = 1:
Assignment.fuzzy and Assignment.neutrosophic check that, not this module.

Values print their fields in declaration order (t, f; T, I, F); JSON rounds
numbers to 12 significant digits, and csv and markdown cells use %.12g.  Rows
of csv, markdown and `parts` JSON are written 1,024 at a time through one
%-template; the only quoted csv field is an expression with a line break.

Exit codes: 0 success, also when a reader closes stdout early (`| head`), 2
usage or syntax error, 3 numeric precondition violation, 4 selftest failure.
Every check runs before the first byte is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain, compress, islice

from .errors import ArityMismatch, ParseError, SelfTestFailure, VennLogicError
from .evaluate import (
    Assignment,
    evaluate_operator,
    fuzzy_operator_table,
    neutro_operator_table,
)
from .expr import _NAME_RE, KEYWORDS, compile_expr, parse
from .logic_core import ORDERS, PrevalenceOrder
from .record import Record
from .venn import mask_bits, part_labels

DEFAULT_TABLE2_ASSIGN = "x=0.5,0.3,0.2;y=0.4,0.4,0.2"


def _round12(x: float) -> float:
    return float(format(x, ".12g"))


def _fmt(x) -> str:
    return "" if x is None else format(x, ".12g")


def _json(x):
    """A record as a dict of its fields in declaration order, recursively, and
    a float rounded to 12 significant digits; an int, str or None as it is."""
    if isinstance(x, Record):
        return {name: _json(v) for name, v in vars(x).items()}
    return _round12(x) if isinstance(x, float) else x


def _write_rows(template, rows, sep="") -> None:
    """Write each row through template, sep between rows, with one % operation
    per chunk of 1,024 rows, so no 2^n-row list or string is built."""
    rows = iter(rows)  # islice of a list would start again at its first row
    lead = ""
    while chunk := list(islice(rows, 1024)):
        flat = tuple(chain.from_iterable(chunk))
        sys.stdout.write(lead + (sep.join([template] * len(chunk)) % flat))
        lead = sep


def _emit(fmt, payload, header, cells, rows, before=(), after=()) -> None:
    """Print JSON of payload() (built for JSON only), csv of the header and
    rows, or else markdown: the before lines, the table and the after lines.
    Each row's columns go through cells, one %-format per column."""
    if fmt == "json":
        print(json.dumps(payload(), ensure_ascii=False))
        return
    if fmt == "csv":
        print(",".join(header))
        _write_rows(",".join(cells) + "\n", rows)
        return
    sys.stdout.writelines(f"{line}\n" for line in before)
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join(" --- " for _ in header) + "|")
    _write_rows("| " + " | ".join(cells) + " |\n", rows)
    sys.stdout.writelines(f"{line}\n" for line in after)


def _name(raw: str, at: int) -> str:
    """raw stripped, if a formula can spell it; at is raw's offset in its text."""
    name = raw.strip()
    if _NAME_RE.fullmatch(name) and name not in KEYWORDS:
        return name
    raise ParseError(f"bad variable name {name!r}", at + raw.find(name), {"name"})


def _parse_vars(text: str) -> tuple[str, ...]:
    blank = re.search(r"(?<![^,])\s*(?![^,])", text)  # the first empty or blank name
    if blank:
        raise ParseError(f"bad variable list {text!r}", blank.start(), {"name"})
    return tuple(_name(m.group(), m.start()) for m in re.finditer("[^,]+", text))


def _parse_assignment(
    text: str, logic: str, vars_text: str | None = None
) -> Assignment:
    """Split name=value entries into floats and hand them, in the -v order of
    vars_text if given, to the logic's Assignment constructor, which checks them."""
    entries = []
    for m in re.finditer(r"[^;]+", text):
        chunk, at = m.group().strip(), m.start()
        if not chunk:
            continue
        name, eq, rhs = chunk.partition("=")
        if not eq or not name.strip():
            raise ParseError(f"bad assignment entry {chunk!r}", at, {"name=value"})
        name = _name(name, at + m.group().find(chunk))
        try:
            comps = [float(c) for c in rhs.split(",")]
        except ValueError:
            raise ParseError(
                f"variable {name!r}: non-numeric component in {rhs!r}",
                at,
                {"number"},
            ) from None
        entries.append((name, comps))
    rows = dict(entries)
    if not rows:
        raise ParseError("empty assignment", 0, {"name=value"})
    if len(rows) != len(entries):
        raise ArityMismatch("duplicate variable names in assignment")
    names = tuple(rows) if vars_text is None else _parse_vars(vars_text)
    missing = [name for name in names if name not in rows]
    extra = [name for name in rows if name not in names]
    if missing or extra:
        raise ArityMismatch(
            "assignment does not match declared variables"
            + (f", missing: {', '.join(missing)}" if missing else "")
            + (f", unexpected: {', '.join(extra)}" if extra else "")
        )
    values = [rows[name] for name in names]
    if logic == "neutrosophic":
        return Assignment.neutrosophic(names, values)
    if logic == "boolean":
        for name, comps in zip(names, values):
            if comps not in ([0.0], [1.0]):
                raise ArityMismatch(f"variable {name!r}: boolean values are 0 or 1")
    return Assignment.fuzzy(names, values)


def cmd_codify(args) -> int:
    names = _parse_vars(args.vars)
    spec = compile_expr(parse(args.expr), names)
    # str() before anything 2^n long is built, so a failed conversion prints nothing
    index = str(spec.shaded)
    shaded = mask_bits(spec.n, spec.shaded)
    labels = compress(part_labels(spec.n), shaded)
    masks = compress(range(spec.part_count), shaded)
    header, cells, rows = ("part", "bit"), ("%s", "%s"), zip(labels, masks)
    if args.format == "csv":
        # ',' and '"' do not parse, so only a line break needs CSV quotes
        expr = f'"{args.expr}"' if re.search("[\r\n]", args.expr) else args.expr
        header, cells = ("expression", "n", "index", "parts"), ("%s",) * 4
        rows = [(expr, spec.n, index, " ".join(labels))]
    _emit(
        args.format,
        lambda: {
            "expression": args.expr,
            "vars": list(names),
            "n": spec.n,
            "index": spec.shaded,
            "parts": list(labels),
            "bits": list(masks),
        },
        header,
        cells,
        rows,
        (f"expression: `{args.expr}`  vars: {', '.join(names)}", f"index: {index}"),
    )
    return 0


def cmd_eval(args) -> int:
    assignment = _parse_assignment(args.assign, args.logic, args.vars)
    spec = compile_expr(parse(args.expr), assignment.names)
    order = PrevalenceOrder.from_string(args.order)
    report = evaluate_operator(spec, assignment, order=order, with_oracle=args.oracle)
    fields = tuple(vars(report.aggregate))
    # a union's strategy builds a label list of its own: read it before the
    # rows' labels exist, so one list is alive at a time; csv never prints it
    strategy = None if args.format == "csv" else report.strategy
    labels = part_labels(spec.n)
    aggregate = [("aggregate", "", *vars(report.aggregate).values())]
    footer = (("tau", report.tau), ("oracle delta", report.oracle_delta))
    _emit(
        args.format,
        lambda: {
            "expression": args.expr,
            "vars": list(assignment.names),
            "logic": args.logic,
            "order": str(order),
            "index": spec.shaded,
            "parts": {
                label: dict(zip(fields, map(_round12, xs)))
                for label, *xs in zip(labels, *report.columns)
            },
            "aggregate": _json(report.aggregate),
            "strategy": strategy,
            "tau": _json(report.tau),
            "oracle_delta": _json(report.oracle_delta),
            "partition_residual": _round12(report.partition_residual),
        },
        ("part", "shaded", *fields),
        ("%s", "%s", *["%.12g"] * len(fields)),
        chain(zip(labels, mask_bits(spec.n, spec.shaded), *report.columns), aggregate),
        after=[f"strategy: {strategy}"]
        + [f"{key}: {_fmt(x)}" for key, x in footer if x is not None],
    )
    return 0


def cmd_table(args) -> int:
    if args.which == 1:
        header = ("row", "index", "truth", "symbol", "name")
        table = [
            (r.row, r.index, r.truth_poly, r.symbol, r.name)
            for r in fuzzy_operator_table()
        ]
        _emit(
            args.format,
            lambda: {
                "table": 1,
                "row_to_index": [row[1] for row in table],
                "rows": [dict(zip(header, row)) for row in table],
            },
            header,
            ("%s",) * len(header),
            table,
        )
        return 0
    assignment = _parse_assignment(args.assign or DEFAULT_TABLE2_ASSIGN, "neutrosophic")
    order = PrevalenceOrder.from_string(args.order)
    rows = neutro_operator_table(assignment, order)
    fields = vars(rows[0].value)
    _emit(
        args.format,
        lambda: {
            "table": 2,
            "assignment": dict(
                zip(assignment.names, map(_json, assignment.values))
            ),
            "order": str(order),
            "row_to_index": [r.index for r in rows],
            "rows": list(map(_json, rows)),
        },
        ("row", "index", "name", *fields, "strategy", "tau"),
        ("%s", "%s", "%s", *["%.12g"] * len(fields), "%s", "%s"),
        [
            (r.row, r.index, r.name, *vars(r.value).values(), r.strategy, _fmt(r.tau))
            for r in rows
        ],
    )
    return 0


def cmd_parts(args) -> int:
    rows = zip(part_labels(args.n), range(1 << args.n))
    if args.format == "json":
        # streamed, so n = 20 stays in bounded memory: the bytes of one
        # json.dumps of the payload, as labels are digits and dots
        sys.stdout.write(f'{{"n": {args.n}, "parts": [')
        _write_rows('{"label": "%s", "mask": %d}', rows, ", ")
        sys.stdout.write("]}\n")
    else:
        _emit(args.format, None, ("label", "mask"), ("%s", "%s"), rows)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed)
    return 0 if ok else SelfTestFailure.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vennlogic",
        description="Codify propositional operators as shaded diagram parts "
        "and evaluate them under boolean, fuzzy, or neutrosophic assignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("json", "csv", "markdown"),
            default="json",
            help="output format (default json)",
        )

    def add_order(p):
        p.add_argument(
            "--order",
            choices=tuple(map(str, ORDERS)),
            default=str(ORDERS[0]),
            help="prevalence order, weakest to strongest",
        )

    codify = sub.add_parser("codify", help="compile an expression to shaded parts")
    codify.add_argument("-e", "--expr", required=True, help="expression text")
    codify.add_argument(
        "-v", "--vars", required=True, help="comma-separated variable order"
    )
    add_format(codify)
    codify.set_defaults(handler=cmd_codify)

    evalp = sub.add_parser("eval", help="evaluate an expression under an assignment")
    evalp.add_argument("-e", "--expr", required=True, help="expression text")
    evalp.add_argument(
        "-v", "--vars", help="variable order (default: assignment order)"
    )
    evalp.add_argument(
        "-a",
        "--assign",
        required=True,
        help="assignment, e.g. \"x=0.6;y=0.3\" or \"x=0.5,0.3,0.2;y=...\"",
    )
    evalp.add_argument(
        "--logic",
        choices=("boolean", "fuzzy", "neutrosophic"),
        default="fuzzy",
    )
    add_order(evalp)
    evalp.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force expansion and report the delta",
    )
    add_format(evalp)
    evalp.set_defaults(handler=cmd_eval)

    table = sub.add_parser("table", help="print an operator catalog table")
    table.add_argument("which", type=int, choices=(1, 2))
    table.add_argument(
        "-a",
        "--assign",
        help=f"neutrosophic assignment for table 2 "
        f"(default \"{DEFAULT_TABLE2_ASSIGN}\")",
    )
    add_order(table)
    add_format(table)
    table.set_defaults(handler=cmd_table)

    partsp = sub.add_parser("parts", help="list the codification for n variables")
    partsp.add_argument("n", type=int)
    add_format(partsp)
    partsp.set_defaults(handler=cmd_parts)

    selftest = sub.add_parser("selftest", help="run the seeded property suites")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except VennLogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the flush at
        # exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
