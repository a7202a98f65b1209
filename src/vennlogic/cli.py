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

Exit codes: 0 success, also when a reader closes stdout early (`| head`), 2
usage or syntax error, 3 numeric precondition violation, 4 selftest failure.
Every check runs before the first byte is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain, compress, islice

from .errors import ArityMismatch, ParseError, VennLogicError
from .evaluate import (
    Assignment,
    evaluate_operator,
    fuzzy_operator_table,
    neutro_operator_table,
)
from .expr import compile_expr, parse
from .logic_core import ITF, TFI, TIF, PrevalenceOrder
from .venn import mask_bits, part_labels

DEFAULT_TABLE2_ASSIGN = "x=0.5,0.3,0.2;y=0.4,0.4,0.2"
# --order offers the three named readings; PrevalenceOrder takes all six
ORDERS = tuple(map(str, (TIF, ITF, TFI)))


def _round12(x: float) -> float:
    return float(format(x, ".12g"))


def _fmt(x) -> str:
    return "" if x is None else format(x, ".12g")


# A value's output columns are its fields in declaration order:
# t, f for fuzzy values and T, I, F for three-component ones.
def _value_to_json(v):
    return {name: _round12(x) for name, x in vars(v).items()}


def _value_cells(v) -> list[str]:
    return [_fmt(x) for x in vars(v).values()]


def _emit_json(payload) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _emit_table(fmt, header, rows) -> None:
    """Print a header and rows, each as it is drawn, as CSV or else markdown."""
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(chain([header], rows))
        return
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        print("| " + " | ".join(str(c) for c in row) + " |")


def _parse_vars(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(","))
    if any(not name for name in names):
        raise ParseError(f"bad variable list {text!r}", 0, {"name"})
    return names


def _parse_assignment(
    text: str, logic: str, vars_text: str | None = None
) -> Assignment:
    """Split name=value entries into floats and hand them, in the -v order of
    vars_text if given, to the logic's Assignment constructor, which checks them."""
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, rhs = chunk.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ParseError(f"bad assignment entry {chunk!r}", 0, {"name=value"})
        try:
            comps = [float(c) for c in rhs.split(",")]
        except ValueError:
            raise ParseError(
                f"variable {name!r}: non-numeric component in {rhs!r}",
                0,
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
    shaded = mask_bits(spec.n, spec.shaded)
    labels = compress(part_labels(spec.n), shaded)
    masks = compress(range(spec.part_count), shaded)
    if args.format == "json":
        _emit_json(
            {
                "expression": args.expr,
                "vars": list(names),
                "n": spec.n,
                "index": spec.shaded,
                "parts": list(labels),
                "bits": list(masks),
            }
        )
    elif args.format == "csv":
        # str() before the header goes out, so a failed conversion prints nothing
        _emit_table(
            "csv",
            ("expression", "n", "index", "parts"),
            [(args.expr, spec.n, str(spec.shaded), " ".join(labels))],
        )
    else:
        print(f"expression: `{args.expr}`  vars: {', '.join(names)}")
        print(f"index: {spec.shaded}")
        _emit_table("markdown", ("part", "bit"), zip(labels, masks))
    return 0


def cmd_eval(args) -> int:
    assignment = _parse_assignment(args.assign, args.logic, args.vars)
    spec = compile_expr(parse(args.expr), assignment.names)
    order = PrevalenceOrder.from_string(args.order)
    report = evaluate_operator(spec, assignment, order=order, with_oracle=args.oracle)
    fields = tuple(vars(report.aggregate))
    labels = part_labels(spec.n)
    columns = report.columns
    if args.format == "json":
        _emit_json(
            {
                "expression": args.expr,
                "vars": list(assignment.names),
                "logic": args.logic,
                "order": str(order),
                "index": spec.shaded,
                "parts": {
                    label: dict(zip(fields, map(_round12, xs)))
                    for label, *xs in zip(labels, *columns)
                },
                "aggregate": _value_to_json(report.aggregate),
                "strategy": report.strategy,
                "tau": None if report.tau is None else _round12(report.tau),
                "oracle_delta": None
                if report.oracle_delta is None
                else _round12(report.oracle_delta),
                "partition_residual": _round12(report.partition_residual),
            }
        )
        return 0
    cells = (map("{:.12g}".format, column) for column in columns)
    rows = zip(labels, mask_bits(spec.n, spec.shaded), *cells)
    aggregate = ("aggregate", "", *_value_cells(report.aggregate))
    _emit_table(args.format, ("part", "shaded", *fields), chain(rows, [aggregate]))
    if args.format == "markdown":
        print(f"strategy: {report.strategy}")
        if report.tau is not None:
            print(f"tau: {_fmt(report.tau)}")
        if report.oracle_delta is not None:
            print(f"oracle delta: {_fmt(report.oracle_delta)}")
    return 0


def cmd_table(args) -> int:
    if args.which == 1:
        header = ("row", "index", "truth", "symbol", "name")
        table = [
            (r.row, r.index, r.truth_poly, r.symbol, r.name)
            for r in fuzzy_operator_table()
        ]
        if args.format == "json":
            rows = [dict(zip(header, row)) for row in table]
            index = [row[1] for row in table]
            _emit_json({"table": 1, "row_to_index": index, "rows": rows})
        else:
            _emit_table(args.format, header, table)
        return 0
    assignment = _parse_assignment(args.assign or DEFAULT_TABLE2_ASSIGN, "neutrosophic")
    order = PrevalenceOrder.from_string(args.order)
    rows = neutro_operator_table(assignment, order)
    if args.format == "json":
        _emit_json(
            {
                "table": 2,
                "assignment": {
                    name: _value_to_json(value)
                    for name, value in zip(assignment.names, assignment.values)
                },
                "order": str(order),
                "row_to_index": [r.index for r in rows],
                "rows": [
                    {
                        "row": r.row,
                        "index": r.index,
                        "name": r.name,
                        "value": _value_to_json(r.value),
                        "strategy": r.strategy,
                        "tau": None if r.tau is None else _round12(r.tau),
                    }
                    for r in rows
                ],
            }
        )
    else:
        table = [
            (r.row, r.index, r.name, *_value_cells(r.value), r.strategy, _fmt(r.tau))
            for r in rows
        ]
        header = ("row", "index", "name", "T", "I", "F", "strategy", "tau")
        _emit_table(args.format, header, table)
    return 0


def cmd_parts(args) -> int:
    rows = zip(part_labels(args.n), range(1 << args.n))
    if args.format == "json":
        # written a chunk of entries at a time, with the bytes of one
        # json.dumps of the whole payload, so no 2^n-entry list or string is
        # built: each chunk is a JSON list without its brackets
        encode = json.JSONEncoder(ensure_ascii=False).encode
        sys.stdout.write(f'{{"n": {args.n}, "parts": [')
        sep = ""
        while chunk := list(islice(rows, 1024)):
            sys.stdout.write(
                sep + encode([{"label": lb, "mask": m} for lb, m in chunk])[1:-1]
            )
            sep = ", "
        sys.stdout.write("]}\n")
    else:
        _emit_table(args.format, ("label", "mask"), rows)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed, inject_failure=args.inject_failure)
    return 0 if ok else 4


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
            choices=ORDERS,
            default=ORDERS[0],
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
    selftest.add_argument(
        "--inject-failure", action="store_true", help=argparse.SUPPRESS
    )
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
