"""End-to-end tests for the command-line front end."""

import contextlib
import csv
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from vennlogic import (
    ArityMismatch,
    Assignment,
    DisjointnessViolation,
    DomainError,
    FuzzyValue,
    LengthMismatch,
    NeutrosophicValue,
    OperatorSpec,
    OracleTooLarge,
    ParseError,
    Part,
    SelfTestFailure,
    TooManyVariables,
    UnknownVariable,
    VennLogicError,
    VerificationFailure,
    cli,
    compile_expr,
    enumerate_parts,
    evaluate_operator,
    parse,
)
from vennlogic.venn import mask_bits, part_labels

NEUTRO_ASSIGN = "x=0.5,0.3,0.2;y=0.4,0.4,0.2"

# the parts of the binary diagram as formulas, by part mask
MINTERMS = ("!x & !y", "x & !y", "!x & y", "x & y")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


class TestCodify:
    def test_and(self, capsys):
        payload = run_json(capsys, "codify", "-e", "x & y", "-v", "x,y")
        assert payload["expression"] == "x & y"
        assert payload["vars"] == ["x", "y"]
        assert payload["n"] == 2
        assert payload["index"] == 8
        assert payload["parts"] == ["12"]
        assert payload["bits"] == [3]

    def test_or_three_vars(self, capsys):
        payload = run_json(capsys, "codify", "-e", "x | y | z", "-v", "x,y,z")
        assert payload["index"] == 0b11111110
        assert payload["parts"] == ["1", "2", "12", "3", "13", "23", "123"]

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "codify", "-e", "x ^ y", "-v", "x,y", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "expression,n,index,parts"
        assert lines[1] == "x ^ y,2,6,1 2"

    def test_markdown(self, capsys):
        rc, out, _ = run(
            capsys, "codify", "-e", "x & y", "-v", "x,y", "--format", "markdown"
        )
        assert rc == 0
        assert "| part | bit |" in out
        assert "| 12 | 3 |" in out

    def test_csv_quotes_an_expression_with_a_newline(self, capsys):
        expr = "x\n&\ty"
        rc, out, _ = run(capsys, "codify", "-e", expr, "-v", "x,y", "--format", "csv")
        assert rc == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["expression", "n", "index", "parts"],
            [expr, "2", "8", "12"],
        ]

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("x &\ny", 'expression,n,index,parts\n"x &\ny",2,8,12\n'),
            ("x &\r\ny", 'expression,n,index,parts\n"x &\r\ny",2,8,12\n'),
            ("x &\ry", 'expression,n,index,parts\n"x &\ry",2,8,12\n'),
        ],
        ids=["lf", "crlf", "cr"],
    )
    def test_csv_bytes_of_an_expression_with_a_line_break(self, capsys, expr, expected):
        # the field in quotes, as csv.writer(lineterminator="\n") writes a
        # field with "\n"; a bare "\r" too, which csv.reader reads as a line end
        argv = ("codify", "-e", expr, "-v", "x,y", "--format", "csv")
        assert run(capsys, *argv) == (0, expected, "")


class TestEvalFuzzy:
    def test_xor_schema(self, capsys):
        payload = run_json(
            capsys, "eval", "-e", "x ^ y", "-a", "x=0.6;y=0.3", "--logic", "fuzzy"
        )
        for key in (
            "parts",
            "aggregate",
            "strategy",
            "tau",
            "oracle_delta",
            "partition_residual",
        ):
            assert key in payload
        assert payload["index"] == 6
        assert set(payload["parts"]) == {"0", "1", "2", "12"}
        assert payload["aggregate"] == {"t": 0.54, "f": 0.46}
        assert payload["parts"]["12"] == {"t": 0.18, "f": 0.82}
        assert payload["strategy"] == "union 1+2"
        assert payload["tau"] is None
        assert payload["oracle_delta"] is None
        assert payload["partition_residual"] <= 1e-9

    def test_oracle_flag(self, capsys):
        payload = run_json(
            capsys, "eval", "-e", "x | y", "-a", "x=0.6;y=0.3", "--oracle"
        )
        assert payload["oracle_delta"] is not None
        assert payload["oracle_delta"] <= 1e-12

    def test_explicit_pair_components(self, capsys):
        payload = run_json(capsys, "eval", "-e", "x & y", "-a", "x=0.6,0.4;y=0.3,0.7")
        assert payload["aggregate"] == {"t": 0.18, "f": 0.82}

    def test_csv_has_aggregate_row(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "-e", "x & y", "-a", "x=0.6;y=0.3", "--format", "csv"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "part,shaded,t,f"
        assert len(lines) == 6
        assert lines[-1].startswith("aggregate,,")


class TestEvalNeutrosophic:
    def test_disjunction(self, capsys):
        payload = run_json(
            capsys,
            "eval", "-e", "x | y", "-a", NEUTRO_ASSIGN, "--logic", "neutrosophic",
        )
        assert payload["logic"] == "neutrosophic"
        assert payload["order"] == "TIF"
        assert payload["aggregate"] == {"T": 0.7, "I": 0.26, "F": 0.04}
        assert payload["strategy"] == "negated part 0"

    def test_order_flag_changes_buckets(self, capsys):
        prudent = run_json(
            capsys,
            "eval", "-e", "x & y", "-a", NEUTRO_ASSIGN, "--logic", "neutrosophic",
        )
        optimistic = run_json(
            capsys,
            "eval", "-e", "x & y", "-a", NEUTRO_ASSIGN,
            "--logic", "neutrosophic", "--order", "ITF",
        )
        assert prudent["aggregate"] == {"T": 0.2, "I": 0.44, "F": 0.36}
        assert optimistic["aggregate"] == {"T": 0.52, "I": 0.12, "F": 0.36}

    def test_vars_flag_reorders_assignment(self, capsys):
        flipped = "y=0.4,0.4,0.2;x=0.5,0.3,0.2"
        natural = run_json(
            capsys,
            "eval", "-e", "x !-> y", "-a", NEUTRO_ASSIGN, "--logic", "neutrosophic",
        )
        reordered = run_json(
            capsys,
            "eval", "-e", "x !-> y", "-a", flipped, "-v", "x,y",
            "--logic", "neutrosophic",
        )
        assert natural["aggregate"] == reordered["aggregate"]
        assert natural["index"] == reordered["index"] == 2

    def test_csv_header_names_three_components(self, capsys):
        rc, out, _ = run(
            capsys,
            "eval", "-e", "x & y", "-a", NEUTRO_ASSIGN, "--logic", "neutrosophic",
            "--format", "csv",
        )
        assert rc == 0
        assert out.splitlines()[0] == "part,shaded,T,I,F"

    @pytest.mark.parametrize("name", ["part", "apart", "union", "xunion"])
    def test_literal_named_like_a_route(self, capsys, name):
        # a variable's name is the literal's text, whatever it ends in
        for expr, route in ((name, "projection"), (f"!{name}", "complement")):
            payload = run_json(
                capsys, "eval", "-e", expr, "-a", f"{name}=0.5,0.3,0.2;q=0.4,0.4,0.2",
                "--logic", "neutrosophic",
            )
            assert payload["strategy"] == f"{route} {name}"
        rc, out, _ = run(
            capsys, "eval", "-e", name, "-a", f"{name}=0.5,0.3,0.2",
            "--logic", "neutrosophic", "--format", "markdown",
        )
        assert rc == 0 and f"strategy: projection {name}\n" in out

    def test_xor_reports_tau(self, capsys):
        payload = run_json(
            capsys,
            "eval", "-e", "x ^ y", "-a", NEUTRO_ASSIGN, "--logic", "neutrosophic",
        )
        assert payload["tau"] == 1.0
        assert payload["aggregate"]["T"] == 0.18


class TestEvalRows:
    def test_dotted_labels_and_shaded_column(self, capsys):
        names = [f"x{i}" for i in range(1, 11)]
        assign = ";".join(f"{name}=0.{i}" for i, name in enumerate(names))
        rc, out, _ = run(
            capsys, "eval", "-e", "x1 & !x10 | x3", "-a", assign, "--format", "csv"
        )
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        spec = compile_expr(parse("x1 & !x10 | x3"), names)
        assert [r[0] for r in rows] == [Part(10, p).label() for p in range(1 << 10)]
        assert [int(r[1]) for r in rows] == [
            int(spec.is_shaded(p)) for p in range(1 << 10)
        ]


class TestEvalBoolean:
    def test_corners(self, capsys):
        payload = run_json(
            capsys, "eval", "-e", "x -> y", "-a", "x=1;y=0", "--logic", "boolean"
        )
        assert payload["aggregate"] == {"t": 0.0, "f": 1.0}

    def test_fraction_rejected(self, capsys):
        rc, _, err = run(
            capsys, "eval", "-e", "x", "-a", "x=0.5", "--logic", "boolean"
        )
        assert rc == 2
        assert "boolean values are 0 or 1" in err


class TestErrorPaths:
    def test_syntax_error_is_usage(self, capsys):
        rc, _, err = run(capsys, "codify", "-e", "x &", "-v", "x,y")
        assert rc == 2
        assert err.startswith("error:")
        assert "offset 3" in err

    def test_unknown_variable_is_usage(self, capsys):
        rc, _, err = run(capsys, "codify", "-e", "x & q", "-v", "x,y")
        assert rc == 2
        assert "q" in err

    def test_assignment_mismatch_is_usage(self, capsys):
        rc, _, err = run(
            capsys, "eval", "-e", "x & y", "-a", "x=0.5;z=0.5", "-v", "x,y"
        )
        assert rc == 2
        assert "missing: y" in err and "unexpected: z" in err

    # a faulty -v or -a entry is reported at its first character, the one
    # after its ',' or ';'
    def test_empty_variable_offset(self, capsys):
        rc, _, err = run(capsys, "codify", "-e", "x", "-v", "x,,y")
        assert rc == 2
        assert err == "error: bad variable list 'x,,y' (offset 2)\n"

    def test_nameless_assignment_entry_offset(self, capsys):
        rc, _, err = run(capsys, "eval", "-e", "x", "-a", "x=0.3;=0.2")
        assert rc == 2
        assert err == "error: bad assignment entry '=0.2' (offset 6)\n"

    def test_non_numeric_component_offset(self, capsys):
        rc, _, err = run(capsys, "eval", "-e", "x", "-a", "x=0.3;y=0.5,a", "-v", "x,y")
        assert rc == 2
        assert err == (
            "error: variable 'y': non-numeric component in '0.5,a' (offset 6)\n"
        )

    # -v and -a names follow the formula's name rule, so no csv field or
    # markdown cell holds a ',', '"' or '|' of a name
    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a|b", "1x", "and"])
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_table2_name_follows_the_formula_rule(self, capsys, name, fmt):
        for assign, offset in [
            (f"{name}=0.5,0.3,0.2;q=0.4,0.4,0.2", 0),
            (f"q=0.4,0.4,0.2; {name}=0.5,0.3,0.2", 15),
        ]:
            assert run(capsys, "table", "2", "-a", assign, "--format", fmt) == (
                2,
                "",
                f"error: bad variable name {name!r} (offset {offset})\n",
            )

    def test_assignment_name_follows_the_formula_rule(self, capsys):
        assert run(capsys, "eval", "-e", "q", "-a", "1x=0.5;q=0.3") == (
            2,
            "",
            "error: bad variable name '1x' (offset 0)\n",
        )
        with pytest.raises(ParseError) as info:
            cli._parse_assignment("q=0.3;  1x = 0.5", "fuzzy")
        assert (info.value.offset, info.value.expected) == (8, {"name"})

    def test_vars_name_follows_the_formula_rule(self, capsys):
        assert run(capsys, "codify", "-e", "x", "-v", "x,1y") == (
            2,
            "",
            "error: bad variable name '1y' (offset 2)\n",
        )
        with pytest.raises(ParseError) as info:
            cli._parse_vars("x, or")
        assert (info.value.offset, info.value.expected) == (3, {"name"})

    def test_wrong_component_count_is_usage(self, capsys):
        rc, _, err = run(
            capsys, "eval", "-e", "x", "-a", "x=0.5", "--logic", "neutrosophic"
        )
        assert rc == 2
        assert "T,I,F" in err

    def test_out_of_range_truth_is_numeric(self, capsys):
        rc, _, err = run(capsys, "eval", "-e", "x", "-a", "x=1.5")
        assert rc == 3
        assert "outside [0, 1]" in err

    def test_unnormalized_pair_is_numeric(self, capsys):
        rc, _, err = run(capsys, "eval", "-e", "x", "-a", "x=0.5,0.9")
        assert rc == 3
        assert "t + f = 1" in err

    def test_empty_assignment_is_usage(self, capsys):
        assert run(capsys, "eval", "-e", "x", "-a", ";") == (
            2, "", "error: empty assignment (offset 0)\n"
        )

    @pytest.mark.parametrize("assign", [";;x=0.3;;", " ; x=0.3; ;"])
    def test_blank_assignment_entries_are_skipped(self, capsys, assign):
        want = run(capsys, "eval", "-e", "x", "-a", "x=0.3")
        assert want[0] == 0
        assert run(capsys, "eval", "-e", "x", "-a", assign) == want

    def test_nan_component_is_numeric(self, capsys):
        rc, out, err = run(capsys, "eval", "-e", "x & y", "-a", "x=nan,1;y=0.5")
        assert rc == 3
        assert out == ""
        assert "nan" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("parts", "0"),
            ("codify", "-e", "x", "-v", "x,x"),
            ("eval", "-e", "x", "-v", "x,x", "-a", "x=0.5"),
            ("eval", "-e", "x", "-a", "x=0.5;x=0.3"),
            ("eval", "-e", "x", "-a", "x=0.5", "-v", ""),
        ],
    )
    def test_bad_arguments_are_usage(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "expr",
        ["(" * 164 + "x" + ")" * 164, "!" * 3000 + "x", " & ".join(["x"] * 2000)],
        ids=["164-parentheses", "3000-negations", "2000-leaf-chain"],
    )
    @pytest.mark.parametrize(
        "command", [("codify", "-v", "x"), ("eval", "-a", "x=0.5")], ids=["codify", "eval"]
    )
    def test_deep_expression_is_usage(self, capsys, expr, command):
        # the parser and compiler keep explicit stacks, so formulas that once
        # exhausted the recursion limit (and exited 2) now compile
        payload = run_json(capsys, command[0], "-e", expr, *command[1:])
        assert payload["index"] == 0b10

    def test_hundred_parentheses_still_compile(self, capsys):
        payload = run_json(capsys, "codify", "-e", "(" * 100 + "x" + ")" * 100, "-v", "x")
        assert payload["index"] == 0b10

    @pytest.mark.parametrize("order", ["TIF", "ITF", "TFI"])
    def test_oracle_at_budget_edge(self, capsys, order):
        # n = 7 is the largest report the 3^12 budget admits, and every part
        # expands the full tail width.  --order offers three of the six
        # orders (test_evaluate runs all six through the library).  Under ITF
        # the chain's part truths sum past 1 (ROADMAP item 3), so both runs
        # exit 3
        names = [f"x{i}" for i in range(7)]
        assign = ";".join(f"{name}=0.5,0.3,0.2" for name in names)
        argv = (
            "eval", "-e", " ^ ".join(names), "-a", assign,
            "--logic", "neutrosophic", "--order", order,
        )
        rc, _, err = run(capsys, *argv)
        rc_oracle, out, err_oracle = run(capsys, *argv, "--oracle")
        assert (rc_oracle, err_oracle) == (rc, err)
        assert rc == (3 if order == "ITF" else 0), err
        if rc == 0:
            assert json.loads(out)["oracle_delta"] <= 1e-12

    def test_oracle_over_budget_is_numeric(self, capsys):
        names = [f"x{i}" for i in range(8)]
        assign = ";".join(f"{name}=0.5,0.3,0.2" for name in names)
        rc, out, err = run(
            capsys, "eval", "-e", " ^ ".join(names), "-a", assign,
            "--logic", "neutrosophic", "--oracle",
        )
        assert rc == 3
        assert out == ""
        assert err.startswith("error:") and "budget" in err

    def test_itf_truth_mass_is_numeric(self, capsys):
        # under ITF the part truths of a normalized xor chain sum past 1
        rc, out, err = run(
            capsys, "eval", "-e", "x ^ y ^ z",
            "-a", "x=0.5,0.3,0.2;y=0.4,0.4,0.2;z=0.6,0.3,0.1",
            "--logic", "neutrosophic", "--order", "ITF",
        )
        assert (rc, out) == (3, "")
        want = "error: truth mass 1.054 exceeds 1, operands are not disjoint\n"
        assert err == want

    def test_bad_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["eval", "-e", "x"])
        assert info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["eval", "-e", "x", "-a", "x=0.5,0.3,0.2", "--logic", "neutrosophic"],
         ["table", "2"]],
    )
    def test_unnamed_order_exits_2(self, capsys, argv):
        # PrevalenceOrder takes all six orders; --order offers the three
        # named ones
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--order", "IFT"])
        assert info.value.code == 2
        assert "invalid choice: 'IFT'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "0.5", "0", "1", "-0.0", "1.0000000001", "-1e-12", "nan", "inf",
        "0.5,0.5", "0.5,0.9", "1.0000000001,0", "0.5,0.3,0.2", "0.4,0.4",
        "0.5,1.5,0.2",
    ],
)
@pytest.mark.parametrize("logic", ["boolean", "fuzzy", "neutrosophic"])
def test_cli_and_library_share_one_input_rule(capsys, logic, text):
    # the CLI only splits the text; the exit code and message are those of the
    # library constructor given the same components (boolean values first
    # pass the CLI's 0/1 check)
    comps = [float(c) for c in text.split(",")]
    try:
        if logic == "neutrosophic":
            Assignment.neutrosophic(("x",), [comps])
        elif logic == "fuzzy" or comps in ([0.0], [1.0]):
            Assignment.fuzzy(("x",), [comps])
        else:
            raise ArityMismatch("variable 'x': boolean values are 0 or 1")
        want = (0, "")
    except VennLogicError as exc:
        want = (exc.exit_code, f"error: {exc}\n")
    rc, _, err = run(capsys, "eval", "-e", "x", "-a", f"x={text}", "--logic", logic)
    assert (rc, err) == want


@pytest.mark.parametrize(
    "call, argv, message",
    [
        pytest.param(
            lambda: compile_expr(parse("x"), ["x", "x"]),
            ("codify", "-e", "x", "-v", "x,x"),
            "duplicate variable names",
            id="repeated-codify",
        ),
        pytest.param(
            lambda: Assignment.fuzzy(("x", "x"), (0.5, 0.5)),
            ("eval", "-e", "x", "-a", "x=0.5", "-v", "x,x"),
            "duplicate variable names in assignment",
            id="repeated-eval",
        ),
        pytest.param(
            lambda: Assignment(("x", "x"), (FuzzyValue(0.5, 0.5),) * 2),
            None,
            "duplicate variable names in assignment",
            id="repeated-Assignment",
        ),
        # the names are checked before any value, so a bad value does not
        # hide a repeated name
        pytest.param(
            lambda: Assignment.fuzzy(("x", "x"), (1.5, 0.2)),
            ("eval", "-e", "x", "-v", "x,x", "-a", "x=1.5"),
            "duplicate variable names in assignment",
            id="repeated-bad-truth",
        ),
        pytest.param(
            lambda: Assignment.neutrosophic(("x", "x"), ((0.5, 0.3, 0.2), (2, 0, 0))),
            ("eval", "-e", "x", "-v", "x,x", "-a", "x=2,0,0", "--logic", "neutrosophic"),
            "duplicate variable names in assignment",
            id="repeated-bad-triple",
        ),
        pytest.param(
            lambda: compile_expr(parse("x"), []),
            None,
            "need at least one variable, got n=0",
            id="empty-compile_expr",
        ),
        pytest.param(
            lambda: Assignment.fuzzy((), ()),
            None,
            "assignment needs at least one variable",
            id="empty-Assignment.fuzzy",
        ),
        pytest.param(
            None,
            ("codify", "-e", "x", "-v", ""),
            "bad variable list '' (offset 0)",
            id="empty-codify",
        ),
        pytest.param(
            None,
            ("eval", "-e", "x", "-a", "x=0.5", "-v", ""),
            "bad variable list '' (offset 0)",
            id="empty-eval",
        ),
        pytest.param(
            lambda: part_labels(0),
            ("parts", "0"),
            "need at least one variable, got n=0",
            id="n0-parts",
        ),
        pytest.param(
            lambda: Part(0, 0),
            None,
            "need at least one variable, got n=0",
            id="n0-Part",
        ),
        pytest.param(
            lambda: OperatorSpec(0, 0),
            None,
            "need at least one variable, got n=0",
            id="n0-OperatorSpec",
        ),
        pytest.param(
            lambda: enumerate_parts(0),
            None,
            "need at least one variable, got n=0",
            id="n0-enumerate_parts",
        ),
        pytest.param(
            lambda: Part(21, 0),
            ("parts", "21"),
            "n=21 exceeds the supported maximum of 20",
            id="n21-parts",
        ),
    ],
)
def test_usage_fault_exits_2_from_both_doors(capsys, call, argv, message):
    # repeated names, empty name lists and n outside 1..N_MAX are usage
    # faults: the library raises them with exit code 2, and the command line
    # prints the library's message and exits 2 without a check of its own
    if call is not None:
        with pytest.raises(VennLogicError) as info:
            call()
        assert (info.value.exit_code, str(info.value)) == (2, message)
    if argv is not None:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_arity_mismatch_is_a_value_error():
    # these faults raised DomainError, a ValueError, before they were usage
    # faults; callers catching ValueError still catch them
    assert issubclass(ArityMismatch, ValueError)


def _random_eval_argv(rng, n, logic, order, fmt):
    names = [f"x{i}" for i in range(n)]
    expr = names[0]
    for name in rng.sample(names, n)[1:] + rng.choices(names, k=n):
        op = rng.choice(["&", "|", "^", "->", "<->"])
        expr = f"({expr} {op} {rng.choice(['', '!'])}{name})"
    if logic == "neutrosophic":
        values = [",".join(repr(rng.random()) for _ in "TIF") for _ in names]
    else:
        # bare truths, and pairs that sit up to 1e-9 off t + f = 1
        ts = [rng.random() for _ in names]
        fs = [1 - t + rng.uniform(-1e-9, 1e-9) for t in ts]
        pairs = zip(ts, fs)
        values = [repr(t) if rng.random() < 0.3 else f"{t!r},{f!r}" for t, f in pairs]
    assign = ";".join(f"{name}={v}" for name, v in zip(names, values))
    return [
        "eval", "-e", expr, "-a", assign,
        "--logic", logic, "--order", order, "--format", fmt,
    ]


def _without_oracle_delta(out):
    out = re.sub(r'"oracle_delta": [^,}]*', '"oracle_delta": null', out)
    return re.sub(r"oracle delta: .*\n", "", out)


def test_oracle_never_changes_the_outcome(capsys):
    # --oracle recomputes the part values and the aggregate; whatever it
    # finds, the exit code, the error and the rest of the output stay those
    # of the run without it
    rng = random.Random(1313)
    outcomes = set()
    for n in range(1, 8):
        for logic in ("fuzzy", "neutrosophic"):
            for k in range(3):
                order = ("TIF", "ITF", "TFI")[(n + k) % 3]
                fmt = ("json", "csv", "markdown")[(n + 2 * k) % 3]
                argv = _random_eval_argv(rng, n, logic, order, fmt)
                rc, out, err = run(capsys, *argv)
                rc_o, out_o, err_o = run(capsys, *argv, "--oracle")
                assert (rc_o, err_o) == (rc, err), argv
                assert _without_oracle_delta(out_o) == _without_oracle_delta(out), argv
                outcomes.add(rc)
    assert outcomes == {0, 3}


def test_oracle_accepts_pairs_the_evaluation_accepts(capsys):
    # twelve pairs each 0.9e-9 off t + f = 1 once drove the oracle's products
    # past the 1e-9 tolerance; a pair is now kept as its truth
    expr, assign = _xor_chain(12, "0.999,0.0009999991000000008")
    assert run(capsys, "eval", "-e", expr, "-a", assign)[0] == 0
    payload = run_json(capsys, "eval", "-e", expr, "-a", assign, "--oracle")
    assert payload["oracle_delta"] <= 1e-12


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _xor_chain(n, value):
    names = [f"x{i}" for i in range(n)]
    return " ^ ".join(names), ";".join(f"{name}={value}" for name in names)


class TestLargeN:
    @pytest.mark.parametrize("n", [14, 16])
    @pytest.mark.parametrize(
        "logic, value",
        [("fuzzy", "0.6"), ("fuzzy", "0.6,0.4"), ("neutrosophic", "0.5,0.3,0.2")],
    )
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_eval_prints_every_part(self, capsys, n, logic, value, fmt):
        expr, assign = _xor_chain(n, value)
        start = time.perf_counter()
        rc, out, err = run(
            capsys, "eval", "-e", expr, "-a", assign, "--logic", logic, "--format", fmt
        )
        elapsed = time.perf_counter() - start
        assert rc == 0, err
        table = out.splitlines() if fmt == "csv" else [
            line for line in out.splitlines() if line.startswith("|")
        ]
        # header (and the markdown rule), then one row per part and the aggregate
        rows = table[1 if fmt == "csv" else 2:]
        assert len(rows) == 2**n + 1
        assert rows[-1].startswith("aggregate" if fmt == "csv" else "| aggregate")
        assert elapsed < 10.0

    @pytest.mark.parametrize(
        "fmt, logic, value",
        [
            ("csv", "fuzzy", "0.6"),
            ("csv", "neutrosophic", "0.5,0.3,0.2"),
            ("markdown", "fuzzy", "0.6"),
            ("markdown", "neutrosophic", "0.5,0.3,0.2"),
        ],
        ids=[
            "csv-fuzzy", "csv-neutrosophic", "markdown-fuzzy", "markdown-neutrosophic"
        ],
    )
    def test_eval_at_twenty(self, capsys, fmt, logic, value):
        # N_MAX: 4 to 7 s on a 2-core host, so the bound leaves a slower CI
        # runner four times that
        expr, assign = _xor_chain(20, value)
        start = time.perf_counter()
        rc, out, err = run(
            capsys, "eval", "-e", expr, "-a", assign, "--logic", logic, "--format", fmt
        )
        elapsed = time.perf_counter() - start
        assert rc == 0, err
        if fmt == "csv":
            # the header, one row per part and the aggregate
            assert out.count("\n") == 2**20 + 2
            assert out.rsplit("\n", 2)[1].startswith("aggregate,")
        else:
            # the header, the rule, one row per part and the aggregate, then
            # the strategy line (and, three-component, the tau line)
            assert out.startswith("| ") and out.count("\n| ") + 1 == 2**20 + 3
            assert out[out.rindex("\n| ") + 1 :].startswith("| aggregate |")
        assert out.endswith("\n")
        assert elapsed < 30.0

    @pytest.mark.parametrize(
        "logic, text, value",
        [("fuzzy", "0.6", 0.6), ("neutrosophic", "0.5,0.3,0.2", (0.5, 0.3, 0.2))],
        ids=["fuzzy", "neutrosophic"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_rows_stream(self, fmt, logic, text, value):
        # the CLI writes each row as it is formed, so its traced peak stays
        # near the evaluation's own: columns, labels and the shaded bits
        n = 16
        expr, assign = _xor_chain(n, text)
        names = tuple(f"x{i}" for i in range(n))

        def evaluation():
            assignment = getattr(Assignment, logic)(names, [value] * n)
            spec = compile_expr(parse(expr), names)
            report = evaluate_operator(spec, assignment)
            return report, part_labels(n), mask_bits(n, spec.shaded)

        def command():
            argv = ["eval", "-e", expr, "-a", assign, "--logic", logic, "--format", fmt]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert cli.main(argv) == 0

        assert _traced_peak(command) <= 1.25 * _traced_peak(evaluation)

    def test_parts_json_streams(self):
        # parts writes its JSON a chunk of entries at a time, so its traced
        # peak stays near that of the labels themselves
        def command():
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert cli.main(["parts", "16", "--format", "json"]) == 0

        assert _traced_peak(command) <= 1.25 * _traced_peak(lambda: part_labels(16))

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--format", "csv"), ("eval", "--format", "markdown"), ("parts",)],
        ids=["eval-csv", "eval-markdown", "parts-json"],
    )
    def test_closed_stdout_ends_quietly(self, argv):
        expr, assign = _xor_chain(16, "0.6")
        operands = ("-e", expr, "-a", assign) if argv[0] == "eval" else ("16",)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "vennlogic.cli", argv[0], *operands, *argv[1:]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as child:
            # the output is megabytes, far past a pipe's buffer, so the child
            # is still writing when the pipe closes (the JSON is a single line)
            assert child.stdout.read(64)
            child.stdout.close()
            assert child.wait(timeout=60) == 0
            assert child.stderr.read() == b""

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="the decimal index of the n = 14 xor chain has more than 4,300 "
        "digits, past CPython's int-to-str conversion limit",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("codify", "--format", "json"),
            ("codify", "--format", "csv"),
            ("codify", "--format", "markdown"),
            ("eval", "--format", "json"),
        ],
        ids=["codify-json", "codify-csv", "codify-markdown", "eval-json"],
    )
    def test_decimal_index_crashes_at_14(self, capsys, argv):
        expr, assign = _xor_chain(14, "0.6")
        names = ",".join(f"x{i}" for i in range(14))
        operand = ("-v", names) if argv[0] == "codify" else ("-a", assign)
        run(capsys, argv[0], "-e", expr, *operand, *argv[1:])

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_codify_writes_nothing_before_the_index_fails(self, capsys, fmt):
        # the decimal index fails from n = 14 on (see the xfails above); it is
        # formatted before the first line, so stdout stays empty
        expr, _ = _xor_chain(14, "0.6")
        names = ",".join(f"x{i}" for i in range(14))
        with pytest.raises(ValueError):
            cli.main(["codify", "-e", expr, "-v", names, "--format", fmt])
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "error, code",
    [
        (ParseError, 2),
        (UnknownVariable, 2),
        (ArityMismatch, 2),
        (LengthMismatch, 2),
        (TooManyVariables, 2),
        (DomainError, 3),
        (DisjointnessViolation, 3),
        (OracleTooLarge, 3),
        (VerificationFailure, 3),
        (SelfTestFailure, 4),
    ],
)
def test_exit_code_lives_on_the_error_type(capsys, monkeypatch, error, code):
    exc = error("boom", 0) if error is ParseError else error("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_parts", fail)
    assert error.exit_code == code
    assert run(capsys, "parts", "2") == (code, "", f"error: {exc}\n")


class TestTables:
    def test_table1(self, capsys):
        payload = run_json(capsys, "table", "1")
        assert payload["table"] == 1
        assert payload["row_to_index"] == [0, 8, 2, 10, 4, 12, 6, 14, 1, 9, 3, 11, 5, 13, 7, 15]
        assert payload["rows"][1]["name"] == "Conjunction; and"
        assert payload["rows"][6]["truth"] == "t1 + t2 - 2*t1*t2"
        assert payload["rows"][9]["symbol"] == "≡"

    def test_table1_csv(self, capsys):
        rc, out, _ = run(capsys, "table", "1", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "row,index,truth,symbol,name"
        assert len(lines) == 17

    def test_table1_failed_verification_exits_3(self, capsys, shifted_grid_point):
        rc, out, err = run(capsys, "table", "1")
        assert rc == 3
        assert out == ""
        assert err.startswith("error: Equivalence") and "(0.3, 0.7)" in err

    def test_table2_default_assignment(self, capsys):
        payload = run_json(capsys, "table", "2")
        assert payload["table"] == 2
        assert payload["order"] == "TIF"
        assert payload["assignment"]["x"] == {"T": 0.5, "I": 0.3, "F": 0.2}
        by_index = {r["index"]: r for r in payload["rows"]}
        assert by_index[14]["value"] == {"T": 0.7, "I": 0.26, "F": 0.04}
        assert by_index[6]["strategy"] == "union 1+2"
        assert by_index[6]["tau"] == 1.0
        assert by_index[8]["tau"] is None

    def test_table2_custom_assignment(self, capsys):
        payload = run_json(
            capsys, "table", "2", "-a", "p=1,0,0;q=0,0,1", "--order", "TIF"
        )
        by_index = {r["index"]: r for r in payload["rows"]}
        assert by_index[8]["value"] == {"T": 0.0, "I": 0.0, "F": 1.0}
        assert by_index[14]["value"] == {"T": 1.0, "I": 0.0, "F": 0.0}

    @pytest.mark.parametrize("names", [("apart", "q"), ("p", "xunion")])
    def test_table2_literals_named_like_a_route(self, capsys, names):
        x, y = names
        payload = run_json(
            capsys, "table", "2", "-a", f"{x}=0.5,0.3,0.2;{y}=0.4,0.4,0.2"
        )
        by_index = {r["index"]: r["strategy"] for r in payload["rows"]}
        assert (by_index[10], by_index[12]) == (f"projection {x}", f"projection {y}")
        assert (by_index[5], by_index[3]) == (f"complement {x}", f"complement {y}")


    @pytest.mark.parametrize("order", ["TIF", "ITF", "TFI"])
    def test_table2_rows_match_eval(self, capsys, order):
        # table 2 and eval aggregate the same part columns, digit for digit;
        # the first assignment once printed I = 0.0759468794573 for "and" in
        # the table and 0.0759468794574 from eval
        rng = random.Random(order)
        assignments = [
            "x=0.08921459423261346,0.22969322110468274,0.1191332977823639;"
            "y=0.12886960661399266,0.14532853126434028,0.02991547969024159"
        ]
        for _ in range(3):
            # T + I + F <= 1/2 keeps the ITF truth mass of a union below 1
            assignments.append(";".join(
                f"{name}=" + ",".join(repr(rng.uniform(0.0, 1 / 6)) for _ in "TIF")
                for name in "xy"
            ))
        for assignment in assignments:
            table = run_json(capsys, "table", "2", "-a", assignment, "--order", order)
            for row in table["rows"]:
                shaded = [f"({MINTERMS[p]})" for p in range(4) if row["index"] >> p & 1]
                payload = run_json(
                    capsys, "eval", "-e", " | ".join(shaded) or "0", "-a", assignment,
                    "-v", "x,y", "--logic", "neutrosophic", "--order", order,
                )
                assert payload["index"] == row["index"]
                assert payload["aggregate"] == row["value"], (assignment, row["name"])
                assert (payload["strategy"], payload["tau"]) == (row["strategy"], row["tau"])


# exact stdout of every command in every format, byte for byte: JSON key
# order, values rounded to 12 significant digits and null fields; csv and
# markdown headers, %.12g cells, empty tau and shaded cells and the lines
# before and after a markdown table
PINNED_STDOUT = [
    (
        'table 2',
        '{"table": 2, "assignment": {"x": {"T": 0.5, "I": 0.3, "F": 0.2}, '
        '"y": {"T": 0.4, "I": 0.4, "F": 0.2}}, "order": "TIF", '
        '"row_to_index": [0, 8, 2, 10, 4, 12, 6, 14, 1, 9, 3, 11, 5, 13, 7, 15], '
        '"rows": [{"row": 0, "index": 0, '
        '"name": "Contradiction; falsehood; constant 0", "value": {"T": 0.0, '
        '"I": 0.0, "F": 1.0}, "strategy": "empty", "tau": null}, {"row": 1, '
        '"index": 8, "name": "Conjunction; and", "value": {"T": 0.2, "I": 0.44, '
        '"F": 0.36}, "strategy": "part 12", "tau": null}, {"row": 2, "index": 2, '
        '"name": "Nonimplication; difference; but not", "value": {"T": 0.1, '
        '"I": 0.38, "F": 0.52}, "strategy": "part 1", "tau": null}, {"row": 3, '
        '"index": 10, "name": "Left projection", "value": {"T": 0.5, "I": 0.3, '
        '"F": 0.2}, "strategy": "projection x", "tau": null}, {"row": 4, '
        '"index": 4, "name": "Converse nonimplication; not...but", '
        '"value": {"T": 0.08, "I": 0.32, "F": 0.6}, "strategy": "part 2", '
        '"tau": null}, {"row": 5, "index": 12, "name": "Right projection", '
        '"value": {"T": 0.4, "I": 0.4, "F": 0.2}, "strategy": "projection y", '
        '"tau": null}, {"row": 6, "index": 6, '
        '"name": "Exclusive disjunction; nonequivalence; xor", '
        '"value": {"T": 0.18, "I": 0.315384615385, "F": 0.504615384615}, '
        '"strategy": "union 1+2", "tau": 1.0}, {"row": 7, "index": 14, '
        '"name": "Inclusive disjunction; or; and/or", "value": {"T": 0.7, '
        '"I": 0.26, "F": 0.04}, "strategy": "negated part 0", "tau": null}, '
        '{"row": 8, "index": 1, '
        '"name": "Nondisjunction; joint denial; neither...nor", '
        '"value": {"T": 0.04, "I": 0.26, "F": 0.7}, "strategy": "part 0", '
        '"tau": null}, {"row": 9, "index": 9, '
        '"name": "Equivalence; if and only if", "value": {"T": 0.504615384615, '
        '"I": 0.315384615385, "F": 0.18}, "strategy": "negated union 1+2", '
        '"tau": 1.0}, {"row": 10, "index": 3, "name": "Right complementation", '
        '"value": {"T": 0.2, "I": 0.4, "F": 0.4}, "strategy": "complement y", '
        '"tau": null}, {"row": 11, "index": 11, '
        '"name": "Converse implication; if", "value": {"T": 0.6, "I": 0.32, '
        '"F": 0.08}, "strategy": "negated part 2", "tau": null}, {"row": 12, '
        '"index": 5, "name": "Left complementation", "value": {"T": 0.2, '
        '"I": 0.3, "F": 0.5}, "strategy": "complement x", "tau": null}, '
        '{"row": 13, "index": 13, "name": "Implication; only if; if...then", '
        '"value": {"T": 0.52, "I": 0.38, "F": 0.1}, '
        '"strategy": "negated part 1", "tau": null}, {"row": 14, "index": 7, '
        '"name": "Nonconjunction; not both...and; nand", "value": {"T": 0.36, '
        '"I": 0.44, "F": 0.2}, "strategy": "negated part 12", "tau": null}, '
        '{"row": 15, "index": 15, '
        '"name": "Affirmation; validity; tautology; constant 1", '
        '"value": {"T": 1.0, "I": 0.0, "F": 0.0}, "strategy": "full", '
        '"tau": null}]}'
        "\n",
    ),
    (
        'table 2 -a "p=1,0,0;q=0,0,1" --order ITF',
        '{"table": 2, "assignment": {"p": {"T": 1.0, "I": 0.0, "F": 0.0}, '
        '"q": {"T": 0.0, "I": 0.0, "F": 1.0}}, "order": "ITF", '
        '"row_to_index": [0, 8, 2, 10, 4, 12, 6, 14, 1, 9, 3, 11, 5, 13, 7, 15], '
        '"rows": [{"row": 0, "index": 0, '
        '"name": "Contradiction; falsehood; constant 0", "value": {"T": 0.0, '
        '"I": 0.0, "F": 1.0}, "strategy": "empty", "tau": null}, {"row": 1, '
        '"index": 8, "name": "Conjunction; and", "value": {"T": 0.0, "I": 0.0, '
        '"F": 1.0}, "strategy": "part 12", "tau": null}, {"row": 2, "index": 2, '
        '"name": "Nonimplication; difference; but not", "value": {"T": 1.0, '
        '"I": 0.0, "F": 0.0}, "strategy": "part 1", "tau": null}, {"row": 3, '
        '"index": 10, "name": "Left projection", "value": {"T": 1.0, "I": 0.0, '
        '"F": 0.0}, "strategy": "projection p", "tau": null}, {"row": 4, '
        '"index": 4, "name": "Converse nonimplication; not...but", '
        '"value": {"T": 0.0, "I": 0.0, "F": 1.0}, "strategy": "part 2", '
        '"tau": null}, {"row": 5, "index": 12, "name": "Right projection", '
        '"value": {"T": 0.0, "I": 0.0, "F": 1.0}, "strategy": "projection q", '
        '"tau": null}, {"row": 6, "index": 6, '
        '"name": "Exclusive disjunction; nonequivalence; xor", '
        '"value": {"T": 1.0, "I": 0.0, "F": 0.0}, "strategy": "union 1+2", '
        '"tau": 1.0}, {"row": 7, "index": 14, '
        '"name": "Inclusive disjunction; or; and/or", "value": {"T": 1.0, '
        '"I": 0.0, "F": 0.0}, "strategy": "negated part 0", "tau": null}, '
        '{"row": 8, "index": 1, '
        '"name": "Nondisjunction; joint denial; neither...nor", '
        '"value": {"T": 0.0, "I": 0.0, "F": 1.0}, "strategy": "part 0", '
        '"tau": null}, {"row": 9, "index": 9, '
        '"name": "Equivalence; if and only if", "value": {"T": 0.0, "I": 0.0, '
        '"F": 1.0}, "strategy": "negated union 1+2", "tau": 1.0}, {"row": 10, '
        '"index": 3, "name": "Right complementation", "value": {"T": 1.0, '
        '"I": 0.0, "F": 0.0}, "strategy": "complement q", "tau": null}, '
        '{"row": 11, "index": 11, "name": "Converse implication; if", '
        '"value": {"T": 1.0, "I": 0.0, "F": 0.0}, "strategy": "negated part 2", '
        '"tau": null}, {"row": 12, "index": 5, "name": "Left complementation", '
        '"value": {"T": 0.0, "I": 0.0, "F": 1.0}, "strategy": "complement p", '
        '"tau": null}, {"row": 13, "index": 13, '
        '"name": "Implication; only if; if...then", "value": {"T": 0.0, '
        '"I": 0.0, "F": 1.0}, "strategy": "negated part 1", "tau": null}, '
        '{"row": 14, "index": 7, "name": "Nonconjunction; not both...and; nand", '
        '"value": {"T": 1.0, "I": 0.0, "F": 0.0}, "strategy": "negated part 12", '
        '"tau": null}, {"row": 15, "index": 15, '
        '"name": "Affirmation; validity; tautology; constant 1", '
        '"value": {"T": 1.0, "I": 0.0, "F": 0.0}, "strategy": "full", '
        '"tau": null}]}'
        "\n",
    ),
    (
        'eval -e "x ^ y" -a "x=0.5,0.3,0.2;y=0.4,0.4,0.2" --logic neutrosophic --oracle',
        '{"expression": "x ^ y", "vars": ["x", "y"], "logic": "neutrosophic", '
        '"order": "TIF", "index": 6, "parts": {"0": {"T": 0.04, "I": 0.26, '
        '"F": 0.7}, "1": {"T": 0.1, "I": 0.38, "F": 0.52}, "2": {"T": 0.08, '
        '"I": 0.32, "F": 0.6}, "12": {"T": 0.2, "I": 0.44, "F": 0.36}}, '
        '"aggregate": {"T": 0.18, "I": 0.315384615385, "F": 0.504615384615}, '
        '"strategy": "union 1+2", "tau": 1.0, "oracle_delta": 2.22044604925e-16, '
        '"partition_residual": 0.0}'
        "\n",
    ),
    (
        'eval -e "x & y" -a "x=0.6;y=0.3"',
        '{"expression": "x & y", "vars": ["x", "y"], "logic": "fuzzy", '
        '"order": "TIF", "index": 8, "parts": {"0": {"t": 0.28, "f": 0.72}, '
        '"1": {"t": 0.42, "f": 0.58}, "2": {"t": 0.12, "f": 0.88}, '
        '"12": {"t": 0.18, "f": 0.82}}, "aggregate": {"t": 0.18, "f": 0.82}, '
        '"strategy": "part 12", "tau": null, "oracle_delta": null, '
        '"partition_residual": 0.0}'
        "\n",
    ),
    (
        "table 2 --format csv",
        "row,index,name,T,I,F,strategy,tau\n"
        "0,0,Contradiction; falsehood; constant 0,0,0,1,empty,\n"
        "1,8,Conjunction; and,0.2,0.44,0.36,part 12,\n"
        "2,2,Nonimplication; difference; but not,0.1,0.38,0.52,part 1,\n"
        "3,10,Left projection,0.5,0.3,0.2,projection x,\n"
        "4,4,Converse nonimplication; not...but,0.08,0.32,0.6,part 2,\n"
        "5,12,Right projection,0.4,0.4,0.2,projection y,\n"
        "6,6,Exclusive disjunction; nonequivalence; xor,0.18,0.315384615385,"
        "0.504615384615,union 1+2,1\n"
        "7,14,Inclusive disjunction; or; and/or,0.7,0.26,0.04,negated part 0,\n"
        "8,1,Nondisjunction; joint denial; neither...nor,0.04,0.26,0.7,part 0,\n"
        "9,9,Equivalence; if and only if,0.504615384615,0.315384615385,0.18,"
        "negated union 1+2,1\n"
        "10,3,Right complementation,0.2,0.4,0.4,complement y,\n"
        "11,11,Converse implication; if,0.6,0.32,0.08,negated part 2,\n"
        "12,5,Left complementation,0.2,0.3,0.5,complement x,\n"
        "13,13,Implication; only if; if...then,0.52,0.38,0.1,negated part 1,\n"
        "14,7,Nonconjunction; not both...and; nand,0.36,0.44,0.2,negated part 12,\n"
        "15,15,Affirmation; validity; tautology; constant 1,1,0,0,full,\n"
    ),
    (
        'table 2 -a "p=1,0,0;q=0,0,1" --order ITF --format markdown',
        "| row | index | name | T | I | F | strategy | tau |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| 0 | 0 | Contradiction; falsehood; constant 0 | 0 | 0 | 1 | empty |  |\n"
        "| 1 | 8 | Conjunction; and | 0 | 0 | 1 | part 12 |  |\n"
        "| 2 | 2 | Nonimplication; difference; but not | 1 | 0 | 0 | part 1 |  |\n"
        "| 3 | 10 | Left projection | 1 | 0 | 0 | projection p |  |\n"
        "| 4 | 4 | Converse nonimplication; not...but | 0 | 0 | 1 | part 2 |  |\n"
        "| 5 | 12 | Right projection | 0 | 0 | 1 | projection q |  |\n"
        "| 6 | 6 | Exclusive disjunction; nonequivalence; xor | 1 | 0 | 0 | union 1+2 | 1 |\n"
        "| 7 | 14 | Inclusive disjunction; or; and/or | 1 | 0 | 0 | negated part 0 |  |\n"
        "| 8 | 1 | Nondisjunction; joint denial; neither...nor | 0 | 0 | 1 | part 0 |  |\n"
        "| 9 | 9 | Equivalence; if and only if | 0 | 0 | 1 | negated union 1+2 | 1 |\n"
        "| 10 | 3 | Right complementation | 1 | 0 | 0 | complement q |  |\n"
        "| 11 | 11 | Converse implication; if | 1 | 0 | 0 | negated part 2 |  |\n"
        "| 12 | 5 | Left complementation | 0 | 0 | 1 | complement p |  |\n"
        "| 13 | 13 | Implication; only if; if...then | 0 | 0 | 1 | negated part 1 |  |\n"
        "| 14 | 7 | Nonconjunction; not both...and; nand | 1 | 0 | 0 | negated part 12 |  |\n"
        "| 15 | 15 | Affirmation; validity; tautology; constant 1 | 1 | 0 | 0 | full |  |\n"
    ),
    (
        'codify -e "x & y | !z" -v x,y,z',
        '{"expression": "x & y | !z", "vars": ["x", "y", "z"], "n": 3, '
        '"index": 143, "parts": ["0", "1", "2", "12", "123"], "bits": [0, 1, 2, '
        "3, 7]}"
        "\n",
    ),
    (
        'codify -e "x & y | !z" -v x,y,z --format csv',
        "expression,n,index,parts\n"
        "x & y | !z,3,143,0 1 2 12 123\n"
    ),
    (
        'codify -e "x & y | !z" -v x,y,z --format markdown',
        "expression: `x & y | !z`  vars: x, y, z\n"
        "index: 143\n"
        "| part | bit |\n"
        "| --- | --- |\n"
        "| 0 | 0 |\n"
        "| 1 | 1 |\n"
        "| 2 | 2 |\n"
        "| 12 | 3 |\n"
        "| 123 | 7 |\n"
    ),
    (
        'eval -e "x -> y" -a "x=0.6;y=0.3" --oracle --format csv',
        "part,shaded,t,f\n"
        "0,1,0.28,0.72\n"
        "1,0,0.42,0.58\n"
        "2,1,0.12,0.88\n"
        "12,1,0.18,0.82\n"
        "aggregate,,0.58,0.42\n"
    ),
    (
        'eval -e "x -> y" -a "x=0.6;y=0.3" --oracle --format markdown',
        "| part | shaded | t | f |\n"
        "| --- | --- | --- | --- |\n"
        "| 0 | 1 | 0.28 | 0.72 |\n"
        "| 1 | 0 | 0.42 | 0.58 |\n"
        "| 2 | 1 | 0.12 | 0.88 |\n"
        "| 12 | 1 | 0.18 | 0.82 |\n"
        "| aggregate |  | 0.58 | 0.42 |\n"
        "strategy: union 0+2+12\n"
        "oracle delta: 1.11022302463e-16\n"
    ),
    (
        'eval -e "x ^ y" -a "x=0.5,0.3,0.2;y=0.4,0.4,0.2" --logic neutrosophic --oracle --format csv',
        "part,shaded,T,I,F\n"
        "0,0,0.04,0.26,0.7\n"
        "1,1,0.1,0.38,0.52\n"
        "2,1,0.08,0.32,0.6\n"
        "12,0,0.2,0.44,0.36\n"
        "aggregate,,0.18,0.315384615385,0.504615384615\n"
    ),
    (
        'eval -e "x ^ y" -a "x=0.5,0.3,0.2;y=0.4,0.4,0.2" --logic neutrosophic --oracle --format markdown',
        "| part | shaded | T | I | F |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| 0 | 0 | 0.04 | 0.26 | 0.7 |\n"
        "| 1 | 1 | 0.1 | 0.38 | 0.52 |\n"
        "| 2 | 1 | 0.08 | 0.32 | 0.6 |\n"
        "| 12 | 0 | 0.2 | 0.44 | 0.36 |\n"
        "| aggregate |  | 0.18 | 0.315384615385 | 0.504615384615 |\n"
        "strategy: union 1+2\n"
        "tau: 1\n"
        "oracle delta: 2.22044604925e-16\n"
    ),
    (
        'eval -e "x | y & z" -a "x=0;y=1;z=1" --logic boolean',
        '{"expression": "x | y & z", "vars": ["x", "y", "z"], '
        '"logic": "boolean", "order": "TIF", "index": 234, '
        '"parts": {"0": {"t": 0.0, "f": 1.0}, "1": {"t": 0.0, "f": 1.0}, '
        '"2": {"t": 0.0, "f": 1.0}, "12": {"t": 0.0, "f": 1.0}, "3": {"t": 0.0, '
        '"f": 1.0}, "13": {"t": 0.0, "f": 1.0}, "23": {"t": 1.0, "f": 0.0}, '
        '"123": {"t": 0.0, "f": 1.0}}, "aggregate": {"t": 1.0, "f": 0.0}, '
        '"strategy": "union 1+12+13+23+123", "tau": null, "oracle_delta": null, '
        '"partition_residual": 0.0}'
        "\n",
    ),
    (
        "table 1",
        '{"table": 1, "row_to_index": [0, 8, 2, 10, 4, 12, 6, 14, 1, 9, 3, 11, '
        '5, 13, 7, 15], "rows": [{"row": 0, "index": 0, "truth": "0", '
        '"symbol": "⊥", "name": "Contradiction; falsehood; constant 0"}, '
        '{"row": 1, "index": 8, "truth": "t1*t2", "symbol": "∧", '
        '"name": "Conjunction; and"}, {"row": 2, "index": 2, '
        '"truth": "t1 - t1*t2", "symbol": "⊅", '
        '"name": "Nonimplication; difference; but not"}, {"row": 3, "index": 10, '
        '"truth": "t1", "symbol": "L", "name": "Left projection"}, {"row": 4, '
        '"index": 4, "truth": "t2 - t1*t2", "symbol": "⊄", '
        '"name": "Converse nonimplication; not...but"}, {"row": 5, "index": 12, '
        '"truth": "t2", "symbol": "R", "name": "Right projection"}, {"row": 6, '
        '"index": 6, "truth": "t1 + t2 - 2*t1*t2", "symbol": "⊕", '
        '"name": "Exclusive disjunction; nonequivalence; xor"}, {"row": 7, '
        '"index": 14, "truth": "t1 + t2 - t1*t2", "symbol": "∨", '
        '"name": "Inclusive disjunction; or; and/or"}, {"row": 8, "index": 1, '
        '"truth": "1 - t1 - t2 + t1*t2", "symbol": "⊽", '
        '"name": "Nondisjunction; joint denial; neither...nor"}, {"row": 9, '
        '"index": 9, "truth": "1 - t1 - t2 + 2*t1*t2", "symbol": "≡", '
        '"name": "Equivalence; if and only if"}, {"row": 10, "index": 3, '
        '"truth": "1 - t2", "symbol": "¬R", "name": "Right complementation"}, '
        '{"row": 11, "index": 11, "truth": "1 - t2 + t1*t2", "symbol": "⊂", '
        '"name": "Converse implication; if"}, {"row": 12, "index": 5, '
        '"truth": "1 - t1", "symbol": "¬L", "name": "Left complementation"}, '
        '{"row": 13, "index": 13, "truth": "1 - t1 + t1*t2", "symbol": "⊃", '
        '"name": "Implication; only if; if...then"}, {"row": 14, "index": 7, '
        '"truth": "1 - t1*t2", "symbol": "⊼", '
        '"name": "Nonconjunction; not both...and; nand"}, {"row": 15, '
        '"index": 15, "truth": "1", "symbol": "⊤", '
        '"name": "Affirmation; validity; tautology; constant 1"}]}'
        "\n",
    ),
    (
        "table 1 --format csv",
        "row,index,truth,symbol,name\n"
        "0,0,0,⊥,Contradiction; falsehood; constant 0\n"
        "1,8,t1*t2,∧,Conjunction; and\n"
        "2,2,t1 - t1*t2,⊅,Nonimplication; difference; but not\n"
        "3,10,t1,L,Left projection\n"
        "4,4,t2 - t1*t2,⊄,Converse nonimplication; not...but\n"
        "5,12,t2,R,Right projection\n"
        "6,6,t1 + t2 - 2*t1*t2,⊕,Exclusive disjunction; nonequivalence; xor\n"
        "7,14,t1 + t2 - t1*t2,∨,Inclusive disjunction; or; and/or\n"
        "8,1,1 - t1 - t2 + t1*t2,⊽,Nondisjunction; joint denial; neither...nor\n"
        "9,9,1 - t1 - t2 + 2*t1*t2,≡,Equivalence; if and only if\n"
        "10,3,1 - t2,¬R,Right complementation\n"
        "11,11,1 - t2 + t1*t2,⊂,Converse implication; if\n"
        "12,5,1 - t1,¬L,Left complementation\n"
        "13,13,1 - t1 + t1*t2,⊃,Implication; only if; if...then\n"
        "14,7,1 - t1*t2,⊼,Nonconjunction; not both...and; nand\n"
        "15,15,1,⊤,Affirmation; validity; tautology; constant 1\n"
    ),
    (
        "table 1 --format markdown",
        "| row | index | truth | symbol | name |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| 0 | 0 | 0 | ⊥ | Contradiction; falsehood; constant 0 |\n"
        "| 1 | 8 | t1*t2 | ∧ | Conjunction; and |\n"
        "| 2 | 2 | t1 - t1*t2 | ⊅ | Nonimplication; difference; but not |\n"
        "| 3 | 10 | t1 | L | Left projection |\n"
        "| 4 | 4 | t2 - t1*t2 | ⊄ | Converse nonimplication; not...but |\n"
        "| 5 | 12 | t2 | R | Right projection |\n"
        "| 6 | 6 | t1 + t2 - 2*t1*t2 | ⊕ | Exclusive disjunction; nonequivalence; xor |\n"
        "| 7 | 14 | t1 + t2 - t1*t2 | ∨ | Inclusive disjunction; or; and/or |\n"
        "| 8 | 1 | 1 - t1 - t2 + t1*t2 | ⊽ | Nondisjunction; joint denial; neither...nor |\n"
        "| 9 | 9 | 1 - t1 - t2 + 2*t1*t2 | ≡ | Equivalence; if and only if |\n"
        "| 10 | 3 | 1 - t2 | ¬R | Right complementation |\n"
        "| 11 | 11 | 1 - t2 + t1*t2 | ⊂ | Converse implication; if |\n"
        "| 12 | 5 | 1 - t1 | ¬L | Left complementation |\n"
        "| 13 | 13 | 1 - t1 + t1*t2 | ⊃ | Implication; only if; if...then |\n"
        "| 14 | 7 | 1 - t1*t2 | ⊼ | Nonconjunction; not both...and; nand |\n"
        "| 15 | 15 | 1 | ⊤ | Affirmation; validity; tautology; constant 1 |\n"
    ),
    (
        "parts 2",
        '{"n": 2, "parts": [{"label": "0", "mask": 0}, {"label": "1", '
        '"mask": 1}, {"label": "2", "mask": 2}, {"label": "12", "mask": 3}]}'
        "\n",
    ),
    (
        "parts 2 --format csv",
        "label,mask\n"
        "0,0\n"
        "1,1\n"
        "2,2\n"
        "12,3\n"
    ),
    (
        "parts 2 --format markdown",
        "| label | mask |\n"
        "| --- | --- |\n"
        "| 0 | 0 |\n"
        "| 1 | 1 |\n"
        "| 2 | 2 |\n"
        "| 12 | 3 |\n"
    ),
]


@pytest.mark.parametrize(
    "command, expected", PINNED_STDOUT, ids=[c for c, _ in PINNED_STDOUT]
)
def test_record_json_bytes(capsys, command, expected):
    assert run(capsys, *shlex.split(command)) == (0, expected, "")


class TestParts:
    def test_json(self, capsys):
        payload = run_json(capsys, "parts", "3")
        assert payload["n"] == 3
        assert [p["label"] for p in payload["parts"]] == [
            "0", "1", "2", "12", "3", "13", "23", "123",
        ]
        assert [p["mask"] for p in payload["parts"]] == list(range(8))

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "parts", "2", "--format", "csv")
        assert rc == 0
        assert out.splitlines() == ["label,mask", "0,0", "1,1", "2,2", "12,3"]

    @pytest.mark.parametrize("n", [*range(1, 11), 13])
    def test_json_bytes(self, capsys, n):
        # the payload is written in chunks, byte for byte one json.dumps of
        # the whole; n = 13 spans several chunks
        parts = [{"label": label, "mask": m} for m, label in enumerate(part_labels(n))]
        rc, out, _ = run(capsys, "parts", str(n))
        assert rc == 0
        assert out == json.dumps({"n": n, "parts": parts}, ensure_ascii=False) + "\n"

    def test_too_many_variables(self, capsys):
        rc, _, err = run(capsys, "parts", "21")
        assert rc == 2
        assert "maximum" in err


class TestSelftest:
    def test_passes_and_reports_suites(self, capsys):
        rc, out, _ = run(capsys, "selftest", "--seed", "42")
        assert rc == 0
        assert "all suites passed" in out
        assert out.count("ok ") == 12

    def test_reproducible_output(self, capsys):
        rc1, out1, _ = run(capsys, "selftest", "--seed", "42")
        rc2, out2, _ = run(capsys, "selftest", "--seed", "42")
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_injected_failure(self, capsys, monkeypatch):
        # inclusion_exclusion read 1e-6 high: the union-falsehood suite checks
        # it against the complementary product
        from vennlogic import selftest

        real = selftest.inclusion_exclusion
        monkeypatch.setattr(selftest, "inclusion_exclusion", lambda a: real(a) + 1e-6)
        rc, out, _ = run(capsys, "selftest", "--seed", "42")
        assert rc == 4
        assert "FAIL union-falsehood-identity" in out

    def test_wrong_connective_meaning_fails(self, capsys, monkeypatch):
        # rev_implies given implies' meaning on truth tables: the parser
        # suite checks each connective against its catalog row
        from vennlogic import expr

        monkeypatch.setitem(expr._BIT_OPS, "rev_implies", expr._BIT_OPS["implies"])
        rc, out, _ = run(capsys, "selftest", "--seed", "42")
        assert rc == 4
        assert "FAIL parser-round-trip: connective rev_implies is not" in out

    @pytest.mark.parametrize(
        "value, shift",
        # a fuzzy value's t + f = 1 has 1e-9 slack, so its shift stays inside it
        [(FuzzyValue(0.25, 0.75), 5e-10), (NeutrosophicValue(0.5, 0.3, 0.2), 1e-9)],
    )
    def test_close_names_the_deviating_field(self, value, shift):
        from vennlogic.selftest import _close

        _close(value, type(value)(*vars(value).values()), 1e-12, "law")
        for field, x in vars(value).items():
            shifted = type(value)(**{**vars(value), field: x + shift})
            with pytest.raises(SelfTestFailure, match=rf"^law \({field}\): "):
                _close(shifted, value, 1e-12, "law")

    def test_one_channel_deviation_fails(self, capsys, monkeypatch):
        # I alone shifted by 1e-9: the conjunction-oracle suite compares every
        # channel of neutro_conj against oracle_expand
        from vennlogic import selftest

        conj = selftest.neutro_conj

        def shifted(*args):
            v = conj(*args)
            return NeutrosophicValue(v.T, v.I + 1e-9, v.F)

        monkeypatch.setattr(selftest, "neutro_conj", shifted)
        rc, out, _ = run(capsys, "selftest", "--seed", "42")
        assert rc == 4
        assert "FAIL conjunction-oracle: conjunction under TIF (I): " in out


def test_import_loads_no_introspection_modules():
    # every command is a fresh interpreter that pays for what the import
    # loads; -S keeps site hooks from loading any of these beforehand
    code = (
        "import sys; before = set(sys.modules); import vennlogic.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    added = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "vennlogic.cli" in added
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added)
