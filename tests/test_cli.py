"""End-to-end tests for the command-line front end."""

import json
import random

import pytest

from vennlogic import Part, cli, compile_expr, parse

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

    def test_oracle_at_budget_edge(self, capsys):
        # n = 7 is the largest report the 3^12 budget admits
        names = [f"x{i}" for i in range(7)]
        assign = ";".join(f"{name}=0.5,0.3,0.2" for name in names)
        payload = run_json(
            capsys, "eval", "-e", " ^ ".join(names), "-a", assign,
            "--logic", "neutrosophic", "--oracle",
        )
        assert payload["oracle_delta"] <= 1e-12

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

    def test_injected_failure(self, capsys):
        rc, out, _ = run(capsys, "selftest", "--seed", "42", "--inject-failure")
        assert rc == 4
        assert "FAIL union-falsehood-identity" in out
