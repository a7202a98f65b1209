"""Parser, printer, and compiler tests for the formula surface syntax."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vennlogic import (
    BOOL_OPS,
    BinOp,
    Const,
    DomainError,
    Not,
    OperatorSpec,
    ParseError,
    UnknownVariable,
    Var,
    compile_expr,
    evaluate_bool,
    parse,
    render,
    variables,
)
from vennlogic.venn import projection_mask

x, y, z = Var("x"), Var("y"), Var("z")


names = st.sampled_from(["x", "y", "z", "w"])
leaves = st.one_of(names.map(Var), st.booleans().map(Const))


def _extend(children):
    return st.one_of(
        children.map(Not),
        st.builds(BinOp, st.sampled_from(sorted(BOOL_OPS)), children, children),
    )


asts = st.recursive(leaves, _extend, max_leaves=25)


def _random_formula(rng, names, leaves):
    """A formula with the given number of leaves, about one in ten of them
    a constant, and a negation on about one node in five."""
    if leaves == 1:
        node = Const(rng.random() < 0.5) if rng.random() < 0.1 else Var(rng.choice(names))
    else:
        k = rng.randint(1, leaves - 1)
        node = BinOp(
            rng.choice(sorted(BOOL_OPS)),
            _random_formula(rng, names, k),
            _random_formula(rng, names, leaves - k),
        )
    return Not(node) if rng.random() < 0.2 else node


def _node_kinds(e):
    if isinstance(e, BinOp):
        return {e.op} | _node_kinds(e.left) | _node_kinds(e.right)
    if isinstance(e, Not):
        return {"not"} | _node_kinds(e.child)
    return {type(e).__name__}


class TestParse:
    def test_precedence_chain(self):
        assert parse("x | y & z") == BinOp("or", x, BinOp("and", y, z))
        assert parse("(x | y) & z") == BinOp("and", BinOp("or", x, y), z)
        assert parse("x <-> y | z") == BinOp("iff", x, BinOp("or", y, z))
        assert parse("x -> y | z") == BinOp("implies", x, BinOp("or", y, z))

    def test_implies_right_associative(self):
        assert parse("x -> y -> z") == BinOp("implies", x, BinOp("implies", y, z))

    def test_other_arrows_left_associative(self):
        assert parse("x <- y <- z") == BinOp(
            "rev_implies", BinOp("rev_implies", x, y), z
        )
        assert parse("x !-> y !-> z") == BinOp(
            "nonimplies", BinOp("nonimplies", x, y), z
        )

    def test_mixed_arrow_levels(self):
        assert parse("x -> y <- z") == BinOp("implies", x, BinOp("rev_implies", y, z))
        assert parse("x <- y -> z") == BinOp("implies", BinOp("rev_implies", x, y), z)

    def test_iff_xor_share_a_level(self):
        assert parse("x <-> y ^ z") == BinOp("xor", BinOp("iff", x, y), z)
        assert parse("x ^ y <-> z") == BinOp("iff", BinOp("xor", x, y), z)

    def test_word_and_symbol_spellings_agree(self):
        pairs = [
            ("x and y", "x & y"),
            ("x or y", "x | y"),
            ("x xor y", "x ^ y"),
            ("x implies y", "x -> y"),
            ("x iff y", "x <-> y"),
            ("x nand y", "x !and y"),
            ("x nor y", "x !or y"),
            ("not x", "!x"),
            ("not x", "~x"),
        ]
        for word, symbol in pairs:
            assert parse(word) == parse(symbol)

    def test_negated_arrows(self):
        assert parse("x !-> y") == BinOp("nonimplies", x, y)
        assert parse("x !<- y") == BinOp("rev_nonimplies", x, y)

    def test_unary_stacking(self):
        assert parse("!!x") == Not(Not(x))
        assert parse("not not x") == Not(Not(x))
        assert parse("!x & y") == BinOp("and", Not(x), y)

    def test_constants(self):
        assert parse("0") == Const(False)
        assert parse("1") == Const(True)
        assert parse("true") == Const(True)
        assert parse("false") == Const(False)

    def test_whitespace_insensitive(self):
        assert parse("  x&y ") == parse("x & y")
        assert parse("x\t->\n y") == parse("x -> y")


class TestParseErrors:
    @pytest.mark.parametrize(
        "source,offset",
        [
            ("", 0),
            ("x &", 3),
            ("& x", 0),
            ("x + y", 2),
            ("(x | y", 6),
            ("x y", 2),
            ("2", 0),
            ("x & 2", 4),
            ("10", 0),
            ("x )", 2),
            ("and", 0),
        ],
    )
    def test_offsets(self, source, offset):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.offset == offset
        assert f"(offset {offset})" in str(info.value)
        assert info.value.expected

    def test_var_name_validation(self):
        with pytest.raises(DomainError):
            Var("and")
        with pytest.raises(DomainError):
            Var("2x")
        with pytest.raises(DomainError):
            BinOp("plus", x, y)


class TestRender:
    @pytest.mark.parametrize(
        "canonical",
        [
            "x",
            "1",
            "!x",
            "!!x",
            "!(x & y)",
            "x & y & z",
            "x & (y & z)",
            "x | y & z",
            "(x | y) & z",
            "x -> y -> z",
            "(x -> y) -> z",
            "x <- (y <- z)",
            "(x <-> y) ^ z",
            "x <-> (y ^ z)",
            "x !and y",
            "x !or y",
            "x !-> y",
            "(x !<- y) !-> z",
        ],
    )
    def test_canonical_fixed_points(self, canonical):
        assert render(parse(canonical)) == canonical

    def test_drops_redundant_parens(self):
        assert render(parse("((x))")) == "x"
        assert render(parse("(x & y) | z")) == "x & y | z"
        assert render(parse("x -> (y -> z)")) == "x -> y -> z"

    @given(asts)
    def test_round_trip(self, e):
        assert parse(render(e)) == e


class TestEvaluate:
    def test_connectives_on_corners(self):
        classical = {
            "and": lambda a, b: a and b,
            "or": lambda a, b: a or b,
            "xor": lambda a, b: a != b,
            "implies": lambda a, b: b or not a,
            "rev_implies": lambda a, b: a or not b,
            "iff": lambda a, b: a == b,
            "nand": lambda a, b: not (a and b),
            "nor": lambda a, b: not (a or b),
            "nonimplies": lambda a, b: a and not b,
            "rev_nonimplies": lambda a, b: b and not a,
        }
        assert set(classical) == set(BOOL_OPS)
        for op, want in classical.items():
            for a in (False, True):
                for b in (False, True):
                    got = evaluate_bool(BinOp(op, x, y), {"x": a, "y": b})
                    assert got == want(a, b), (op, a, b)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            evaluate_bool(x, {"y": True})

    def test_variables(self):
        e = parse("x -> (y & x) | !z")
        assert variables(e) == {"x", "y", "z"}
        assert variables(Const(True)) == set()


class TestCompile:
    def test_known_masks(self):
        assert compile_expr(parse("x & y"), ["x", "y"]) == OperatorSpec(2, 0b1000)
        assert compile_expr(parse("x | y"), ["x", "y"]) == OperatorSpec(2, 0b1110)
        assert compile_expr(parse("x"), ["x", "y"]) == OperatorSpec(2, 0b1010)
        assert compile_expr(parse("x ^ y"), ["x", "y"]) == OperatorSpec(2, 0b0110)
        assert compile_expr(parse("0"), ["x", "y"]) == OperatorSpec(2, 0b0000)

    def test_variable_order_fixes_part_bits(self):
        e = parse("x & !y")
        assert compile_expr(e, ["x", "y"]) == OperatorSpec(2, 0b0010)
        assert compile_expr(e, ["y", "x"]) == OperatorSpec(2, 0b0100)

    def test_declared_but_unused_variable(self):
        spec = compile_expr(parse("x"), ["x", "y", "z"])
        assert spec == OperatorSpec(3, 0b10101010)

    def test_bad_variable_lists(self):
        with pytest.raises(DomainError):
            compile_expr(x, [])
        with pytest.raises(DomainError):
            compile_expr(x, ["x", "x"])
        with pytest.raises(UnknownVariable):
            compile_expr(parse("x & q"), ["x", "y"])

    def test_bitset_compile_matches_corner_walk(self):
        rng = random.Random(8128)
        kinds = set()
        for n in range(1, 9):
            names = [f"v{i}" for i in range(n)]
            for _ in range(12):
                e = _random_formula(rng, names, rng.randint(1, 3 * n + 2))
                kinds |= _node_kinds(e)
                spec = compile_expr(e, names)
                for p in range(1 << n):
                    env = {name: bool(p >> i & 1) for i, name in enumerate(names)}
                    assert spec.is_shaded(p) == evaluate_bool(e, env), (render(e), p)
        assert kinds == set(BOOL_OPS) | {"not", "Const", "Var"}

    def test_xor_chain_at_twenty_variables(self):
        names = [f"x{i}" for i in range(20)]
        spec = compile_expr(parse(" ^ ".join(names)), names)
        assert spec.shaded_count() == 1 << 19
        want = 0
        for i in range(20):
            want ^= projection_mask(20, i)
        assert spec.shaded == want
        rng = random.Random(20)
        for p in rng.sample(range(1 << 20), 500):
            assert spec.is_shaded(p) == (p.bit_count() % 2 == 1)

    @given(asts)
    def test_shading_matches_corner_evaluation(self, e):
        order = ["x", "y", "z", "w"]
        spec = compile_expr(e, order)
        for p in range(16):
            env = {name: bool(p >> i & 1) for i, name in enumerate(order)}
            assert spec.is_shaded(p) == evaluate_bool(e, env)
