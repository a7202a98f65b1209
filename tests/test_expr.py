"""Parser, printer, and compiler tests for the formula surface syntax."""

import random
import re
import time
from dataclasses import dataclass, make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vennlogic import (
    BOOL_OPS,
    ArityMismatch,
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
    knuth_registry,
    parse,
    render,
    variables,
)
from vennlogic.expr import Expr
from vennlogic.venn import projection_mask

x, y, z = Var("x"), Var("y"), Var("z")


def _extend(children):
    return st.one_of(
        children.map(Not),
        st.builds(BinOp, st.sampled_from(sorted(BOOL_OPS)), children, children),
    )


def _formulas(n):
    names = [f"v{i}" for i in range(n)]
    leaves = st.one_of(st.sampled_from(names).map(Var), st.booleans().map(Const))
    return st.tuples(st.just(names), st.recursive(leaves, _extend, max_leaves=25))


# (declared names, a formula over them) for 1 to 10 variables
formulas = st.one_of([_formulas(n) for n in range(1, 11)])


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

    @settings(max_examples=150)
    @given(formulas)
    def test_round_trip(self, case):
        _, e = case
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

    def test_operands_are_read_by_their_truth(self):
        # any operand counts as its bool(), as with `and`, `or` and `not`
        operands = (0, 1, 2, -1, 0.0, 0.5, "", "s", None, [], [0])
        for op, fn in BOOL_OPS.items():
            for a in operands:
                for b in operands:
                    got = fn(a, b)
                    assert got is fn(bool(a), bool(b)), (op, a, b)

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

    @pytest.mark.parametrize(
        "op, row, index",
        [
            ("and", "Conjunction", 0b1000),
            ("or", "Inclusive disjunction", 0b1110),
            ("xor", "Exclusive disjunction", 0b0110),
            ("implies", "Implication", 0b1101),
            ("rev_implies", "Converse implication", 0b1011),
            ("iff", "Equivalence", 0b1001),
            ("nand", "Nonconjunction", 0b0111),
            ("nor", "Nondisjunction", 0b0001),
            ("nonimplies", "Nonimplication", 0b0010),
            ("rev_nonimplies", "Converse nonimplication", 0b0100),
        ],
    )
    def test_connective_is_a_catalog_row(self, op, row, index):
        # bit a | b << 1 of a row's index is its output at x = a, y = b
        [named] = [o for o in knuth_registry() if o.names[0] == row]
        assert named.spec.shaded == index
        assert compile_expr(BinOp(op, x, y), ["x", "y"]).shaded == index
        for a in (False, True):
            for b in (False, True):
                assert BOOL_OPS[op](a, b) == bool(index >> (a | b << 1) & 1), (a, b)

    def test_variable_order_fixes_part_bits(self):
        e = parse("x & !y")
        assert compile_expr(e, ["x", "y"]) == OperatorSpec(2, 0b0010)
        assert compile_expr(e, ["y", "x"]) == OperatorSpec(2, 0b0100)

    def test_declared_but_unused_variable(self):
        spec = compile_expr(parse("x"), ["x", "y", "z"])
        assert spec == OperatorSpec(3, 0b10101010)

    def test_bad_variable_lists(self):
        with pytest.raises(ArityMismatch, match="at least one variable"):
            compile_expr(x, [])
        with pytest.raises(ArityMismatch, match="duplicate variable names"):
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
        assert spec.shaded.bit_count() == 1 << 19
        want = 0
        for i in range(20):
            want ^= projection_mask(20, i)
        assert spec.shaded == want
        rng = random.Random(20)
        for p in rng.sample(range(1 << 20), 500):
            assert spec.is_shaded(p) == (p.bit_count() % 2 == 1)

    @settings(max_examples=80, deadline=None)
    @given(formulas)
    def test_shading_matches_corner_evaluation(self, case):
        order, e = case
        spec = compile_expr(e, order)
        for p in range(1 << len(order)):
            env = {name: bool(p >> i & 1) for i, name in enumerate(order)}
            assert spec.is_shaded(p) == evaluate_bool(e, env)


DEEP = 100_000
NEGATIONS = "!" * DEEP + "x"
AND_CHAIN = " & ".join(["x", "y"] * (DEEP // 2))
IMPLIES_CHAIN = " -> ".join(["y"] * DEEP)


class TestDeepFormulas:
    """Nothing in expr.py recurses, so depth is bounded by memory alone."""

    @pytest.mark.parametrize(
        "source,rendered,shaded",
        [
            ("(" * DEEP + "x" + ")" * DEEP, "x", 0b1010),
            (NEGATIONS, NEGATIONS, 0b1010),
            (AND_CHAIN, AND_CHAIN, 0b1000),
            (IMPLIES_CHAIN, IMPLIES_CHAIN, 0b1111),
        ],
        ids=["parentheses", "negations", "and-chain", "implies-chain"],
    )
    def test_parse_compile_render(self, source, rendered, shaded):
        start = time.perf_counter()
        e = parse(source)
        assert compile_expr(e, ["x", "y"]) == OperatorSpec(2, shaded)
        text = render(e)
        assert text == rendered
        assert render(parse(text)) == text
        assert variables(e) <= {"x", "y"}
        assert evaluate_bool(e, {"x": True, "y": True})
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize(
        "source,other,want",
        [
            (
                NEGATIONS,
                NEGATIONS[:-1] + "z",
                "Not(child=" * DEEP + "Var(name='x')" + ")" * DEEP,
            ),
            ("z" + AND_CHAIN[1:], AND_CHAIN, None),
        ],
        ids=["negations", "and-chain"],
    )
    def test_eq_hash_repr(self, source, other, want):
        # other differs from source only in the deepest leaf
        start = time.perf_counter()
        e, twin = parse(source), parse(source)
        assert e == twin
        assert e != parse(other)
        assert hash(e) == hash(twin)
        leaves = re.findall(r"\w+", source)
        assert repr(e) == (want or _chain_repr(leaves))
        assert time.perf_counter() - start < 10.0


def _chain_repr(leaves):
    """The repr of the left-deep chain leaves[0] & leaves[1] & ..."""
    text = "BinOp(op='and', left=" * (len(leaves) - 1) + f"Var(name={leaves[0]!r})"
    return text + "".join(f", right=Var(name={leaf!r}))" for leaf in leaves[1:])


# the dataclass-generated ==, hash and repr, as the reference for Expr's
_REFERENCE_CLASSES = {
    cls: make_dataclass(cls.__name__, list(cls.__dataclass_fields__), frozen=True)
    for cls in (Var, Const, Not, BinOp)
}


def _reference(e):
    """e rebuilt from classes with the dataclass-generated methods."""
    return _REFERENCE_CLASSES[type(e)](
        *(_reference(v) if isinstance(v, Expr) else v for v in vars(e).values())
    )


class TestNodeMethods:
    @settings(max_examples=200)
    @given(formulas, formulas)
    def test_match_dataclass_methods(self, case, other):
        (_, e), (_, f) = case, other
        for g in (e, f, Not(e), BinOp("and", e, f)):
            assert repr(g) == repr(_reference(g))
            assert hash(g) == hash(_reference(g))
            assert repr(g) == repr(parse(render(g)))
        twin = parse(render(e))
        assert e == twin and hash(e) == hash(twin)
        for g, h in ((e, f), (f, e), (e, twin), (e, Not(e)), (BinOp("or", e, f), BinOp("or", e, e))):
            assert (g == h) is (_reference(g) == _reference(h))
            assert (g != h) is (_reference(g) != _reference(h))

    def test_other_types(self):
        assert x != "x" and not x == "x"
        assert x != Const(True) and Not(x) != x
        assert Const(True) == Const(1) and hash(Const(True)) == hash(Const(1))
        assert x == Var("x") and {x, Var("x"), y} == {x, y}
        assert _chain_repr(["x", "y", "x"]) == repr(parse("x & y & x"))


# ---------------------------------------------------------------------------
# Reference parser: the recursive-descent tokenizer and parser that parse()
# replaced, kept verbatim (with their tables) as the oracle for the
# equivalence test below.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str      # "op", "not", "const", "name", "(", ")", "end"
    value: object
    pos: int


_KEYWORD_TOKENS = {
    "and": ("op", "and"),
    "or": ("op", "or"),
    "xor": ("op", "xor"),
    "implies": ("op", "implies"),
    "iff": ("op", "iff"),
    "nand": ("op", "nand"),
    "nor": ("op", "nor"),
    "not": ("not", None),
    "true": ("const", True),
    "false": ("const", False),
}

# longest first so "<->" wins over "<-" and "!->" over "!"
_SYMBOL_OPS = (
    ("<->", "iff"),
    ("!->", "nonimplies"),
    ("!<-", "rev_nonimplies"),
    ("->", "implies"),
    ("<-", "rev_implies"),
    ("^", "xor"),
    ("&", "and"),
    ("|", "or"),
)

_NUM_RE = re.compile(r"[0-9]+")
_NOT_WORD_RE = re.compile(r"!(and|or)\b")


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, limit = 0, len(source)
    while i < limit:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NAME_RE.match(source, i)
        if m:
            word = m.group()
            kind, value = _KEYWORD_TOKENS.get(word, ("name", word))
            if kind == "name":
                value = word
            tokens.append(_Token(kind, value, i))
            i = m.end()
            continue
        m = _NUM_RE.match(source, i)
        if m:
            if m.group() not in ("0", "1"):
                raise ParseError(
                    f"unexpected number {m.group()!r}", i, {"'0'", "'1'"}
                )
            tokens.append(_Token("const", m.group() == "1", i))
            i = m.end()
            continue
        m = _NOT_WORD_RE.match(source, i)
        if m:
            tokens.append(_Token("op", "nand" if m.group(1) == "and" else "nor", i))
            i = m.end()
            continue
        for text, op in _SYMBOL_OPS:
            if source.startswith(text, i):
                tokens.append(_Token("op", op, i))
                i += len(text)
                break
        else:
            if ch == "(" or ch == ")":
                tokens.append(_Token(ch, ch, i))
            elif ch == "!" or ch == "~":
                tokens.append(_Token("not", None, i))
            else:
                raise ParseError(
                    f"unexpected character {ch!r}",
                    i,
                    {"variable", "constant", "operator", "'('", "')'"},
                )
            i += 1
    tokens.append(_Token("end", None, limit))
    return tokens


_LEVEL_IFF = frozenset(("iff", "xor"))
_LEVEL_IMPL = frozenset(("implies", "rev_implies", "nonimplies", "rev_nonimplies"))
_LEVEL_OR = frozenset(("or", "nor"))
_LEVEL_AND = frozenset(("and", "nand"))

_ATOM_EXPECTED = frozenset(("variable", "constant", "'('", "'!'"))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, level: frozenset) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in level

    def parse_expr(self) -> Expr:
        left = self.parse_impl()
        while self.at_op(_LEVEL_IFF):
            op = self.advance().value
            left = BinOp(op, left, self.parse_impl())
        return left

    def parse_impl(self) -> Expr:
        left = self.parse_union()
        while self.at_op(_LEVEL_IMPL):
            op = self.advance().value
            if op == "implies":
                return BinOp(op, left, self.parse_impl())
            left = BinOp(op, left, self.parse_union())
        return left

    def parse_union(self) -> Expr:
        left = self.parse_inter()
        while self.at_op(_LEVEL_OR):
            op = self.advance().value
            left = BinOp(op, left, self.parse_inter())
        return left

    def parse_inter(self) -> Expr:
        left = self.parse_unary()
        while self.at_op(_LEVEL_AND):
            op = self.advance().value
            left = BinOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "not":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "name":
            return Var(tok.value)
        if tok.kind == "const":
            return Const(tok.value)
        if tok.kind == "(":
            inner = self.parse_expr()
            closer = self.advance()
            if closer.kind != ")":
                raise ParseError("unclosed group", closer.pos, {"')'"})
            return inner
        raise ParseError("expected an operand", tok.pos, _ATOM_EXPECTED)


def _reference_parse(source: str) -> Expr:
    """Parse source text into a formula tree."""
    tokens = _tokenize(source)
    if tokens[0].kind == "end":
        raise ParseError("empty expression", 0, _ATOM_EXPECTED)
    parser = _Parser(tokens)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(
            "unexpected trailing input", tail.pos, {"binary operator", "end of input"}
        )
    return node


# the pieces random sources are made of: every spelling of every token,
# names that start like keywords, numbers, stray characters and whitespace
_PIECES = (
    ["&", "and", "|", "or", "^", "xor", "->", "implies", "<-", "<->", "iff"]
    + ["!and", "nand", "!or", "nor", "!->", "!<-", "!", "~", "not"]
    + ["0", "1", "true", "false", "(", ")", "(", ")"]
    + ["x", "y", "z", "andx", "nandy", "notz", "or_", "_a1", "truex", "x2"]
    + ["2", "10", "01", "+", "<", "-", "=", "!!", "\u00e9", "\u0663"]
)
_SPACES = ("", " ", "  ", "\t", "\n", "\x1c")
# equal-kind spellings for re-spelling the tokens of rendered formulas
_RESPELL = {}
for _group in (
    ("&", "and"), ("|", "or"), ("^", "xor"), ("->", "implies"), ("<->", "iff"),
    ("!and", "nand"), ("!or", "nor"), ("!", "~", "not"), ("1", "true"),
    ("0", "false"),
):
    for _text in _group:
        _RESPELL[_text] = _group


def _outcome(parser, source):
    try:
        return ("tree", parser(source))
    except ParseError as exc:
        return ("error", str(exc), exc.offset, exc.expected)


def _random_source(rng):
    """Token soup, or a rendered formula re-spelled and maybe mutated."""
    if rng.random() < 0.5:
        pieces = [rng.choice(_PIECES) for _ in range(rng.randint(0, 12))]
    else:
        e = _random_formula(rng, ["x", "y", "z"], rng.randint(1, 8))
        pieces = [
            rng.choice(_RESPELL.get(m.group(), (m.group(),)))
            for m in re.finditer(r"!and|!or|<->|!->|!<-|->|<-|\w+|\S", render(e))
        ]
        for _ in range(rng.choice((0, 0, 1, 2))):
            k = rng.randrange(len(pieces) + 1)
            if rng.random() < 0.5 or not pieces[k:]:
                pieces.insert(k, rng.choice(_PIECES))
            else:
                del pieces[k]
    return "".join(rng.choice(_SPACES) + p for p in pieces) + rng.choice(_SPACES)


class TestParserEquivalence:
    def test_matches_recursive_descent_parser(self):
        rng = random.Random(1961)
        trees = 0
        for _ in range(20_000):
            source = _random_source(rng)
            want = _outcome(_reference_parse, source)
            assert _outcome(parse, source) == want, repr(source)
            trees += want[0] == "tree"
        # both outcomes are well represented
        assert 4_000 < trees < 16_000
