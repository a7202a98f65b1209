"""Surface syntax for propositional formulas and compilation to shaded parts.

Grammar, loosest to tightest binding::

    expr  := impl  (("<->" | "iff" | "^" | "xor") impl)*          left-assoc
    impl  := union (("->" | "implies") impl                       right-assoc
            | ("<-" | "!->" | "!<-") union)*                      left-assoc
    union := inter (("|" | "or" | "!or" | "nor") inter)*          left-assoc
    inter := unary (("&" | "and" | "!and" | "nand") unary)*       left-assoc
    unary := ("!" | "~" | "not") unary | atom
    atom  := NAME | "0" | "1" | "true" | "false" | "(" expr ")"

NAME matches [A-Za-z_][A-Za-z0-9_]* and may not collide with a keyword token.
render() is the canonical printer and parse(render(e)) rebuilds e node for
node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import DomainError, ParseError, UnknownVariable
from .venn import OperatorSpec, _check_n, projection_mask

BOOL_OPS: dict[str, Callable[[bool, bool], bool]] = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "xor": lambda a, b: a != b,
    "implies": lambda a, b: (not a) or b,
    "rev_implies": lambda a, b: a or not b,
    "iff": lambda a, b: a == b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "nonimplies": lambda a, b: a and not b,
    "rev_nonimplies": lambda a, b: (not a) and b,
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

KEYWORDS = frozenset(
    ("and", "or", "xor", "implies", "iff", "nand", "nor", "not", "true", "false")
)


class Expr:
    """Base class for formula nodes."""


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name) or self.name in KEYWORDS:
            raise DomainError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Const(Expr):
    value: bool


@dataclass(frozen=True)
class Not(Expr):
    child: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BOOL_OPS:
            raise DomainError(f"unknown connective {self.op!r}")


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


def parse(source: str) -> Expr:
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


_PREC = {
    "iff": 1,
    "xor": 1,
    "implies": 2,
    "rev_implies": 2,
    "nonimplies": 2,
    "rev_nonimplies": 2,
    "or": 3,
    "nor": 3,
    "and": 4,
    "nand": 4,
}
_NOT_PREC = 5
_ATOM_PREC = 6

_OP_TEXT = {
    "and": "&",
    "or": "|",
    "xor": "^",
    "implies": "->",
    "rev_implies": "<-",
    "iff": "<->",
    "nand": "!and",
    "nor": "!or",
    "nonimplies": "!->",
    "rev_nonimplies": "!<-",
}


def render(e: Expr) -> str:
    """Canonical text form; parse(render(e)) reproduces e exactly.

    Same-level children keep their parentheses unless they sit on the natural
    association side with the same connective, so mixed chains like
    (a -> b) <- c never round-trip into a different tree.
    """
    text, _ = _render(e)
    return text


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Var):
        return e.name, _ATOM_PREC
    if isinstance(e, Const):
        return ("1" if e.value else "0"), _ATOM_PREC
    if isinstance(e, Not):
        text, prec = _render(e.child)
        if prec < _NOT_PREC:
            text = f"({text})"
        return f"!{text}", _NOT_PREC
    if isinstance(e, BinOp):
        left = _render_child(e.left, e, "left")
        right = _render_child(e.right, e, "right")
        return f"{left} {_OP_TEXT[e.op]} {right}", _PREC[e.op]
    raise DomainError(f"not a formula node: {e!r}")


def _render_child(child: Expr, parent: BinOp, side: str) -> str:
    text, child_prec = _render(child)
    parent_prec = _PREC[parent.op]
    if child_prec > parent_prec:
        return text
    if child_prec == parent_prec and isinstance(child, BinOp) and child.op == parent.op:
        natural = "right" if parent.op == "implies" else "left"
        if side == natural:
            return text
    return f"({text})"


def variables(e: Expr) -> set[str]:
    """Names referenced anywhere in the formula."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Not):
        return variables(e.child)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    raise DomainError(f"not a formula node: {e!r}")


def evaluate_bool(e: Expr, env: Mapping[str, bool]) -> bool:
    """Classical evaluation under a name -> bool environment."""
    if isinstance(e, Var):
        try:
            return bool(env[e.name])
        except KeyError:
            raise UnknownVariable(f"unknown variable: {e.name}") from None
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Not):
        return not evaluate_bool(e.child, env)
    if isinstance(e, BinOp):
        return BOOL_OPS[e.op](
            evaluate_bool(e.left, env), evaluate_bool(e.right, env)
        )
    raise DomainError(f"not a formula node: {e!r}")


# The connectives on 2^n-bit truth tables: bit p of each operand is its
# value at corner p, and `full ^ x` is negation.
_BIT_OPS: dict[str, Callable[[int, int, int], int]] = {
    "and": lambda a, b, full: a & b,
    "or": lambda a, b, full: a | b,
    "xor": lambda a, b, full: a ^ b,
    "implies": lambda a, b, full: (full ^ a) | b,
    "rev_implies": lambda a, b, full: a | (full ^ b),
    "iff": lambda a, b, full: full ^ a ^ b,
    "nand": lambda a, b, full: full ^ (a & b),
    "nor": lambda a, b, full: full ^ (a | b),
    "nonimplies": lambda a, b, full: a & (full ^ b),
    "rev_nonimplies": lambda a, b, full: (full ^ a) & b,
}


def _truth_table(e: Expr, masks: Mapping[str, int], full: int) -> int:
    if isinstance(e, Var):
        return masks[e.name]
    if isinstance(e, Const):
        return full if e.value else 0
    if isinstance(e, Not):
        return full ^ _truth_table(e.child, masks, full)
    if isinstance(e, BinOp):
        return _BIT_OPS[e.op](
            _truth_table(e.left, masks, full), _truth_table(e.right, masks, full), full
        )
    raise DomainError(f"not a formula node: {e!r}")


def compile_expr(e: Expr, var_names: Sequence[str]) -> OperatorSpec:
    """Shade the parts of the diagram over var_names on which e holds.

    Part p is the corner assignment where variable i is true exactly when bit
    i-1 of p is set; the part is shaded when the formula evaluates true
    there.  The whole truth table is computed at once as a 2^n-bit integer:
    variable i is its projection mask, a constant is 0 or all ones, and each
    connective is one bitwise operation, so the cost is one tree walk of
    big-integer operations rather than one walk per corner.  Ordering is
    taken from var_names, never inferred from the formula, so part labels
    stay stable across formulas over the same variables.  Declared but
    unused variables are fine; the shading is then symmetric in them.
    """
    names = list(var_names)
    if not names:
        raise DomainError("need at least one variable")
    if len(set(names)) != len(names):
        raise DomainError("duplicate variable names")
    _check_n(len(names))
    missing = variables(e) - set(names)
    if missing:
        raise UnknownVariable(
            "unknown variable(s): " + ", ".join(sorted(missing))
        )
    n = len(names)
    masks = {name: projection_mask(n, i) for i, name in enumerate(names)}
    return OperatorSpec(n, _truth_table(e, masks, (1 << (1 << n)) - 1))
