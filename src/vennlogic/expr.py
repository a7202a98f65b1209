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

Nothing here recurses.  The tokenizer is one regular expression, parse()
is operator-precedence (shunting-yard) parsing over explicit operand and
operator stacks, and render(), variables(), evaluate_bool() and
compile_expr() walk the tree with explicit stacks, and so do the nodes'
==, hash and repr, so formula depth is bounded by memory, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

import re
from itertools import islice
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


class _Known:
    """A subtree whose hash is already computed, standing in for it inside
    its parent's field tuple."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


class Expr:
    """Base class for formula nodes.

    ==, hash and repr give what the dataclass-generated methods would (the
    nodes' field tuples compared, hashed and printed) but walk the tree with
    explicit stacks instead of recursing.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if isinstance(x, Expr) and isinstance(y, Expr):
                if x.__class__ is not y.__class__:
                    return False
                pairs.extend(zip(vars(x).values(), vars(y).values()))
            elif not x == y:
                return False
        return True

    def __hash__(self):
        # children first: a node hashes its field tuple with each child node
        # replaced by the child's known hash
        hashes = []
        stack: list = [self]  # nodes, and the field lists of nodes to finish
        while stack:
            item = stack.pop()
            if isinstance(item, Expr):
                fields = list(vars(item).values())
                stack.append(fields)
                stack.extend([x for x in reversed(fields) if isinstance(x, Expr)])
                continue
            for i in reversed(range(len(item))):
                if isinstance(item[i], Expr):
                    item[i] = _Known(hashes.pop())
            hashes.append(hash(tuple(item)))
        return hashes[0]

    def __repr__(self):
        pieces = []
        stack: list = [self]  # nodes, and text to emit
        while stack:
            item = stack.pop()
            if not isinstance(item, Expr):
                pieces.append(item)
                continue
            pieces.append(f"{item.__class__.__qualname__}(")
            stack.append(")")
            fields = list(vars(item).items())
            for k in reversed(range(len(fields))):
                name, x = fields[k]
                stack.append(x if isinstance(x, Expr) else repr(x))
                stack.append(f"{', ' if k else ''}{name}=")
        return "".join(pieces)


# eq=False and repr=False keep Expr's iterative methods
@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name) or self.name in KEYWORDS:
            raise DomainError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: bool


@dataclass(frozen=True, eq=False, repr=False)
class Not(Expr):
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BOOL_OPS:
            raise DomainError(f"unknown connective {self.op!r}")


# the spellings of each connective; the first is the one render() prints
_SPELLINGS = {
    "and": ("&", "and"),
    "or": ("|", "or"),
    "xor": ("^", "xor"),
    "implies": ("->", "implies"),
    "rev_implies": ("<-",),
    "iff": ("<->", "iff"),
    "nand": ("!and", "nand"),
    "nor": ("!or", "nor"),
    "nonimplies": ("!->",),
    "rev_nonimplies": ("!<-",),
}

# token text -> (kind, value) for the kinds "op", "not", "const", "(" and
# ")"; any other text is a name, a number or a stray character
_TOKENS = {
    **{text: ("op", op) for op, texts in _SPELLINGS.items() for text in texts},
    **dict.fromkeys(("!", "~", "not"), ("not", None)),
    **dict.fromkeys(("1", "true"), ("const", True)),
    **dict.fromkeys(("0", "false"), ("const", False)),
    "(": ("(", None),
    ")": (")", None),
}
_OTHER = ("other", None)

# The tokenizer: findall gives every token's text, skipping whitespace.  The
# alternatives are tried in order: names and keywords, numbers, "!and"/"!or"
# as words, the symbols longest first (so "<->" beats "<-" and "!->" beats
# "!"), and last any other single character.
_TOKEN_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|!and\b|!or\b|<->|!->|!<-|->|<-|\S)"
)


def _syntax_error(
    source: str, texts: list[str], index: int, message: str, expected
) -> ParseError:
    """The error for token index (len(texts) is the end of input), unless a
    stray character or a number other than 0 or 1 comes anywhere in the
    text: the first of those outranks any grammar error.  Offsets are found
    again only here, so the parse itself never tracks them."""
    for i, text in enumerate(texts):
        if text not in _TOKENS and not _NAME_RE.match(text):
            index = i
            if "0" <= text[0] <= "9":
                message, expected = f"unexpected number {text!r}", {"'0'", "'1'"}
            else:
                message = f"unexpected character {text!r}"
                expected = {"variable", "constant", "operator", "'('", "')'"}
            break
    if index == len(texts):
        offset = len(source)
    else:
        offset = next(islice(_TOKEN_RE.finditer(source), index, None)).start(1)
    return ParseError(message, offset, expected)


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

# How tightly an operator on the stack holds its operands: an incoming
# operator of level p first reduces every stacked one with a binding of at
# least p.  A stacked "->" yields only to a looser level, so everything after
# it at its own level becomes its right operand; the bottom sentinel "" and
# an open "(" yield to nothing.
_BINDING = {**_PREC, "implies": 1.5, "": 0, "(": 0}

_ATOM_EXPECTED = frozenset(("variable", "constant", "'('", "'!'"))


def _reduce(operands: list, ops: list, binding: float) -> None:
    """Fold the stacked operators that bind at least as tightly as binding."""
    while _BINDING[ops[-1]] >= binding:
        right = operands.pop()
        operands[-1] = BinOp(ops.pop(), operands[-1], right)


def parse(source: str) -> Expr:
    """Parse source text into a formula tree."""
    texts = _TOKEN_RE.findall(source)
    if not texts:
        raise ParseError("empty expression", 0, _ATOM_EXPECTED)
    names: dict[str, Var] = {}
    operands: list[Expr] = []
    ops = [""]  # connectives, "(" and "not" markers, over a bottom sentinel
    depth = 0  # open groups
    want_operand = True
    for i, text in enumerate(texts):
        kind, value = _TOKENS.get(text, _OTHER)
        if want_operand:
            if text in names:
                node = names[text]
            elif kind == "other" and _NAME_RE.match(text):
                node = names[text] = Var(text)
            elif kind == "const":
                node = Const(value)
            elif kind == "not":
                ops.append("not")
                continue
            elif kind == "(":
                ops.append("(")
                depth += 1
                continue
            else:
                raise _syntax_error(
                    source, texts, i, "expected an operand", _ATOM_EXPECTED
                )
        elif kind == "op":
            _reduce(operands, ops, _PREC[value])
            ops.append(value)
            want_operand = True
            continue
        elif kind == ")" and depth:
            _reduce(operands, ops, 1)  # every connective back to the "("
            ops.pop()
            depth -= 1
            node = operands.pop()
        elif depth:
            raise _syntax_error(source, texts, i, "unclosed group", {"')'"})
        else:
            raise _syntax_error(
                source, texts, i, "unexpected trailing input",
                {"binary operator", "end of input"},
            )
        # an operand is complete: the negations stacked right before it apply
        while ops[-1] == "not":
            ops.pop()
            node = Not(node)
        operands.append(node)
        want_operand = False
    end = len(texts)
    if want_operand:
        raise _syntax_error(source, texts, end, "expected an operand", _ATOM_EXPECTED)
    if depth:
        raise _syntax_error(source, texts, end, "unclosed group", {"')'"})
    _reduce(operands, ops, 1)
    return operands[0]


def _prec(e: Expr) -> int:
    if isinstance(e, (Var, Const)):
        return _ATOM_PREC
    if isinstance(e, Not):
        return _NOT_PREC
    if isinstance(e, BinOp):
        return _PREC[e.op]
    raise DomainError(f"not a formula node: {e!r}")


def render(e: Expr) -> str:
    """Canonical text form; parse(render(e)) reproduces e exactly.

    Same-level children keep their parentheses unless they sit on the natural
    association side with the same connective, so mixed chains like
    (a -> b) <- c never round-trip into a different tree.
    """
    pieces = []
    # strings to emit, or (node, lowest precedence it may show bare, the
    # connective it may show bare at the parent's level on this side)
    stack: list = [(e, 0, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, bare_prec, bare_op = item
        prec = _prec(node)
        if prec < bare_prec and not (isinstance(node, BinOp) and node.op == bare_op):
            pieces.append("(")
            stack.append(")")
        if isinstance(node, Var):
            pieces.append(node.name)
        elif isinstance(node, Const):
            pieces.append("1" if node.value else "0")
        elif isinstance(node, Not):
            pieces.append("!")
            stack.append((node.child, _NOT_PREC, None))
        else:
            # a same-connective child stays bare on the side it associates to
            left, right = (None, node.op) if node.op == "implies" else (node.op, None)
            stack.append((node.right, prec + 1, right))
            stack.append(f" {_SPELLINGS[node.op][0]} ")
            stack.append((node.left, prec + 1, left))
    return "".join(pieces)


def _postorder(e: Expr) -> list:
    """The nodes of e, each child before its parent and left before right."""
    stack, order = [e], []
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Not):
            stack.append(node.child)
    order.reverse()
    return order


def variables(e: Expr) -> set[str]:
    """Names referenced anywhere in the formula."""
    names = set()
    for node in _postorder(e):
        if isinstance(node, Var):
            names.add(node.name)
        elif not isinstance(node, (Const, Not, BinOp)):
            raise DomainError(f"not a formula node: {node!r}")
    return names


def evaluate_bool(e: Expr, env: Mapping[str, bool]) -> bool:
    """Classical evaluation under a name -> bool environment."""
    values = []
    for node in _postorder(e):
        if isinstance(node, Var):
            try:
                values.append(bool(env[node.name]))
            except KeyError:
                raise UnknownVariable(f"unknown variable: {node.name}") from None
        elif isinstance(node, Const):
            values.append(node.value)
        elif isinstance(node, Not):
            values[-1] = not values[-1]
        elif isinstance(node, BinOp):
            right = values.pop()
            values[-1] = BOOL_OPS[node.op](values[-1], right)
        else:
            raise DomainError(f"not a formula node: {node!r}")
    return values[0]


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
    n = len(names)
    masks = {name: projection_mask(n, i) for i, name in enumerate(names)}
    full = (1 << (1 << n)) - 1
    missing = set()
    values = []
    for node in _postorder(e):
        if isinstance(node, Var):
            mask = masks.get(node.name)
            if mask is None:
                missing.add(node.name)
                mask = 0
            values.append(mask)
        elif isinstance(node, Const):
            values.append(full if node.value else 0)
        elif isinstance(node, Not):
            values[-1] ^= full
        elif isinstance(node, BinOp):
            right = values.pop()
            values[-1] = _BIT_OPS[node.op](values[-1], right, full)
        else:
            raise DomainError(f"not a formula node: {node!r}")
    if missing:
        raise UnknownVariable(
            "unknown variable(s): " + ", ".join(sorted(missing))
        )
    return OperatorSpec(n, values[0])
