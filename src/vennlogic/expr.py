"""Surface syntax for propositional formulas and compilation to shaded parts.

Grammar, loosest to tightest binding::

    expr  := impl  (("<->" | "iff" | "^" | "xor") impl)*          left-assoc
    impl  := union (("->" | "implies") impl                       right-assoc
            | ("<-" | "!->" | "!<-") union)*                      left-assoc
    union := inter (("|" | "or" | "!or" | "nor") inter)*          left-assoc
    inter := unary (("&" | "and" | "!and" | "nand") unary)*       left-assoc
    unary := ("!" | "~" | "not") unary | atom
    atom  := NAME | "0" | "1" | "true" | "false" | "(" expr ")"

Each binary connective is defined in one place, a row of _CONNECTIVES:
binding level, meaning on truth tables and spellings.  BOOL_OPS, KEYWORDS
and the parser's, printer's and compiler's tables are derived from it.

NAME matches [A-Za-z_][A-Za-z0-9_]* and may not collide with a keyword token.
render() is the canonical printer and parse(render(e)) rebuilds e node for
node.

Nothing here recurses.  The tokenizer is one regular expression, parse()
is operator-precedence (shunting-yard) parsing over explicit operand and
operator stacks, and render(), variables(), evaluate_bool() and
compile_expr() walk the tree with explicit stacks, and so do the nodes'
==, hash and repr, which Record gives every record, so formula depth is
bounded by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache
from itertools import islice

from .errors import ArityMismatch, DomainError, ParseError, UnknownVariable
from .record import Record
from .venn import OperatorSpec, _check_n, projection_mask

# Each binary connective, written once: its binding level (1 is the
# loosest), its meaning on 2^n-bit truth tables (bit p of an operand is its
# value at corner p, and `full ^ x` is negation) and its spellings, the first
# being the one render() prints.  On the n = 2 projections 0b1010 and 0b1100
# each meaning gives the index of its row in venn.knuth_registry().
_CONNECTIVES = {
    "and": (4, lambda a, b, full: a & b, ("&", "and")),
    "or": (3, lambda a, b, full: a | b, ("|", "or")),
    "xor": (1, lambda a, b, full: a ^ b, ("^", "xor")),
    "implies": (2, lambda a, b, full: (full ^ a) | b, ("->", "implies")),
    "rev_implies": (2, lambda a, b, full: a | (full ^ b), ("<-",)),
    "iff": (1, lambda a, b, full: full ^ a ^ b, ("<->", "iff")),
    "nand": (4, lambda a, b, full: full ^ (a & b), ("!and", "nand")),
    "nor": (3, lambda a, b, full: full ^ (a | b), ("!or", "nor")),
    "nonimplies": (2, lambda a, b, full: a & (full ^ b), ("!->",)),
    "rev_nonimplies": (2, lambda a, b, full: (full ^ a) & b, ("!<-",)),
}
_PREC = {op: prec for op, (prec, _, _) in _CONNECTIVES.items()}
_BIT_OPS = {op: bits for op, (_, bits, _) in _CONNECTIVES.items()}
_SPELLINGS = {op: texts for op, (_, _, texts) in _CONNECTIVES.items()}


def _on_one_corner(bits) -> Callable[[bool, bool], bool]:
    """The connective of meaning bits on one corner; operands count as bool."""
    return lambda a, b: bool(bits(bool(a), bool(b), 1))


BOOL_OPS = {op: _on_one_corner(bits) for op, bits in _BIT_OPS.items()}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Expr(Record):
    """Base class for formula nodes.  Record's ==, hash and repr walk the tree
    with explicit stacks, so they do not recurse either."""


def _is_name(name) -> bool:
    """Whether a formula can spell name: an identifier that is no keyword."""
    if not isinstance(name, str) or name in KEYWORDS:
        return False
    return _NAME_RE.fullmatch(name) is not None


@lru_cache(maxsize=256)
def _usable(names: tuple) -> bool:
    """Whether a formula can spell every name and no name repeats.  Cached
    per name tuple, since a catalog table builds an assignment over the same
    two names 1,936 times."""
    return all(map(_is_name, names)) and len(set(names)) == len(names)


def _name_fault(names: Sequence, where: str = "") -> ArityMismatch:
    """The usage fault of names that _usable rejects: the first name a
    formula cannot spell, else the repetition (where names the list)."""
    for name in names:
        if not _is_name(name):
            return ArityMismatch(f"invalid variable name {name!r}")
    return ArityMismatch(f"duplicate variable names{where}")


class Var(Expr):
    def __init__(self, name: str):
        if not _is_name(name):
            raise DomainError(f"invalid variable name {name!r}")
        vars(self).update(name=name)


class Const(Expr):
    def __init__(self, value: bool):
        vars(self).update(value=value)


class Not(Expr):
    def __init__(self, child: Expr):
        vars(self).update(child=child)


class BinOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BOOL_OPS:
            raise DomainError(f"unknown connective {op!r}")
        vars(self).update(op=op, left=left, right=right)


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
KEYWORDS = frozenset(filter(_NAME_RE.fullmatch, _TOKENS))

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
    """The nodes of e, each child before its parent and left before right.
    A node that is not a Var, Const, Not or BinOp raises DomainError."""
    stack, order = [e], []
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif not isinstance(node, (Var, Const)):
            raise DomainError(f"not a formula node: {node!r}")
    order.reverse()
    return order


def variables(e: Expr) -> set[str]:
    """Names referenced anywhere in the formula."""
    return {node.name for node in _postorder(e) if isinstance(node, Var)}


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
        else:
            right = values.pop()
            values[-1] = BOOL_OPS[node.op](values[-1], right)
    return values[0]


def compile_expr(e: Expr, var_names: Sequence[str]) -> OperatorSpec:
    """Shade the parts of the diagram over var_names on which e holds.

    Part p is the corner assignment where variable i is true exactly when bit
    i-1 of p is set; the part is shaded when the formula evaluates true
    there.  The whole truth table is computed at once as a 2^n-bit integer:
    variable i is its projection mask, a constant is 0 or all ones, and each
    connective is one or two bitwise operations (one `&`, `|` or `^` for
    and, or and xor; a negation `full ^ x` and one of those for the other
    seven), so the cost is one tree walk of big-integer operations rather
    than one walk per corner.  Ordering is taken from var_names, never
    inferred from the formula, so part labels stay stable across formulas
    over the same variables.  Declared but unused variables are fine; the
    shading is then symmetric in them.
    """
    names = list(var_names)
    if not _usable(tuple(names)):
        raise _name_fault(names)
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
        else:
            right = values.pop()
            values[-1] = _BIT_OPS[node.op](values[-1], right, full)
    if missing:
        raise UnknownVariable(
            "unknown variable(s): " + ", ".join(sorted(missing))
        )
    return OperatorSpec(n, values[0])
