"""Seeded inputs for the benchmark: formula trees with their text, assignment
values, prevalence orders and command lines.

Everything here is a pure function of (workload, seed), so one seed always
gives the same inputs.  The package under test only ever receives the text
and the numbers made here; the trees stay on the benchmark's side, where
reference.py evaluates them independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("codify", "fuzzy", "neutro", "crosscheck", "table")

# every connective of the expression language with each of its spellings
CONNECTIVES = {
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
NEGATIONS = ("!", "~", "not ")

# Orders in which T is the weakest class.  Part truths are then products of
# T or F entries, so the truth mass of all parts is prod(T_i + F_i), which
# stays within the target norm and within 1 whichever aggregation route the
# program picks.
ORDERS = ("TIF", "TFI")


@dataclass(frozen=True)
class Workload:
    inprocess: bool
    sizes: dict          # kind -> number of variables (tables are always binary)
    leaves: object       # n -> leaves per formula
    per_round: int       # operations of each non-table kind in one round
    pool: int            # distinct rounds generated; the run cycles through them
    count_rounds: int    # rounds whose exact counts the traced run reports


WORKLOADS = {
    "wide": Workload(
        inprocess=True,
        sizes={"codify": 12, "fuzzy": 12, "neutro": 10, "crosscheck": 6},
        leaves=lambda n: 2 * n,
        per_round=1,
        pool=8,
        count_rounds=2,
    ),
    "small": Workload(
        inprocess=True,
        sizes={"codify": 3, "fuzzy": 3, "neutro": 3, "crosscheck": 3},
        leaves=lambda n: 40,
        per_round=8,
        pool=6,
        count_rounds=4,
    ),
    "cli": Workload(
        inprocess=False,
        sizes={"codify": 8, "fuzzy": 8, "neutro": 8, "crosscheck": 4},
        leaves=lambda n: 2 * n,
        per_round=1,
        pool=2,
        count_rounds=2,
    ),
}


@dataclass(frozen=True)
class Op:
    """One user operation.

    tree is ("var", i), ("const", b), ("not", child) or ("bin", op, l, r).
    values are truths (fuzzy) or (T, I, F) triples (neutro, crosscheck,
    table); fmt is the CLI output format.
    """

    kind: str
    names: tuple
    tree: object
    text: str
    values: tuple
    order: str
    fmt: str

    @property
    def n(self):
        return len(self.names)

    @property
    def argv(self):
        return cli_argv(self)


def var_names(n):
    return tuple("xyz"[:n]) if n <= 3 else tuple(f"x{i}" for i in range(1, n + 1))


def random_tree(rng, n, leaves):
    """A formula over n variables with exactly `leaves` leaves, leaves - 1
    binary nodes and leaves // 4 negations, so its node count (and with it
    the program's corner-walk work) does not depend on the seed.

    Every variable occurs at least once when leaves >= n; every connective
    occurs at least once when there are ten or more binary nodes.  Splits
    stay between a quarter and three quarters of the leaves, which bounds
    the nesting depth by about log_{4/3}(leaves).
    """
    # (variable, whether this leaf is the occurrence that covers it)
    atoms = [(i, True) for i in range(n)]
    atoms += [(rng.randrange(n), False) for _ in range(leaves - n)]
    rng.shuffle(atoms)
    ops = list(CONNECTIVES)
    ops = (ops * (leaves // len(ops) + 1))[: leaves - 1]
    rng.shuffle(ops)
    total_nodes = 2 * leaves - 1
    negated = set(rng.sample(range(total_nodes), leaves // 4))
    counter = iter(range(total_nodes))

    def build(lo, hi):
        node_id = next(counter)
        if hi - lo == 1:
            i, covering = atoms[lo]
            # now and then a constant stands in for a repeated variable
            if not covering and rng.random() < 1 / 16:
                node = ("const", rng.random() < 0.5)
            else:
                node = ("var", i)
        else:
            size = hi - lo
            cut = rng.randint(max(1, size // 4), max(1, size - size // 4 - 1))
            left = build(lo, lo + cut)
            right = build(lo + cut, hi)
            node = ("bin", ops.pop(), left, right)
        return ("not", node) if node_id in negated else node

    return build(0, len(atoms))


def render(rng, tree, names):
    """Text for the tree with randomly chosen spellings.  Every binary
    operand that is itself binary is parenthesized, so the meaning does not
    depend on the precedence rules of the language."""
    tag = tree[0]
    if tag == "var":
        return names[tree[1]]
    if tag == "const":
        return rng.choice(("1", "true") if tree[1] else ("0", "false"))
    if tag == "not":
        inner = render(rng, tree[1], names)
        if tree[1][0] == "bin":
            inner = f"({inner})"
        return rng.choice(NEGATIONS) + inner
    _, op, left, right = tree
    parts = []
    for child in (left, right):
        text = render(rng, child, names)
        parts.append(f"({text})" if child[0] == "bin" else text)
    return f"{parts[0]} {rng.choice(CONNECTIVES[op])} {parts[1]}"


def triple(rng):
    """A (T, I, F) triple with T + I + F <= 1."""
    total = rng.uniform(0.5, 1.0)
    w = [rng.random() + 1e-3 for _ in range(3)]
    s = sum(w)
    return tuple(total * x / s for x in w)


def make_op(rng, workload, kind, fmt):
    if kind == "table":
        return Op(kind, ("x", "y"), None, "", (triple(rng), triple(rng)),
                  rng.choice(ORDERS), fmt)
    n = workload.sizes[kind]
    names = var_names(n)
    tree = random_tree(rng, n, workload.leaves(n))
    text = render(rng, tree, names)
    if kind == "codify":
        values = ()
    elif kind == "fuzzy":
        values = tuple(rng.random() for _ in names)
    else:
        values = tuple(triple(rng) for _ in names)
    order = rng.choice(ORDERS) if kind in ("neutro", "crosscheck") else "TIF"
    # CSV output carries no oracle delta, so cross-checks always ask for JSON
    if kind == "crosscheck":
        fmt = "json"
    return Op(kind, names, tree, text, values, order, fmt)


def build(name, seed):
    """The workload's pool of rounds.  A round holds per_round operations of
    each non-table kind and one table operation, in a fixed kind order."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    rounds = []
    for r in range(workload.pool):
        ops = []
        for k, kind in enumerate(KINDS):
            count = 1 if kind == "table" else workload.per_round
            for _ in range(count):
                fmt = ("json", "csv")[(r + k) % 2]
                ops.append(make_op(rng, workload, kind, fmt))
        rounds.append(ops)
    return rounds


def _assign(names, values):
    def fmt(v):
        return ",".join(repr(x) for x in v) if isinstance(v, tuple) else repr(v)

    return ";".join(f"{name}={fmt(v)}" for name, v in zip(names, values))


def cli_argv(op):
    """Command lines for `python -m vennlogic.cli`; a table operation is two
    commands, table 1 then table 2."""
    fmt = ["--format", op.fmt]
    if op.kind == "codify":
        return (("codify", "-e", op.text, "-v", ",".join(op.names), *fmt),)
    if op.kind == "table":
        return (
            ("table", "1", *fmt),
            ("table", "2", "-a", _assign(op.names, op.values), "--order", op.order, *fmt),
        )
    argv = ["eval", "-e", op.text, "-a", _assign(op.names, op.values)]
    if op.kind == "fuzzy":
        argv += ["--logic", "fuzzy"]
    else:
        argv += ["--logic", "neutrosophic", "--order", op.order]
    if op.kind == "crosscheck":
        argv.append("--oracle")
    return (tuple(argv + fmt),)
