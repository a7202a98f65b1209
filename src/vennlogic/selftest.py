"""Seeded, reduced-scale property suites behind the `selftest` CLI command.

Each suite draws its cases from a private generator seeded with the global
seed and its own name, so output is reproducible byte for byte and
independent of suite ordering.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import fsum

from .errors import SelfTestFailure, VennLogicError
from .evaluate import (
    Assignment,
    diagram_norm,
    fuzzy_operator_eval,
    fuzzy_part_value,
    neutro_operator_table,
    fuzzy_operator_table,
    oracle_expand,
)
from .expr import BOOL_OPS, BinOp, Const, Not, Var, compile_expr, evaluate_bool, parse, render
from .logic_core import (
    ITF,
    TFI,
    TIF,
    Component,
    ComponentVector,
    FuzzyValue,
    NeutrosophicValue,
    compose,
    fuzzy_conj,
    fuzzy_neg,
    inclusion_exclusion,
    neutro_conj,
    neutro_disj_disjoint,
    neutro_neg,
)
from .record import Record
from .venn import OperatorSpec, enumerate_parts, knuth_registry

CASES = 40
ORDERS = (TIF, ITF, TFI)


def _close(got, want, tol, what):
    """Check two numbers within tol, or two records field by field, naming
    the field that deviates as "what (field)"."""
    if isinstance(got, Record):
        for name, x in vars(got).items():
            _close(x, vars(want)[name], tol, f"{what} ({name})")
        return
    if abs(got - want) > tol:
        raise SelfTestFailure(f"{what}: {got!r} deviates from {want!r} by > {tol}")


def _triple(rng):
    return NeutrosophicValue(rng.random(), rng.random(), rng.random())


def _normalized_triple(rng):
    lo, hi = sorted((rng.random(), rng.random()))
    return NeutrosophicValue(lo, hi - lo, 1.0 - hi)


def _suite_fuzzy_laws(rng, perturb=0.0):
    one, zero = FuzzyValue(1.0, 0.0), FuzzyValue(0.0, 1.0)
    for _ in range(CASES):
        x, y, z = (FuzzyValue.from_truth(rng.random()) for _ in range(3))
        xy, yx = fuzzy_conj(x, y), fuzzy_conj(y, x)
        _close(xy, yx, 1e-12, "conjunction commutativity")
        left = fuzzy_conj(fuzzy_conj(x, y), z)
        right = fuzzy_conj(x, fuzzy_conj(y, z))
        _close(left, right, 1e-12, "conjunction associativity")
        if fuzzy_conj(x, one) != x:
            raise SelfTestFailure(f"(1, 0) is not an identity at {x}")
        _close(fuzzy_conj(x, zero), zero, 1e-12, "absorbing element")


def _suite_involutions(rng, perturb=0.0):
    for _ in range(CASES):
        x = FuzzyValue.from_truth(rng.random())
        if fuzzy_neg(fuzzy_neg(x)) != x:
            raise SelfTestFailure(f"fuzzy negation is not involutive at {x}")
        v = _triple(rng)
        if neutro_neg(neutro_neg(v)) != v:
            raise SelfTestFailure(f"negation is not involutive at {v}")
        _close(neutro_neg(v).norm(), v.norm(), 1e-12, "negation norm")


def _suite_union_falsehood(rng, perturb=0.0):
    for _ in range(CASES):
        args = [rng.random() for _ in range(rng.randint(1, 6))]
        got = inclusion_exclusion(args) + perturb
        miss = 1.0
        for a in args:
            miss *= 1.0 - a
        _close(got, 1.0 - miss, 1e-12, "union value vs complementary product")


def _suite_conj_oracle(rng, perturb=0.0):
    for _ in range(CASES):
        values = [_triple(rng) for _ in range(rng.randint(2, 4))]
        for order in ORDERS:
            got = neutro_conj(values, order)
            want = oracle_expand(values, order)
            _close(got, want, 1e-12, f"conjunction under {order}")


def _suite_norm_multiplicativity(rng, perturb=0.0):
    for _ in range(CASES):
        values = [_triple(rng) for _ in range(rng.randint(2, 5))]
        target = 1.0
        for v in values:
            target *= v.norm()
        _close(neutro_conj(values).norm(), target, 1e-12, "conjunction norm")


def _suite_composition(rng, perturb=0.0):
    for _ in range(CASES):
        k = rng.randint(1, 6)
        vectors = [
            ComponentVector(c, tuple(rng.random() for _ in range(k))) for c in Component
        ]
        # the seven nonempty subsets of the three classes
        total = fsum(compose(s) for r in (1, 2, 3) for s in combinations(vectors, r))
        target = 1.0
        for i in range(k):
            target *= fsum(v.values[i] for v in vectors)
        _close(total, target, 1e-12, "composition completeness")
        pair = vectors[:2]
        if compose(pair) != compose(pair[::-1]):
            raise SelfTestFailure("composition is not symmetric in its arguments")


def _suite_disjoint_union(rng, perturb=0.0):
    for _ in range(CASES):
        k = rng.randint(2, 5)
        squeeze = rng.random()
        raw = [rng.random() for _ in range(k)]
        total = sum(raw)
        values = [
            NeutrosophicValue(squeeze * t / total, rng.random(), rng.random())
            for t in raw
        ]
        tau = squeeze + rng.random()
        got = neutro_disj_disjoint(values, tau)
        _close(got.norm(), tau, 1e-12, "disjoint union norm")
    degenerate = neutro_disj_disjoint(
        [NeutrosophicValue(0.25, 0.0, 0.0), NeutrosophicValue(0.5, 0.0, 0.0)], 1.0
    )
    if degenerate != NeutrosophicValue(0.75, 0.0, 0.0):
        raise SelfTestFailure(f"degenerate union came out as {degenerate}")


def _suite_partition(rng, perturb=0.0):
    for n in (2, 3, 4):
        names = tuple(f"x{i}" for i in range(n))
        parts = enumerate_parts(n)
        for _ in range(CASES // 2):
            a = Assignment.fuzzy(names, tuple(rng.random() for _ in range(n)))
            total = fsum(fuzzy_part_value(p, a).t for p in parts)
            _close(total, 1.0, 1e-9, f"partition of unity at n={n}")
            whole = fuzzy_operator_eval(OperatorSpec(n, (1 << 2**n) - 1), a)
            _close(whole, FuzzyValue(1.0, 0.0), 1e-9, "full union")


def _suite_corners(rng, perturb=0.0):
    for op in knuth_registry():
        for p in range(4):
            a = Assignment.fuzzy(("x", "y"), (float(p & 1), float(p >> 1 & 1)))
            got = fuzzy_operator_eval(op.spec, a).t
            want = 1.0 if op.spec.is_shaded(p) else 0.0
            if got != want:
                raise SelfTestFailure(
                    f"{op.display_name} corner {p} gave {got!r}, wanted {want!r}"
                )
    names = ("x", "y", "z")
    for _ in range(CASES):
        spec = OperatorSpec(3, rng.randrange(1 << 8))
        p = rng.randrange(8)
        a = Assignment.fuzzy(names, tuple(float(p >> i & 1) for i in range(3)))
        got = fuzzy_operator_eval(spec, a).t
        want = 1.0 if spec.is_shaded(p) else 0.0
        if got != want:
            raise SelfTestFailure(f"spec {spec.shaded} corner {p} gave {got!r}")


def _suite_operator_table(rng, perturb=0.0):
    rows = fuzzy_operator_table()
    if len(rows) != 16:
        raise SelfTestFailure(f"operator table has {len(rows)} rows")


def _suite_neutro_rows(rng, perturb=0.0):
    for _ in range(CASES // 4):
        x, y = _normalized_triple(rng), _normalized_triple(rng)
        a = Assignment(("x", "y"), (x, y))
        rows = neutro_operator_table(a)
        if rows[3].value != x or rows[5].value != y:
            raise SelfTestFailure("projection rows do not return the literals")
        if rows[12].value != neutro_neg(x) or rows[10].value != neutro_neg(y):
            raise SelfTestFailure("complementation rows do not negate the literals")
        _close(rows[1].value, oracle_expand([x, y]), 1e-12, "conjunction row")
        _close(rows[9].value, neutro_neg(rows[6].value), 1e-12, "equivalence row")
        _close(rows[6].value.norm(), diagram_norm(a), 1e-12, "exclusive row norm")


# Each connective's Knuth catalog row, written apart from expr.py's table
_CATALOG_ROWS = {
    "and": "Conjunction", "or": "Inclusive disjunction",
    "xor": "Exclusive disjunction", "implies": "Implication",
    "rev_implies": "Converse implication", "iff": "Equivalence",
    "nand": "Nonconjunction", "nor": "Nondisjunction",
    "nonimplies": "Nonimplication", "rev_nonimplies": "Converse nonimplication",
}


def _suite_parser(rng, perturb=0.0):
    names = ("a", "b", "c", "d")
    ops = sorted(BOOL_OPS)
    index = {named.names[0]: named.spec.shaded for named in knuth_registry()}
    for op, row in _CATALOG_ROWS.items():
        if compile_expr(BinOp(op, Var("x"), Var("y")), ("x", "y")).shaded != index[row]:
            raise SelfTestFailure(f"connective {op} is not the catalog's {row}")

    def build(depth):
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.15:
                return Const(rng.random() < 0.5)
            return Var(rng.choice(names))
        if rng.random() < 0.25:
            return Not(build(depth - 1))
        return BinOp(rng.choice(ops), build(depth - 1), build(depth - 1))

    for _ in range(CASES):
        e = build(rng.randint(1, 5))
        if parse(render(e)) != e:
            raise SelfTestFailure(f"round trip broke for {render(e)!r}")
        spec = compile_expr(e, names)
        for p in range(1 << len(names)):
            env = {name: bool(p >> i & 1) for i, name in enumerate(names)}
            if spec.is_shaded(p) != evaluate_bool(e, env):
                raise SelfTestFailure(
                    f"compiled shading disagrees at corner {p} of {render(e)!r}"
                )


SUITES = (
    ("fuzzy-conjunction-laws", _suite_fuzzy_laws),
    ("negation-involutions", _suite_involutions),
    ("union-falsehood-identity", _suite_union_falsehood),
    ("conjunction-oracle", _suite_conj_oracle),
    ("norm-multiplicativity", _suite_norm_multiplicativity),
    ("composition-completeness", _suite_composition),
    ("disjoint-union-norm", _suite_disjoint_union),
    ("partition-of-unity", _suite_partition),
    ("boolean-corners", _suite_corners),
    ("operator-table-grid", _suite_operator_table),
    ("neutro-table-relations", _suite_neutro_rows),
    ("parser-round-trip", _suite_parser),
)


def run_selftest(seed: int = 0, inject_failure: bool = False) -> bool:
    """Run every suite; stop and report at the first failure.

    inject_failure perturbs one comparison on purpose so CI can confirm that
    failures actually surface.
    """
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        perturb = 1e-6 if inject_failure and name == "union-falsehood-identity" else 0.0
        try:
            fn(rng, perturb)
        except VennLogicError as exc:
            print(f"FAIL {name}: {exc}")
            return False
        print(f"ok {name}")
    print("all suites passed")
    return True
