"""Valuation of diagram parts and shaded operators under fuzzy and
three-component assignments, plus catalog tables and the brute-force
expansion oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import fsum
from typing import Callable, Sequence, Union

from .errors import ArityMismatch, DomainError, OracleTooLarge, VerificationFailure
from .logic_core import (
    TIF,
    Component,
    FuzzyValue,
    NeutrosophicValue,
    PrevalenceOrder,
    fuzzy_disj_disjoint,
    inclusion_exclusion,
    neutro_conj,
    neutro_disj_disjoint,
    neutro_neg,
)
from .venn import OperatorSpec, Part, complement, knuth_registry, projection_mask

Value = Union[FuzzyValue, NeutrosophicValue]

ORACLE_MAX_K = 12


@dataclass(frozen=True)
class Assignment:
    """Ordered variable values, all fuzzy or all three-component."""

    names: tuple[str, ...]
    values: tuple[Value, ...]

    def __post_init__(self):
        names = tuple(self.names)
        values = tuple(self.values)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)
        if not names:
            raise DomainError("assignment needs at least one variable")
        if len(set(names)) != len(names):
            raise DomainError("duplicate variable names in assignment")
        if len(values) != len(names):
            raise ArityMismatch(
                f"{len(names)} variable names but {len(values)} values"
            )
        kinds = {type(v) for v in values}
        if kinds not in ({FuzzyValue}, {NeutrosophicValue}):
            raise ArityMismatch(
                "assignment values must be all fuzzy or all neutrosophic"
            )

    @property
    def kind(self) -> str:
        return "fuzzy" if isinstance(self.values[0], FuzzyValue) else "neutrosophic"

    @property
    def n(self) -> int:
        return len(self.names)

    @classmethod
    def fuzzy(cls, names: Sequence[str], truths: Sequence[float]) -> "Assignment":
        return cls(tuple(names), tuple(FuzzyValue.from_truth(t) for t in truths))

    @classmethod
    def neutrosophic(cls, names, triples) -> "Assignment":
        values = []
        for name, (t, i, f) in zip(names, triples, strict=True):
            for channel, x in (("T", t), ("I", i), ("F", f)):
                if not 0.0 <= x <= 1.0:
                    raise DomainError(
                        f"variable {name!r}: {channel}={x!r} outside [0, 1]"
                    )
            values.append(NeutrosophicValue(t, i, f))
        return cls(tuple(names), tuple(values))


def diagram_norm(a: Assignment) -> float:
    """Product of the variable norms; the target norm for aggregation."""
    total = 1.0
    for v in a.values:
        total *= v.norm()
    return total


def _require(a: Assignment, n: int, kind: str) -> None:
    if a.kind != kind:
        raise ArityMismatch(f"expected a {kind} assignment, got {a.kind}")
    if a.n != n:
        raise ArityMismatch(f"assignment covers {a.n} variables, diagram needs {n}")


def fuzzy_part_value(part: Part, a: Assignment) -> FuzzyValue:
    """Fuzzy value of one part.

    Truth multiplies t_i for member variables and 1 - t_j for the others.
    Falsehood is the inclusion-exclusion union of f_i for members and t_j for
    non-members, which complements the truth exactly.
    """
    _require(a, part.n, "fuzzy")
    truth = 1.0
    union_args = []
    for i, v in enumerate(a.values):
        if part.mask >> i & 1:
            truth *= v.t
            union_args.append(v.f)
        else:
            truth *= 1.0 - v.t
            union_args.append(v.t)
    return FuzzyValue(truth, inclusion_exclusion(union_args))


def _fuzzy_detail(
    spec: OperatorSpec, part_value: Callable[[Part], FuzzyValue]
) -> tuple[FuzzyValue, str, None]:
    parts = spec.shaded_parts()
    if not parts:
        return FuzzyValue(0.0, 1.0), "empty", None
    if len(parts) == 1:
        return part_value(parts[0]), f"part {parts[0].label()}", None
    labels = "+".join(p.label() for p in parts)
    return fuzzy_disj_disjoint([part_value(p) for p in parts]), f"union {labels}", None


def fuzzy_operator_eval(spec: OperatorSpec, a: Assignment) -> FuzzyValue:
    """Fuzzy value of a shaded operator: the disjoint sum of its parts.

    The empty operator is (0, 1); a single shaded part passes through
    unchanged.
    """
    _require(a, spec.n, "fuzzy")
    value, _, _ = _fuzzy_detail(spec, lambda p: fuzzy_part_value(p, a))
    return value


def neutro_part_value(
    part: Part, a: Assignment, order: PrevalenceOrder = TIF
) -> NeutrosophicValue:
    """Three-component value of one part: the conjunction of the variable
    values, with non-member variables entering through their negation."""
    _require(a, part.n, "neutrosophic")
    operands = [
        v if part.mask >> i & 1 else neutro_neg(v) for i, v in enumerate(a.values)
    ]
    return neutro_conj(operands, order)


def _neutro_detail(
    spec: OperatorSpec,
    a: Assignment,
    part_value: Callable[[Part], NeutrosophicValue],
) -> tuple[NeutrosophicValue, str, float | None]:
    full = spec.full_mask
    if spec.shaded == 0:
        return NeutrosophicValue(0.0, 0.0, 1.0), "empty", None
    if spec.shaded == full:
        return NeutrosophicValue(1.0, 0.0, 0.0), "full", None
    # literal recognition keeps projections and complementations exact even
    # when aggregation would smear indeterminacy
    for i in range(spec.n):
        projection = projection_mask(spec.n, i)
        if spec.shaded == projection:
            return a.values[i], f"projection {a.names[i]}", None
        if spec.shaded == full ^ projection:
            return neutro_neg(a.values[i]), f"complement {a.names[i]}", None
    shaded_parts = spec.shaded_parts()
    other_parts = complement(spec).shaded_parts()
    use_complement = len(other_parts) < len(shaded_parts)
    if len(other_parts) == len(shaded_parts) and shaded_parts[0].mask == 0:
        # tie: prefer the side without the all-negated region
        use_complement = True
    side = other_parts if use_complement else shaded_parts
    tau = None
    if len(side) == 1:
        value = part_value(side[0])
        word = "negated part" if use_complement else "part"
        strategy = f"{word} {side[0].label()}"
    else:
        tau = diagram_norm(a)
        value = neutro_disj_disjoint([part_value(p) for p in side], tau)
        word = "negated union" if use_complement else "union"
        strategy = f"{word} " + "+".join(p.label() for p in side)
    if use_complement:
        value = neutro_neg(value)
    return value, strategy, tau


def neutro_operator_eval(
    spec: OperatorSpec, a: Assignment, order: PrevalenceOrder = TIF
) -> NeutrosophicValue:
    """Three-component value of a shaded operator.

    The empty and full operators are (0,0,1) and (1,0,0).  An operator whose
    shading is exactly the parts inside variable i, or exactly the parts
    outside it, is the literal x_i or its negation and returns that value
    directly.  Anything else aggregates whichever of the shaded set and its
    complement is smaller (on a tie, the side without the all-negated part):
    one part evaluates directly, several parts combine through the disjoint
    disjunction with target norm equal to the product of the variable norms.
    A complement-side result is negated on the way out.
    """
    _require(a, spec.n, "neutrosophic")
    value, _, _ = _neutro_detail(spec, a, lambda p: neutro_part_value(p, a, order))
    return value


def oracle_expand(
    values: Sequence[NeutrosophicValue],
    order: PrevalenceOrder = TIF,
    max_k: int = ORACLE_MAX_K,
) -> NeutrosophicValue:
    """Ground-truth conjunction by enumerating all 3^k component drawings.

    Every drawing contributes the product of its components to the bucket of
    its strongest class.  This shares no code with the subset-composition
    route, so the two must agree to float precision.
    """
    k = len(values)
    if k < 1:
        raise DomainError("oracle needs at least one operand")
    if k > max_k:
        raise OracleTooLarge(f"3^{k} terms exceed the budget of 3^{max_k}")
    choices = [
        ((Component.T, v.T), (Component.I, v.I), (Component.F, v.F)) for v in values
    ]
    buckets = {Component.T: 0.0, Component.I: 0.0, Component.F: 0.0}
    for drawing in itertools.product(*choices):
        term = 1.0
        strongest = drawing[0][0]
        for comp, x in drawing:
            term *= x
            if order.rank(comp) > order.rank(strongest):
                strongest = comp
        buckets[strongest] += term
    return NeutrosophicValue(
        buckets[Component.T], buckets[Component.I], buckets[Component.F]
    )


def _fuzzy_part_oracle(part: Part, a: Assignment) -> FuzzyValue:
    # independent falsehood route: complementary product instead of
    # symmetric sums
    truth = 1.0
    miss = 1.0
    for i, v in enumerate(a.values):
        if part.mask >> i & 1:
            truth *= v.t
            miss *= 1.0 - v.f
        else:
            truth *= 1.0 - v.t
            miss *= 1.0 - v.t
    return FuzzyValue(truth, 1.0 - miss)


def _neutro_part_oracle(part, a, order):
    # the budget covers the whole report, all 2^n expansions of 3^n terms,
    # so the first part refuses before anything is expanded
    if 2 ** part.n * 3 ** part.n > 3 ** ORACLE_MAX_K:
        raise OracleTooLarge(
            f"2^{part.n} parts of 3^{part.n} terms exceed the budget of 3^{ORACLE_MAX_K}"
        )
    operands = [
        v if part.mask >> i & 1 else neutro_neg(v) for i, v in enumerate(a.values)
    ]
    return oracle_expand(operands, order)


@dataclass(frozen=True)
class EvalReport:
    """Everything one operator evaluation produced.

    part_values covers all 2^n parts in ascending mask order, shaded or not.
    partition_residual measures how far the part values drift from the exact
    partition identity: |sum of part truths - 1| for fuzzy assignments, the
    worst |part norm - diagram norm| for three-component ones.  oracle_delta
    is the largest componentwise gap against the brute-force recomputation,
    or None when no cross-check was requested.
    """

    spec: OperatorSpec
    logic: str
    part_values: tuple[tuple[Part, Value], ...]
    aggregate: Value
    strategy: str
    tau: float | None
    partition_residual: float
    oracle_delta: float | None


def _kron(pairs) -> list[float]:
    """All 2^n products of one factor per (off, on) pair, indexed by part
    mask: factor i is on where bit i of the mask is set and off where it is
    not.  Factors multiply in variable order, as in fuzzy_part_value."""
    out = [1.0]
    for off, on in pairs:
        out = [x * off for x in out] + [x * on for x in out]
    return out


def _fuzzy_parts(a: Assignment, order: PrevalenceOrder) -> list[FuzzyValue]:
    """Every part's fuzzy value: the truths of fuzzy_part_value, bit for
    bit, and falsehood 1 - t."""
    truths = _kron((1.0 - v.t, v.t) for v in a.values)
    return [FuzzyValue.from_truth(t) for t in truths]


def _neutro_parts(a: Assignment, order: PrevalenceOrder) -> list[NeutrosophicValue]:
    """Every part's three-component value, as neutro_part_value gives it.

    Under the order a < b < c, a part's conjunction credits bucket a with
    the terms drawn from class a alone, prod(a); bucket b with those drawn
    from a and b that hold a b, prod(a+b) - prod(a); and bucket c with the
    rest, tau - prod(a+b), where tau, the product of the variable norms, is
    the same for every part.  Each product is a Kronecker product over a
    variable's (negated, member) sides.
    """
    def sides(c: Component) -> list[tuple[float, float]]:
        return [(getattr(neutro_neg(v), c.value), getattr(v, c.value)) for v in a.values]

    weak, middle = (sides(c) for c in order.order[:2])
    low = _kron(weak)
    both = _kron((w0 + m0, w1 + m1) for (w0, w1), (m0, m1) in zip(weak, middle))
    tau = diagram_norm(a)
    rank_t, rank_i, rank_f = (order.rank(c) for c in Component)
    values = []
    for x, y in zip(low, both):
        b = (x, y - x, tau - y)
        values.append(NeutrosophicValue(b[rank_t], b[rank_i], b[rank_f]))
    return values


def _delta(x: Value, y: Value) -> float:
    return max(abs(p - q) for p, q in zip(vars(x).values(), vars(y).values()))


def _neutro_residual(a: Assignment, values: Sequence[NeutrosophicValue]) -> float:
    target = diagram_norm(a)
    return max(abs(v.norm() - target) for v in values)


# What evaluate_operator needs from each logic: all part values at once,
# brute-force part value, aggregation route and partition residual.  Public
# functions are looked up by their global names at call time, so rebinding a
# module attribute (as tracing does) still reaches every call.
_LOGICS = {
    "fuzzy": (
        _fuzzy_parts,
        lambda p, a, order: _fuzzy_part_oracle(p, a),
        lambda spec, a, part_value: _fuzzy_detail(spec, part_value),
        lambda a, values: abs(fsum(v.t for v in values) - 1.0),
    ),
    "neutrosophic": (
        _neutro_parts,
        _neutro_part_oracle,
        _neutro_detail,
        _neutro_residual,
    ),
}


def evaluate_operator(
    spec: OperatorSpec,
    a: Assignment,
    order: PrevalenceOrder = TIF,
    with_oracle: bool = False,
) -> EvalReport:
    """Evaluate a shaded operator and report per-part values, the aggregation
    strategy, and optional brute-force cross-check.

    All 2^n part values come from one pass of O(2^n) multiplies: fuzzy
    truths are the Kronecker product of the (1 - t_i, t_i) pairs, and
    three-component values telescope the prevalence buckets out of two such
    products.  fuzzy_part_value and neutro_part_value give the same values
    one part at a time.  with_oracle recomputes every part by brute force,
    independently of both; for three-component values that expands 3^n
    terms per part, and a report whose 2^n * 3^n terms exceed
    3^ORACLE_MAX_K raises OracleTooLarge before expanding any.
    """
    all_parts = tuple(Part(spec.n, p) for p in range(spec.part_count))
    _require(a, spec.n, a.kind)
    all_values, part_oracle, detail, residual = _LOGICS[a.kind]
    values = all_values(a, order)
    aggregate, strategy, tau = detail(spec, a, lambda p: values[p.mask])
    oracle_delta = None
    if with_oracle:
        expected = [part_oracle(p, a, order) for p in all_parts]
        expected_agg, _, _ = detail(spec, a, lambda p: expected[p.mask])
        oracle_delta = max(map(_delta, [aggregate, *values], [expected_agg, *expected]))
    return EvalReport(
        spec=spec,
        logic=a.kind,
        part_values=tuple(zip(all_parts, values)),
        aggregate=aggregate,
        strategy=strategy,
        tau=tau,
        partition_residual=residual(a, values),
        oracle_delta=oracle_delta,
    )


TABLE_GRID = tuple(i / 10 for i in range(11))
TABLE_TOL = 1e-12


@dataclass(frozen=True)
class FuzzyOperatorRow:
    row: int
    index: int
    name: str
    symbol: str
    truth_poly: str


@dataclass(frozen=True)
class NeutroOperatorRow:
    row: int
    index: int
    name: str
    value: NeutrosophicValue
    strategy: str
    tau: float | None


def fuzzy_operator_table() -> tuple[FuzzyOperatorRow, ...]:
    """The catalog of binary operators with their truth polynomials.

    Before emitting anything, every operator's diagram evaluation is checked
    against its polynomial on the 11x11 grid over {0, 0.1, ..., 1}; a
    deviation beyond TABLE_TOL raises VerificationFailure.
    """
    rows = []
    for position, op in enumerate(knuth_registry()):
        for t1 in TABLE_GRID:
            for t2 in TABLE_GRID:
                a = Assignment.fuzzy(("x", "y"), (t1, t2))
                got = fuzzy_operator_eval(op.spec, a).t
                want = op.truth_poly(t1, t2)
                if abs(got - want) > TABLE_TOL:
                    raise VerificationFailure(
                        f"{op.display_name} deviates at ({t1}, {t2}): "
                        f"{got!r} vs {want!r}"
                    )
        rows.append(
            FuzzyOperatorRow(
                row=position,
                index=op.index,
                name=op.display_name,
                symbol=op.symbol,
                truth_poly=op.truth_poly.text,
            )
        )
    return tuple(rows)


def neutro_operator_table(
    a: Assignment, order: PrevalenceOrder = TIF
) -> tuple[NeutroOperatorRow, ...]:
    """Evaluate the whole binary catalog under one assignment, annotating
    each row with the aggregation strategy it took."""
    _require(a, 2, "neutrosophic")
    rows = []
    for position, op in enumerate(knuth_registry()):
        value, strategy, tau = _neutro_detail(
            op.spec, a, lambda p: neutro_part_value(p, a, order)
        )
        rows.append(
            NeutroOperatorRow(
                row=position,
                index=op.index,
                name=op.display_name,
                value=value,
                strategy=strategy,
                tau=tau,
            )
        )
    return tuple(rows)
