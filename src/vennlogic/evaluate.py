"""Valuation of diagram parts and shaded operators under fuzzy and
three-component assignments, plus catalog tables and the brute-force
expansion oracle."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache
from itertools import compress, product, repeat
from math import fsum, isfinite, prod
from operator import add, sub

from .errors import ArityMismatch, DomainError, OracleTooLarge, VerificationFailure
from .logic_core import (
    EPS_NORM,
    TIF,
    Component,
    FuzzyValue,
    NeutrosophicValue,
    PrevalenceOrder,
    _fuzzy_disj_sums,
    _neutro_disj_sums,
    inclusion_exclusion,
    neutro_conj,
    neutro_neg,
)
from .venn import (
    Columns,
    OperatorSpec,
    Part,
    knuth_registry,
    mask_bits,
    part_labels,
    projection_mask,
)
from .record import Record

Value = FuzzyValue | NeutrosophicValue
_KINDS = (frozenset({FuzzyValue}), frozenset({NeutrosophicValue}))

ORACLE_MAX_K = 12
_ORACLE_TAIL = 7  # operands oracle_expand expands as lists


class Assignment(Record):
    """Ordered variable values, all fuzzy or all three-component."""

    def __init__(self, names: Sequence[str], values: Sequence[Value]):
        names, values = tuple(names), tuple(values)
        _check_names(names, len(values))
        if set(map(type, values)) not in _KINDS:
            raise ArityMismatch("assignment values must be all fuzzy or all neutrosophic")
        vars(self).update(names=names, values=values)

    @property
    def kind(self) -> str:
        return "fuzzy" if isinstance(self.values[0], FuzzyValue) else "neutrosophic"

    @property
    def n(self) -> int:
        return len(self.names)

    @classmethod
    def fuzzy(cls, names: Sequence[str], values) -> "Assignment":
        """Fuzzy values, each a truth t or a (t, f) pair: every component in
        [0, 1], with no slack, and a pair within 1e-9 of t + f = 1.  A pair is
        checked, then kept as its truth, FuzzyValue(t, 1 - t), as a bare t is."""
        names, labels = tuple(names), ("truth ", "falsehood ")
        rows = _unit_rows(names, values, {1, 2}, "fuzzy values take t or t,f", labels)
        pairs = []
        try:
            for row in rows:
                if len(row) == 2:
                    FuzzyValue(*row)
                t = row[0]
                pairs.append(FuzzyValue(t, 1.0 - t))
        except DomainError as exc:
            raise DomainError(f"variable {names[len(pairs)]!r}: {exc}") from None
        return cls(names, pairs)

    @classmethod
    def neutrosophic(cls, names, triples) -> "Assignment":
        """Three-component values, each a (T, I, F) triple with every component
        in [0, 1], with no slack."""
        names, labels = tuple(names), ("T=", "I=", "F=")
        rows = _unit_rows(names, triples, {3}, "neutrosophic values need T,I,F", labels)
        return cls(names, tuple(NeutrosophicValue(*t) for t in rows))


def _check_names(names: tuple, count: int) -> None:
    """The usage faults of a name list given count values."""
    if not names:
        raise ArityMismatch("assignment needs at least one variable")
    if len(set(names)) != len(names):
        raise ArityMismatch("duplicate variable names in assignment")
    if count != len(names):
        raise ArityMismatch(f"{len(names)} variable names but {count} values")


def _unit_rows(names, values, counts, usage, labels) -> list[tuple]:
    """Each value's components as a tuple.  Faults: names, then counts, then
    ranges."""
    rows = [tuple(v) if hasattr(v, "__iter__") else (v,) for v in values]
    _check_names(names, len(rows))
    if not counts.issuperset(map(len, rows)):
        name = next(n for n, row in zip(names, rows) if len(row) not in counts)
        raise ArityMismatch(f"variable {name!r}: {usage}")
    for name, row in zip(names, rows):
        for x in row:
            if not 0.0 <= x <= 1.0:
                label = labels[row.index(x)]  # the components before x are in range
                raise DomainError(f"variable {name!r}: {label}{x!r} outside [0, 1]")
    return rows


def diagram_norm(a: Assignment) -> float:
    """Product of the variable norms; the target norm for aggregation.  A
    fuzzy assignment raises ArityMismatch: its values have no norm."""
    if a.kind != "neutrosophic":
        raise ArityMismatch(f"expected a neutrosophic assignment, got {a.kind}")
    return prod(v.norm() for v in a.values)


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


_FUZZY_EMPTY = FuzzyValue(0.0, 1.0)
_NEUTRO_EMPTY = NeutrosophicValue(0.0, 0.0, 1.0)


def _side_detail(n: int, side: int, columns: Columns, empty, make, disjoin, *args):
    """Value and strategy of the parts set in side: no part gives the
    logic's empty value, one part make(*its column entries), several
    disjoin(count, *column fsums, *args).  Only the column entries of those
    parts are read, and only a union labels every part."""
    if side == 0:
        return empty, "empty"
    if side & (side - 1) == 0:
        p = side.bit_length() - 1
        return make(*(c[p] for c in columns)), f"part {Part(n, p).label()}"
    bits = mask_bits(n, side)
    labels = "+".join(compress(part_labels(n), bits))
    sums = (fsum(compress(c, bits)) for c in columns)
    return disjoin(side.bit_count(), *sums, *args), f"union {labels}"


def _fuzzy_detail(
    spec: OperatorSpec, a: Assignment, columns: Columns
) -> tuple[FuzzyValue, str, None]:
    return *_side_detail(
        spec.n, spec.shaded, columns, _FUZZY_EMPTY, FuzzyValue, _fuzzy_disj_sums
    ), None


def fuzzy_operator_eval(spec: OperatorSpec, a: Assignment) -> FuzzyValue:
    """Fuzzy value of a shaded operator: the aggregate of evaluate_operator,
    the disjoint sum of its shaded parts.

    The empty operator is (0, 1); a single shaded part passes through
    unchanged.
    """
    _require(a, spec.n, "fuzzy")
    return evaluate_operator(spec, a).aggregate


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
    spec: OperatorSpec, a: Assignment, columns: Columns
) -> tuple[NeutrosophicValue, str, float | None]:
    full = spec.full_mask
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
    count = spec.shaded.bit_count()
    # on a tie, prefer the side without the all-negated part 0
    use_complement = 2 * count > spec.part_count or (
        2 * count == spec.part_count and spec.shaded & 1
    )
    side = full ^ spec.shaded if use_complement else spec.shaded
    tau = None if side & (side - 1) == 0 else diagram_norm(a)
    value, strategy = _side_detail(
        spec.n, side, columns, _NEUTRO_EMPTY, NeutrosophicValue, _neutro_disj_sums, tau
    )
    if use_complement:
        return neutro_neg(value), f"negated {strategy}", tau
    return value, strategy, tau


def neutro_operator_eval(
    spec: OperatorSpec, a: Assignment, order: PrevalenceOrder = TIF
) -> NeutrosophicValue:
    """Three-component value of a shaded operator: the aggregate of
    evaluate_operator.

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
    return evaluate_operator(spec, a, order).aggregate


def oracle_expand(
    values: Sequence[NeutrosophicValue],
    order: PrevalenceOrder = TIF,
) -> NeutrosophicValue:
    """Ground-truth conjunction by enumerating all 3^k component drawings.

    Every drawing contributes the product of its components to the bucket of
    its strongest class.  This shares no code with the subset-composition
    route, so the two must agree to float precision.

    Drawings share their prefixes.  The leading operands (all but the last
    seven) stream through itertools.product; of the last (up to) seven, all
    but the final one expand as lists, each level extending the products of
    the level before, so memory stays at 3^6 terms for any k.  The final
    operand is folded in per listed term: its T, I and F products go straight
    to their three buckets, which _bucket_map holds ready for every strongest
    class of the drawing so far.  Each term is still formed left to right
    from 1.0 and added to its bucket with a plain += in itertools.product
    order, so every bucket is bit-identical to multiplying out and adding
    each drawing on its own.
    """
    k = len(values)
    if k < 1:
        raise DomainError("oracle needs at least one operand")
    if k > ORACLE_MAX_K:
        raise OracleTooLarge(f"3^{k} terms exceed the budget of 3^{ORACLE_MAX_K}")
    ranks = tuple(order.rank(c) for c in Component)
    head, tail = values[:-_ORACLE_TAIL], values[-_ORACLE_TAIL:]
    *body, last = tail
    lT, lI, lF = last.T, last.I, last.F
    bucket_map = _bucket_map(ranks, len(tail))
    buckets = [0.0, 0.0, 0.0]  # indexed by rank
    for drawing in product(*(tuple(zip((v.T, v.I, v.F), ranks)) for v in head)):
        term = 1.0
        strongest = -1
        for x, r in drawing:
            term *= x
            if r > strongest:
                strongest = r
        terms = [term]
        for v in body:
            xs = (v.T, v.I, v.F)
            terms = [t * x for t in terms for x in xs]
        for t, (bT, bI, bF) in zip(terms, bucket_map[strongest + 1]):
            buckets[bT] += t * lT
            buckets[bI] += t * lI
            buckets[bF] += t * lF
    return NeutrosophicValue(*(buckets[r] for r in ranks))


@cache
def _bucket_map(ranks: tuple[int, int, int], width: int) -> tuple[tuple, ...]:
    """For the ranks of T, I, F and a tail of width operands: entry s + 1,
    for each strongest head rank s (-1 without a head), lists the buckets of
    the final operand's T, I and F drawings after each of the 3^(width - 1)
    leading tail drawings, in product order.  Only four bucket triples
    exist, one per strongest rank before the final operand, and every entry
    holds references to them.  Orders have six rank tuples and tails seven
    widths, so the cache holds at most 42 maps."""
    triples = [tuple(r if r > m else m for r in ranks) for m in (-1, 0, 1, 2)]
    strongest = [-1]  # of every leading tail drawing, in product order
    for _ in range(width - 1):
        strongest = [r if r > q else q for r in strongest for q in ranks]
    return tuple(
        tuple(triples[(r if r > s else s) + 1] for r in strongest)
        for s in (-1, 0, 1, 2)
    )


def _fuzzy_oracle(a: Assignment, order: PrevalenceOrder) -> list[list[float]]:
    """Columns t and f of every part by brute force: each part multiplies
    its own n factors in variable order, t_i or 1 - t_i for its truth (bit
    for bit fuzzy_part_value's) and 1 - f_i or 1 - t_i for its miss, whose
    complement is its falsehood.  The columns get the value type's check."""
    def products(pairs) -> list[float]:
        # itertools.product varies its last operand fastest, so over the
        # reversed pairs it draws the factors of masks 0, 1, 2, ... in turn
        return [prod(reversed(factors)) for factors in product(*reversed(pairs))]

    t = products([(1.0 - v.t, v.t) for v in a.values])
    misses = products([(1.0 - v.t, 1.0 - v.f) for v in a.values])
    f = list(map(sub, repeat(1.0), misses))
    if max(map(abs, map(sub, map(add, t, f), repeat(1.0)))) > EPS_NORM:
        # raise the value type's error for the first part it would reject
        for value in zip(t, f):
            FuzzyValue(*value)
    return [t, f]


def _neutro_oracle(a: Assignment, order: PrevalenceOrder) -> list[list[float]]:
    """Columns T, I, F of every part by brute force: oracle_expand of its n
    operands, non-member variables negated."""
    # the budget covers the whole report, all 2^n expansions of 3^n terms,
    # so it refuses before anything is expanded
    n = len(a.values)
    if 2 ** n * 3 ** n > 3 ** ORACLE_MAX_K:
        raise OracleTooLarge(
            f"2^{n} parts of 3^{n} terms exceed the budget of 3^{ORACLE_MAX_K}"
        )
    sides = [(neutro_neg(v), v) for v in a.values]
    parts = [
        oracle_expand([side[mask >> i & 1] for i, side in enumerate(sides)], order)
        for mask in range(1 << n)
    ]
    return [list(c) for c in zip(*((v.T, v.I, v.F) for v in parts))]


class EvalReport(Record):
    """Everything one operator evaluation produced.

    columns holds every part's value, shaded or not, as one float list per
    field of the aggregate's type (t, f or T, I, F), each indexed by part
    mask; it takes part in ==, but not in hash or repr.  partition_residual
    measures how far the part values drift from the exact partition
    identity: |sum of part truths - 1| for fuzzy assignments, the worst
    |part norm - diagram norm| for three-component ones.  oracle_delta is the
    largest componentwise gap against the brute-force recomputation, or None
    when no cross-check was requested.
    """

    _eq_only = frozenset({"columns"})

    def __init__(
        self, spec: OperatorSpec, logic: str, columns: Columns, aggregate: Value,
        strategy: str, tau: float | None, partition_residual: float,
        oracle_delta: float | None,
    ):
        vars(self).update(
            spec=spec, logic=logic, columns=columns, aggregate=aggregate,
            strategy=strategy, tau=tau, partition_residual=partition_residual,
            oracle_delta=oracle_delta,
        )

    @property
    def part_values(self):
        """A fresh iterator over the (Part, value) pairs of all 2^n parts in
        ascending mask order, built from the columns as it is drawn.  It is
        kept for bench/run.py's from_objects, its one reader; ROADMAP item 1
        moves that reader to the columns and retires it."""
        n = self.spec.n
        parts = map(Part, repeat(n), range(1 << n))
        return zip(parts, map(type(self.aggregate), *self.columns))


def _kron(pairs) -> list[float]:
    """All 2^n products of one factor per (off, on) pair, indexed by part
    mask: factor i is on where bit i of the mask is set and off where it is
    not.  Factors multiply in variable order, as in fuzzy_part_value."""
    out = [1.0]
    for off, on in pairs:
        out = [x * off for x in out] + [x * on for x in out]
    return out


def _fuzzy_parts(a: Assignment, order: PrevalenceOrder) -> list[list[float]]:
    """Every part's fuzzy value as the columns t and f: the truths of
    fuzzy_part_value, bit for bit, and falsehood 1 - t."""
    truths = _kron((1.0 - v.t, v.t) for v in a.values)
    return [truths, list(map(sub, repeat(1.0), truths))]


def _neutro_parts(a: Assignment, order: PrevalenceOrder) -> list[list[float]]:
    """Columns T, I, F of every part's value, as neutro_part_value gives it.

    Under the order a < b < c, a part's conjunction credits bucket a with
    the terms drawn from class a alone, prod(a); bucket b with those drawn
    from a and b that hold a b, prod(a+b) - prod(a); and bucket c with the
    rest, tau - prod(a+b), where tau, the product of the variable norms, is
    the same for every part.  Each product is a Kronecker product over a
    variable's (negated, member) sides.  The differences get the value
    type's check and clamp: rounding just below zero becomes 0.
    """
    def sides(c: Component) -> list[tuple[float, float]]:
        return [(getattr(neutro_neg(v), c.value), getattr(v, c.value)) for v in a.values]

    weak, middle = (sides(c) for c in order.order[:2])
    low = _kron(weak)
    both = _kron((w0 + m0, w1 + m1) for (w0, w1), (m0, m1) in zip(weak, middle))
    tau = diagram_norm(a)
    buckets = (low, list(map(sub, both, low)), list(map(sub, repeat(tau), both)))
    columns = [buckets[order.rank(c)] for c in Component]
    if not all(-EPS_NORM <= min(c) and isfinite(sum(c)) for c in columns):
        # raise the value type's error for the first part and component a
        # per-part construction would reject
        for value in zip(*columns):
            NeutrosophicValue(*value)
    return [[max(0.0, x) for x in c] if min(c) < 0.0 else c for c in columns]


def _delta(x: Iterable[float], y: Iterable[float]) -> float:
    return max(map(abs, map(sub, x, y)))


def _neutro_residual(a: Assignment, columns: Columns) -> float:
    t, i, f = columns
    norms = map(add, map(add, t, i), f)
    return max(map(abs, map(sub, norms, repeat(diagram_norm(a)))))


def _fuzzy_residual(a: Assignment, columns: Columns) -> float:
    return abs(fsum(columns[0]) - 1.0)


# What evaluate_operator needs from each logic: all part value columns,
# the same columns by brute force, aggregation route and partition residual.
_LOGICS = {
    "fuzzy": (_fuzzy_parts, _fuzzy_oracle, _fuzzy_detail, _fuzzy_residual),
    "neutrosophic": (
        _neutro_parts, _neutro_oracle, _neutro_detail, _neutro_residual
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

    All 2^n part values come from O(2^n) multiplies into float columns
    indexed by part mask: fuzzy truths are the Kronecker product of the
    (1 - t_i, t_i) pairs, and three-component values telescope the
    prevalence buckets out of two such products.  Aggregation sums column
    entries; no Part or value object is built per part.  with_oracle
    recomputes every part by brute force, independently of both, into the
    same kind of columns and compares them entry by entry.  Fuzzy parts each
    multiply their own n factors, with no Part or value object either: the
    n = 20 xor chain takes 2.4 s with the oracle instead of 14.7 s through
    per-part objects, on a 2-core host.  Three-component parts each expand
    3^n terms through oracle_expand, and a report whose 2^n * 3^n terms
    exceed 3^ORACLE_MAX_K raises OracleTooLarge before expanding any.
    """
    _require(a, spec.n, a.kind)
    part_columns, part_oracle, detail, residual = _LOGICS[a.kind]
    columns = part_columns(a, order)
    aggregate, strategy, tau = detail(spec, a, columns)
    oracle_delta = None
    if with_oracle:
        expected = part_oracle(a, order)
        got = [vars(aggregate).values(), *columns]
        want = [vars(detail(spec, a, expected)[0]).values(), *expected]
        oracle_delta = max(map(_delta, got, want))
    return EvalReport(
        spec=spec,
        logic=a.kind,
        columns=columns,
        aggregate=aggregate,
        strategy=strategy,
        tau=tau,
        partition_residual=residual(a, columns),
        oracle_delta=oracle_delta,
    )


TABLE_GRID = tuple(i / 10 for i in range(11))
TABLE_TOL = 1e-12


class FuzzyOperatorRow(Record):
    def __init__(self, row: int, index: int, name: str, symbol: str, truth_poly: str):
        vars(self).update(
            row=row, index=index, name=name, symbol=symbol, truth_poly=truth_poly
        )


class NeutroOperatorRow(Record):
    def __init__(
        self, row: int, index: int, name: str, value: NeutrosophicValue,
        strategy: str, tau: float | None,
    ):
        vars(self).update(
            row=row, index=index, name=name, value=value, strategy=strategy, tau=tau
        )


def fuzzy_operator_table() -> tuple[FuzzyOperatorRow, ...]:
    """The catalog of binary operators with their truth polynomials.

    Before emitting anything, every operator's diagram evaluation is checked
    against its mask's Moebius-derived polynomial on the 11x11 grid over
    {0, 0.1, ..., 1}; a deviation beyond TABLE_TOL raises VerificationFailure.
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
    """Evaluate the whole binary catalog under one assignment: each row is
    the aggregate, strategy and tau of one evaluate_operator call."""
    _require(a, 2, "neutrosophic")
    rows = []
    for position, op in enumerate(knuth_registry()):
        report = evaluate_operator(op.spec, a, order)
        rows.append(
            NeutroOperatorRow(
                row=position, index=op.index, name=op.display_name,
                value=report.aggregate, strategy=report.strategy, tau=report.tau,
            )
        )
    return tuple(rows)
