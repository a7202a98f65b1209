"""Tests for part valuation, operator evaluation, and the catalog tables."""

import random
import tracemalloc
from itertools import compress, islice, permutations, product, repeat
from math import fsum, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vennlogic import (
    ITF,
    TIF,
    ArityMismatch,
    Assignment,
    Component,
    DisjointnessViolation,
    DomainError,
    EvalReport,
    FuzzyValue,
    NeutrosophicValue,
    OperatorSpec,
    OracleTooLarge,
    Part,
    PrevalenceOrder,
    TFI,
    VennLogicError,
    VerificationFailure,
    compile_expr,
    complement,
    diagram_norm,
    enumerate_parts,
    evaluate_operator,
    fuzzy_operator_eval,
    fuzzy_operator_table,
    fuzzy_part_value,
    knuth_registry,
    neutro_conj,
    neutro_disj_disjoint,
    neutro_neg,
    neutro_operator_eval,
    neutro_operator_table,
    neutro_part_value,
    oracle_expand,
    parse,
)
from vennlogic import cli, evaluate
from vennlogic.evaluate import _neutro_detail
from vennlogic.venn import N_MAX, mask_bits, part_labels, projection_mask

FUZZY_XY = Assignment.fuzzy(("x", "y"), (0.6, 0.3))
NEUTRO_XY = Assignment.neutrosophic(
    ("x", "y"), ((0.5, 0.3, 0.2), (0.4, 0.4, 0.2))
)


ALL_ORDERS = [PrevalenceOrder(p) for p in permutations(Component)]


def _triples(rng, n):
    """n triples with T + I + F uniform on [0.5, 1]."""
    out = []
    for _ in range(n):
        s = rng.uniform(0.5, 1.0)
        lo, hi = sorted((rng.random(), rng.random()))
        out.append((s * lo, s * (hi - lo), s * (1.0 - hi)))
    return out


def _names(n):
    return [f"x{i}" for i in range(n)]


def _close(got, want, tol=1e-12):
    if isinstance(got, FuzzyValue):
        assert got.t == pytest.approx(want[0], abs=tol)
        assert got.f == pytest.approx(want[1], abs=tol)
    else:
        assert got.T == pytest.approx(want[0], abs=tol)
        assert got.I == pytest.approx(want[1], abs=tol)
        assert got.F == pytest.approx(want[2], abs=tol)


def _outcome(f, *args):
    """f(*args), or the class of the package error it raises."""
    try:
        return f(*args)
    except VennLogicError as exc:
        return type(exc)


def _detail_report(detail, spec, a, columns) -> EvalReport:
    """The report of one detail routine's (value, route, side, tau) for spec
    over columns, without the residual or oracle fields."""
    value, route, side, tau = detail(spec, a, columns)
    return EvalReport(spec, a.kind, columns, value, route, side, tau, 0.0, None)


class TestAssignment:
    def test_duplicate_names(self):
        with pytest.raises(ArityMismatch, match="duplicate variable names"):
            Assignment.fuzzy(("x", "x"), (0.5, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(ArityMismatch):
            Assignment(("x", "y"), (FuzzyValue.from_truth(0.5),))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ArityMismatch):
            Assignment(
                ("x", "y"),
                (FuzzyValue.from_truth(0.5), NeutrosophicValue(0.5, 0.3, 0.2)),
            )

    def test_neutrosophic_channel_range_names_variable(self):
        with pytest.raises(DomainError, match="'y'.*I=1.5"):
            Assignment.neutrosophic(("x", "y"), ((0.5, 0.3, 0.2), (0.4, 1.5, 0.2)))

    def test_neutrosophic_triple_count(self):
        for count in (1, 3):
            with pytest.raises(ArityMismatch, match=f"2 variable names but {count} "):
                Assignment.neutrosophic(("x", "y"), ((0.5, 0.3, 0.2),) * count)

    def test_neutrosophic_short_triple_names_variable(self):
        with pytest.raises(ArityMismatch, match="'y'.*T,I,F"):
            Assignment.neutrosophic(("x", "y"), ((0.5, 0.3, 0.2), (0.4, 0.4)))

    def test_fuzzy_takes_truths_and_pairs(self):
        a = Assignment.fuzzy(("x", "y", "z"), (0.6, (0.3, 0.7), [0.25]))
        assert a.values == (
            FuzzyValue(0.6, 0.4), FuzzyValue(0.3, 0.7), FuzzyValue(0.25, 0.75)
        )

    @pytest.mark.parametrize(
        "value, message",
        [
            (1.0000000001, "truth 1.0000000001 outside"),
            (-1e-12, "truth -1e-12 outside"),
            (float("nan"), "truth nan outside"),
            ((1.0000000001, 0.0), "truth 1.0000000001 outside"),
            ((0.5, 1.5), "falsehood 1.5 outside"),
            ((0.5, 0.9), "fuzzy value needs t \\+ f = 1"),
        ],
    )
    def test_fuzzy_range_without_slack_names_variable(self, value, message):
        with pytest.raises(DomainError, match=f"^variable 'y': {message}"):
            Assignment.fuzzy(("x", "y"), (0.5, value))

    def test_fuzzy_component_count_names_variable(self):
        message = "^variable 'y': fuzzy values take t or t,f$"
        with pytest.raises(ArityMismatch, match=message):
            Assignment.fuzzy(("x", "y"), (0.5, (0.5, 0.3, 0.2)))

    def test_counts_before_ranges(self):
        with pytest.raises(ArityMismatch, match="'y'"):
            Assignment.fuzzy(("x", "y"), (1.5, ()))
        with pytest.raises(ArityMismatch, match="'y'"):
            Assignment.neutrosophic(("x", "y"), ((1.5, 0.3, 0.2), 0.4))
        with pytest.raises(ArityMismatch, match="1 variable names but 2 values"):
            Assignment.fuzzy(("x",), (0.5, 7.0))

    def test_kind_and_n(self):
        assert FUZZY_XY.kind == "fuzzy" and FUZZY_XY.n == 2
        assert NEUTRO_XY.kind == "neutrosophic" and NEUTRO_XY.n == 2

    def test_diagram_norm(self):
        assert diagram_norm(NEUTRO_XY) == pytest.approx(1.0, abs=1e-12)
        skew = Assignment(
            ("x", "y"),
            (NeutrosophicValue(0.5, 0.4, 0.3), NeutrosophicValue(0.2, 0.2, 0.2)),
        )
        assert diagram_norm(skew) == pytest.approx(1.2 * 0.6, abs=1e-12)

    def test_diagram_norm_of_a_fuzzy_assignment(self):
        # fuzzy values have no norm, so the wrong kind is named, as
        # neutro_part_value names it
        want = "expected a neutrosophic assignment, got fuzzy"
        with pytest.raises(ArityMismatch, match=want):
            diagram_norm(Assignment.fuzzy(("x", "y"), (0.3, 0.6)))


class TestFuzzyParts:
    def test_known_values(self):
        _close(fuzzy_part_value(Part(2, 0b11), FUZZY_XY), (0.18, 0.82))
        _close(fuzzy_part_value(Part(2, 0b01), FUZZY_XY), (0.42, 0.58))
        _close(fuzzy_part_value(Part(2, 0b10), FUZZY_XY), (0.12, 0.88))
        _close(fuzzy_part_value(Part(2, 0b00), FUZZY_XY), (0.28, 0.72))

    def test_values_stay_normalized(self):
        rng = random.Random(4242)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = Assignment.fuzzy(
                tuple(f"v{i}" for i in range(n)), [rng.random() for _ in range(n)]
            )
            for mask in range(1 << n):
                v = fuzzy_part_value(Part(n, mask), a)
                assert v.t + v.f == pytest.approx(1.0, abs=1e-9)

    def test_partition_of_unity(self):
        rng = random.Random(6006)
        for _ in range(50):
            n = rng.randint(1, 5)
            a = Assignment.fuzzy(
                tuple(f"v{i}" for i in range(n)), [rng.random() for _ in range(n)]
            )
            total = fsum(fuzzy_part_value(Part(n, m), a).t for m in range(1 << n))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_requires_matching_assignment(self):
        with pytest.raises(ArityMismatch):
            fuzzy_part_value(Part(3, 0), FUZZY_XY)
        with pytest.raises(ArityMismatch):
            fuzzy_part_value(Part(2, 0), NEUTRO_XY)


class TestFuzzyOperators:
    def test_empty_and_full(self):
        _close(fuzzy_operator_eval(OperatorSpec(2, 0), FUZZY_XY), (0.0, 1.0))
        _close(fuzzy_operator_eval(OperatorSpec(2, 15), FUZZY_XY), (1.0, 0.0))

    def test_xor_and_or(self):
        _close(fuzzy_operator_eval(OperatorSpec(2, 0b0110), FUZZY_XY), (0.54, 0.46))
        _close(fuzzy_operator_eval(OperatorSpec(2, 0b1110), FUZZY_XY), (0.72, 0.28))

    def test_requires_fuzzy_assignment(self):
        # evaluate_operator takes either kind; the catalog evaluator does not
        with pytest.raises(ArityMismatch, match="expected a fuzzy assignment"):
            fuzzy_operator_eval(OperatorSpec(2, 6), NEUTRO_XY)

    def test_matches_catalog_polynomials(self):
        rng = random.Random(1606)
        for _ in range(25):
            t1, t2 = rng.random(), rng.random()
            a = Assignment.fuzzy(("x", "y"), (t1, t2))
            for op in knuth_registry():
                got = fuzzy_operator_eval(op.spec, a)
                assert got.t == pytest.approx(op.truth_poly(t1, t2), abs=1e-12)


class TestNeutroParts:
    def test_known_values(self):
        _close(neutro_part_value(Part(2, 0b11), NEUTRO_XY), (0.20, 0.44, 0.36))
        _close(neutro_part_value(Part(2, 0b01), NEUTRO_XY), (0.10, 0.38, 0.52))
        _close(neutro_part_value(Part(2, 0b10), NEUTRO_XY), (0.08, 0.32, 0.60))
        _close(neutro_part_value(Part(2, 0b00), NEUTRO_XY), (0.04, 0.26, 0.70))

    def test_matches_conj_of_negated_operands(self):
        v1, v2 = NEUTRO_XY.values
        want = neutro_conj([v1, neutro_neg(v2)])
        got = neutro_part_value(Part(2, 0b01), NEUTRO_XY)
        assert (got.T, got.I, got.F) == (want.T, want.I, want.F)

    def test_order_changes_buckets(self):
        prudent = neutro_part_value(Part(2, 0b11), NEUTRO_XY, TIF)
        optimistic = neutro_part_value(Part(2, 0b11), NEUTRO_XY, ITF)
        _close(optimistic, (0.52, 0.12, 0.36))
        assert prudent != optimistic

    def test_part_norm_equals_diagram_norm(self):
        rng = random.Random(31337)
        for _ in range(50):
            n = rng.randint(1, 4)
            a = Assignment(
                tuple(f"v{i}" for i in range(n)),
                tuple(
                    NeutrosophicValue(rng.random(), rng.random(), rng.random())
                    for _ in range(n)
                ),
            )
            target = diagram_norm(a)
            for mask in range(1 << n):
                got = neutro_part_value(Part(n, mask), a)
                assert got.norm() == pytest.approx(target, abs=1e-12)


EXPECTED_STRATEGIES = {
    0b0000: "empty",
    0b1000: "part 12",
    0b0010: "part 1",
    0b1010: "projection x",
    0b0100: "part 2",
    0b1100: "projection y",
    0b0110: "union 1+2",
    0b1110: "negated part 0",
    0b0001: "part 0",
    0b1001: "negated union 1+2",
    0b0011: "complement y",
    0b1011: "negated part 2",
    0b0101: "complement x",
    0b1101: "negated part 1",
    0b0111: "negated part 12",
    0b1111: "full",
}


class TestNeutroOperators:
    def test_empty_and_full(self):
        _close(neutro_operator_eval(OperatorSpec(2, 0), NEUTRO_XY), (0.0, 0.0, 1.0))
        _close(neutro_operator_eval(OperatorSpec(2, 15), NEUTRO_XY), (1.0, 0.0, 0.0))

    def test_literals_come_back_verbatim(self):
        got = neutro_operator_eval(OperatorSpec(2, 0b1010), NEUTRO_XY)
        assert got == NEUTRO_XY.values[0]
        got = neutro_operator_eval(OperatorSpec(2, 0b0011), NEUTRO_XY)
        assert got == neutro_neg(NEUTRO_XY.values[1])

    def test_conjunction_row(self):
        _close(neutro_operator_eval(OperatorSpec(2, 0b1000), NEUTRO_XY), (0.20, 0.44, 0.36))

    def test_disjunction_goes_through_complement(self):
        _close(neutro_operator_eval(OperatorSpec(2, 0b1110), NEUTRO_XY), (0.70, 0.26, 0.04))

    def test_xor_row_scales_to_target_norm(self):
        got = neutro_operator_eval(OperatorSpec(2, 0b0110), NEUTRO_XY)
        _close(got, (0.18, 0.7 * 0.82 / 1.82, 1.12 * 0.82 / 1.82))
        assert got.norm() == pytest.approx(1.0, abs=1e-12)

    def test_equivalence_is_negated_xor(self):
        xor = neutro_operator_eval(OperatorSpec(2, 0b0110), NEUTRO_XY)
        iff = neutro_operator_eval(OperatorSpec(2, 0b1001), NEUTRO_XY)
        _close(iff, (xor.F, xor.I, xor.T))

    def test_strategy_choices(self):
        for shaded, want in EXPECTED_STRATEGIES.items():
            report = evaluate_operator(OperatorSpec(2, shaded), NEUTRO_XY)
            assert report.strategy == want, f"mask {shaded:04b}"

    def test_requires_neutrosophic_assignment(self):
        with pytest.raises(ArityMismatch):
            neutro_operator_eval(OperatorSpec(2, 6), FUZZY_XY)

    def test_literals_recognized_at_twelve_variables(self):
        # n = 12 uses dotted part labels; a literal must come back exactly,
        # without valuing a single part, whatever its name ends in
        rng = random.Random(4096)
        names = ["part", "union", "apart", "xunion", *(f"x{i}" for i in range(5, 13))]
        a = Assignment.neutrosophic(
            names, [(rng.random(), rng.random(), rng.random()) for _ in names]
        )

        no_parts = None  # reading a column entry would raise TypeError
        for i, name in enumerate(names):
            for text, value, route in (
                (name, a.values[i], f"projection {name}"),
                (f"!{name}", neutro_neg(a.values[i]), f"complement {name}"),
            ):
                spec = compile_expr(parse(text), names)
                assert _neutro_detail(spec, a, no_parts) == (value, route, None, None)
                report = evaluate_operator(spec, a)
                assert (report.aggregate, report.strategy) == (value, route)

    def test_values_only_the_aggregated_side(self):
        # the reference values every part one at a time with
        # neutro_part_value; the truth-mass digits of the telescoped columns
        # may differ in the last bits, so values agree within 1e-12 and a
        # failure raises the same exception class
        def every_part(spec, a, order):
            values = [neutro_part_value(p, a, order) for p in enumerate_parts(spec.n)]
            columns = [[v.T for v in values], [v.I for v in values], [v.F for v in values]]
            return _neutro_detail(spec, a, columns)[0]

        rng = random.Random(2048)
        for n in range(1, 9):
            for order in (TIF, ITF, TFI):
                for _ in range(3):
                    a = Assignment.neutrosophic(_names(n), _triples(rng, n))
                    spec = OperatorSpec(n, rng.getrandbits(1 << n))
                    got = _outcome(neutro_operator_eval, spec, a, order)
                    want = _outcome(every_part, spec, a, order)
                    if isinstance(want, NeutrosophicValue):
                        _close(got, (want.T, want.I, want.F))
                    else:
                        assert got is want, (n, order.order, spec.shaded)

    def test_literal_at_twelve_variables_values_no_part(self, monkeypatch):
        # literals and a conjunction at n = 12 read evaluate_operator's
        # columns; neither values a part with neutro_part_value
        def refuse(*args):
            raise AssertionError("a part valued on its own")

        monkeypatch.setattr(evaluate, "neutro_part_value", refuse)
        names = _names(12)
        a = Assignment.neutrosophic(names, _triples(random.Random(12), 12))
        for text in ("x3", "!x3", "x3 & x7"):
            neutro_operator_eval(compile_expr(parse(text), names), a)


class TestOracle:
    def test_matches_composition_route(self):
        rng = random.Random(24601)
        for _ in range(40):
            k = rng.randint(1, 5)
            values = [
                NeutrosophicValue(rng.random(), rng.random(), rng.random())
                for _ in range(k)
            ]
            for order in (TIF, ITF):
                got = oracle_expand(values, order)
                want = neutro_conj(values, order)
                _close(got, (want.T, want.I, want.F))

    def test_budget(self):
        values = [NeutrosophicValue(0.1, 0.1, 0.1)] * 13
        with pytest.raises(OracleTooLarge):
            oracle_expand(values)
        with pytest.raises(DomainError):
            oracle_expand([])


def _per_drawing_oracle(values, order):
    # reference for oracle_expand: every drawing multiplied out on its own
    # and credited by comparing class ranks, buckets summed in product order
    choices = [
        ((Component.T, v.T), (Component.I, v.I), (Component.F, v.F)) for v in values
    ]
    buckets = {Component.T: 0.0, Component.I: 0.0, Component.F: 0.0}
    for drawing in product(*choices):
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


class TestOracleExpansion:
    """oracle_expand shares drawing prefixes and streams the leading
    operands; its buckets must still match the per-drawing loop bit for
    bit."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_bit_identical_to_per_drawing_loop(self, k):
        rng = random.Random(7000 + k)
        for _ in range(3 if k < 8 else 1):
            values = [
                NeutrosophicValue(rng.random(), rng.random(), rng.random())
                for _ in range(k)
            ]
            for order in ALL_ORDERS:
                got = oracle_expand(values, order)
                want = _per_drawing_oracle(values, order)
                assert [x.hex() for x in (got.T, got.I, got.F)] == [
                    x.hex() for x in (want.T, want.I, want.F)
                ], (k, str(order))

    def test_cached_bucket_maps_across_orders_and_widths(self):
        # orders and tail widths interleave, so a bucket map cached under the
        # wrong key is reused by a call that needs another one; k = 8..10
        # stream a head, which reaches every strongest head rank
        rng = random.Random(7100)
        for k in range(1, 11):
            values = [
                NeutrosophicValue(rng.random(), rng.random(), rng.random())
                for _ in range(k)
            ]
            for order in ALL_ORDERS:
                got = oracle_expand(values, order)
                want = _per_drawing_oracle(values, order)
                assert [x.hex() for x in (got.T, got.I, got.F)] == [
                    x.hex() for x in (want.T, want.I, want.F)
                ], (k, str(order))
        # one map per order and tail width: 6 orders x 7 widths
        assert evaluate._bucket_map.cache_info().currsize <= 42

    @pytest.mark.parametrize("order", ALL_ORDERS, ids=str)
    def test_report_at_budget_edge(self, order):
        # n = 7 is the largest report the 3^12 budget admits, and every part
        # expands the full tail width.  The oracle must not change the
        # outcome: under four of the six orders the chain's part truths sum
        # past 1 (ROADMAP item 3), with or without it
        names = _names(7)
        a = Assignment.neutrosophic(names, [(0.5, 0.3, 0.2)] * 7)
        spec = compile_expr(parse(" ^ ".join(names)), names)

        def outcome(with_oracle):
            try:
                return evaluate_operator(spec, a, order, with_oracle=with_oracle)
            except DisjointnessViolation as exc:
                return str(exc)

        plain, checked = outcome(False), outcome(True)
        if str(order) in ("TIF", "TFI"):
            assert checked.aggregate == plain.aggregate
            assert checked.oracle_delta <= 1e-12
        else:
            assert checked == plain
            assert plain.startswith("truth mass ")

    def test_memory_bounded(self):
        # listing all 3^10 terms peaks at about 3 MB
        values = [NeutrosophicValue(0.5, 0.3, 0.2)] * 10
        tracemalloc.start()
        try:
            oracle_expand(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_call_per_part(self, monkeypatch):
        # the traced benchmark counts calls and 3^k terms through the module
        # global, so the report expands each part once with all n operands
        sizes = []
        expand = evaluate.oracle_expand

        def counting(values, *args, **kwargs):
            sizes.append(len(values))
            return expand(values, *args, **kwargs)

        monkeypatch.setattr(evaluate, "oracle_expand", counting)
        a = Assignment.neutrosophic(_names(6), _triples(random.Random(66), 6))
        spec = compile_expr(parse(" ^ ".join(_names(6))), _names(6))
        report = evaluate_operator(spec, a, with_oracle=True)
        assert sizes == [6] * 64
        assert report.oracle_delta <= 1e-12


class TestEvaluateOperator:
    def test_fuzzy_report(self):
        report = evaluate_operator(OperatorSpec(2, 0b0110), FUZZY_XY, with_oracle=True)
        assert isinstance(report, EvalReport)
        assert report.logic == "fuzzy"
        assert [p.mask for p, _ in report.part_values] == [0, 1, 2, 3]
        _close(report.aggregate, (0.54, 0.46))
        assert report.strategy == "union 1+2"
        assert report.tau is None
        assert report.partition_residual <= 1e-9
        assert report.oracle_delta is not None and report.oracle_delta <= 1e-12

    def test_neutro_report(self):
        report = evaluate_operator(OperatorSpec(2, 0b0110), NEUTRO_XY, with_oracle=True)
        assert report.logic == "neutrosophic"
        assert report.tau == pytest.approx(1.0, abs=1e-12)
        assert report.partition_residual <= 1e-12
        assert report.oracle_delta is not None and report.oracle_delta <= 1e-12

    def test_oracle_skipped_by_default(self):
        report = evaluate_operator(OperatorSpec(2, 0b1000), NEUTRO_XY)
        assert report.oracle_delta is None
        assert report.tau is None


class TestAllParts:
    """evaluate_operator values all parts in one pass; the per-part public
    functions are the reference."""

    def test_fuzzy_matches_part_function(self):
        rng = random.Random(1618)
        for n in range(1, 11):
            a = Assignment.fuzzy(_names(n), [rng.random() for _ in range(n)])
            report = evaluate_operator(OperatorSpec(n, 0), a)
            for part, got in report.part_values:
                assert got.t == fuzzy_part_value(part, a).t, (n, part.mask)
                assert got.f == 1.0 - got.t

    def test_neutro_matches_part_function_in_every_order(self):
        rng = random.Random(1414)
        for n in range(1, 11):
            a = Assignment.neutrosophic(_names(n), _triples(rng, n))
            for order in ALL_ORDERS:
                report = evaluate_operator(OperatorSpec(n, 0), a, order)
                for part, got in report.part_values:
                    want = neutro_part_value(part, a, order)
                    _close(got, (want.T, want.I, want.F))

    @pytest.mark.parametrize("kind", ["fuzzy", "neutrosophic"])
    def test_partition_residual_at_sixteen_variables(self, kind):
        rng = random.Random(16)
        if kind == "fuzzy":
            a = Assignment.fuzzy(_names(16), [rng.random() for _ in range(16)])
        else:
            a = Assignment.neutrosophic(_names(16), _triples(rng, 16))
        report = evaluate_operator(OperatorSpec(16, 0b0110), a, TIF)
        assert len(report.columns[0]) == 1 << 16
        assert report.partition_residual <= 1e-9


class TestOracleBudget:
    def test_eight_variables_refused_before_expanding(self, monkeypatch):
        def expand(*args, **kwargs):
            raise AssertionError("oracle_expand called")

        monkeypatch.setattr(evaluate, "oracle_expand", expand)
        a = Assignment.neutrosophic(_names(8), _triples(random.Random(8), 8))
        with pytest.raises(OracleTooLarge):
            evaluate_operator(OperatorSpec(8, 0b0110), a, with_oracle=True)

    def test_six_variables_still_checked(self):
        a = Assignment.neutrosophic(_names(6), _triples(random.Random(6), 6))
        spec = compile_expr(parse(" ^ ".join(_names(6))), _names(6))
        report = evaluate_operator(spec, a, with_oracle=True)
        assert report.oracle_delta <= 1e-12

    def test_fuzzy_oracle_has_no_budget(self):
        rng = random.Random(88)
        a = Assignment.fuzzy(_names(8), [rng.random() for _ in range(8)])
        report = evaluate_operator(OperatorSpec(8, 0b0110), a, with_oracle=True)
        assert report.oracle_delta <= 1e-12


class TestTables:
    def test_fuzzy_table(self):
        rows = fuzzy_operator_table()
        assert len(rows) == 16
        assert [r.row for r in rows] == list(range(16))
        assert [r.index for r in rows] == [op.index for op in knuth_registry()]
        assert rows[1].name == "Conjunction; and"
        assert rows[6].truth_poly == "t1 + t2 - 2*t1*t2"

    def test_fuzzy_table_grid_check(self, shifted_grid_point):
        with pytest.raises(VerificationFailure, match=r"^Equivalence.*\(0\.3, 0\.7\)"):
            fuzzy_operator_table()

    def test_neutro_table(self):
        rows = neutro_operator_table(NEUTRO_XY)
        assert len(rows) == 16
        by_index = {r.index: r for r in rows}
        _close(by_index[0b1000].value, (0.20, 0.44, 0.36))
        _close(by_index[0b1110].value, (0.70, 0.26, 0.04))
        assert by_index[0b0110].strategy == "union 1+2"
        assert by_index[0b0110].tau == pytest.approx(1.0, abs=1e-12)
        assert by_index[0b1000].tau is None

    def test_neutro_table_requires_binary_neutrosophic(self):
        with pytest.raises(ArityMismatch):
            neutro_operator_table(FUZZY_XY)
        with pytest.raises(ArityMismatch):
            neutro_operator_table(
                Assignment.neutrosophic(("x",), ((0.5, 0.3, 0.2),))
            )


def _boole_fold(bits, weights):
    """The multilinear extension of the truth table bits at the weight pairs
    (w0_k, w1_k) by Boole's expansion, f <- w0_k f|x_k=0 + w1_k f|x_k=1, from
    the last variable down: bit k of p is x_k, so the lower half of the list
    has x_k = 0.  With weights (1 - t_k, t_k) it is the fuzzy truth."""
    f = list(bits)
    for w0, w1 in reversed(weights):
        half = len(f) // 2
        f = [w0 * lo + w1 * hi for lo, hi in zip(f[:half], f[half:])]
    return f[0]


class TestValueColumns:
    """evaluate_operator works on float columns indexed by part mask; Part
    and value objects appear only when part_values is read."""

    @staticmethod
    def _count_parts(monkeypatch):
        built = []
        original = Part.__post_init__

        def counting(self):
            built.append(self.mask)
            original(self)

        monkeypatch.setattr(Part, "__post_init__", counting)
        return built

    @staticmethod
    def _assignment(kind, n, seed):
        rng = random.Random(seed)
        if kind == "fuzzy":
            return Assignment.fuzzy(_names(n), [rng.random() for _ in range(n)])
        return Assignment.neutrosophic(_names(n), _triples(rng, n))

    @pytest.mark.parametrize("kind", ["fuzzy", "neutrosophic"])
    def test_xor_chain_at_twenty_variables(self, kind, monkeypatch):
        a = self._assignment(kind, 20, 20)
        spec = compile_expr(parse(" ^ ".join(_names(20))), _names(20))
        built = self._count_parts(monkeypatch)
        report = evaluate_operator(spec, a)
        assert report.partition_residual <= 1e-9
        assert report.strategy.startswith("union 1+2+3+")
        assert report.strategy.count("+") == (1 << 19) - 1
        catalog = fuzzy_operator_eval if kind == "fuzzy" else neutro_operator_eval
        assert catalog(spec, a) == report.aggregate
        assert built == []

    @pytest.mark.parametrize("kind", ["fuzzy", "neutrosophic"])
    def test_no_part_objects_at_sixteen_variables(self, kind, monkeypatch):
        a = self._assignment(kind, 16, 16)
        spec = OperatorSpec(16, random.Random(61).getrandbits(1 << 16))
        built = self._count_parts(monkeypatch)
        report = evaluate_operator(spec, a)
        assert built == []
        assert [p.mask for p, _ in islice(report.part_values, 3)] == [0, 1, 2]
        assert built == [0, 1, 2]

    def test_fuzzy_aggregate_matches_boole_fold(self):
        # a second O(2^n) route to the aggregate truth, sharing no code with
        # the Kronecker products and fsums: random masks at n = 1..16, and the
        # xor chain and a random mask at N_MAX
        rng = random.Random(4013)
        cases = [(n, rng.getrandbits(1 << n)) for n in range(1, 17)]
        chain = compile_expr(parse(" ^ ".join(_names(N_MAX))), _names(N_MAX))
        cases += [(N_MAX, chain.shaded), (N_MAX, rng.getrandbits(1 << N_MAX))]
        for n, mask in cases:
            ts = [rng.random() for _ in range(n)]
            a = Assignment.fuzzy(_names(n), ts)
            got = evaluate_operator(OperatorSpec(n, mask), a).aggregate.t
            want = _boole_fold(mask_bits(n, mask), [(1 - t, t) for t in ts])
            assert abs(got - want) <= 1e-12, n

    @pytest.mark.parametrize("order", [TIF, ITF, TFI], ids=str)
    def test_neutro_bucket_sums_match_boole_fold(self, order):
        # under the order a < b < c, the fold of a side's bits with the
        # weights (a(not x_k), a(x_k)) is its bucket-a sum, low, and with the
        # weights of a + b it is both; the buckets then sum to low, both - low
        # and |side| * tau - both: a second O(2^n) route to the three sums,
        # sharing no code with the Kronecker products and fsums, at every n
        rng = random.Random(2020)
        for n in [*range(1, 13), 16, N_MAX]:
            triples = []
            for _ in range(n):
                lo, hi = sorted((rng.random(), rng.random()))
                triples.append((lo, hi - lo, 1.0 - hi))
            a = Assignment.neutrosophic(_names(n), triples)
            side = mask_bits(n, rng.getrandbits(1 << n))
            weak, middle = (
                [(getattr(neutro_neg(v), c.value), getattr(v, c.value)) for v in a.values]
                for c in order.order[:2]
            )
            low = _boole_fold(side, weak)
            both = _boole_fold(
                side, [(w0 + m0, w1 + m1) for (w0, w1), (m0, m1) in zip(weak, middle)]
            )
            folds = (low, both - low, sum(side) * diagram_norm(a) - both)
            columns = dict(zip(Component, evaluate._neutro_parts(a, order)))
            for c, got in zip(order.order, folds):
                want = fsum(compress(columns[c], side))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, c)

    def test_single_part_strategy_labels(self):
        # a one-part side is labelled on its own; the label is still the
        # part's entry of part_labels
        rng = random.Random(1220)
        for n in [*range(1, 13), 20]:
            labels = part_labels(n)
            masks = range(1 << n) if n <= 6 else rng.sample(range(1 << n), 6)
            for kind in ("fuzzy", "neutrosophic"):
                a = self._assignment(kind, n, n)
                columns = evaluate_operator(OperatorSpec(n, 0), a).columns
                for p in {0, (1 << n) - 1, *masks}:
                    spec = OperatorSpec(n, 1 << p)
                    if kind == "fuzzy":
                        report = _detail_report(evaluate._fuzzy_detail, spec, a, columns)
                        assert report.strategy == f"part {labels[p]}", (n, p)
                    elif n > 1:  # at n = 1 the complement of a part is a literal
                        spec = complement(spec)
                        report = _detail_report(_neutro_detail, spec, a, columns)
                        assert report.strategy == f"negated part {labels[p]}", (n, p)

    def test_strategy_is_built_when_read(self, monkeypatch):
        # evaluate_operator labels no part: with part_labels refused, the
        # union and negated-union routes evaluate at n = 12, and the text
        # read afterwards is the join of the side's labels
        n = 12
        full = (1 << (1 << n)) - 1
        masks = (0b110, full ^ 0b110, random.Random(1201).getrandbits(1 << n))
        assignments = [self._assignment(kind, n, n) for kind in ("fuzzy", "neutrosophic")]

        def refuse(n):
            raise AssertionError("parts labelled")

        monkeypatch.setattr(evaluate, "part_labels", refuse)
        reports = [
            evaluate_operator(OperatorSpec(n, mask), a)
            for mask in masks for a in assignments
        ]
        with pytest.raises(AssertionError, match="parts labelled"):
            reports[0].strategy
        monkeypatch.undo()
        routes = set()
        for report in reports:
            shaded = report.spec.shaded
            assert report.route is None and report.side in (shaded, full ^ shaded)
            route = "union" if report.side == shaded else "negated union"
            labels = "+".join(compress(part_labels(n), mask_bits(n, report.side)))
            assert report.strategy == f"{route} {labels}"
            routes.add(route)
        assert routes == {"union", "negated union"}

    @staticmethod
    def _side_text(n, mask, route="") -> str:
        """The text of aggregating the parts in mask, labelled one Part at a
        time."""
        labels = [Part(n, p).label() for p in range(1 << n) if mask >> p & 1]
        if not labels:
            return "empty"
        return f"{route}{'part' if len(labels) == 1 else 'union'} {'+'.join(labels)}"

    def test_strategy_text_route_by_route(self):
        rng = random.Random(1612)
        for n in range(1, 13):
            full = (1 << (1 << n)) - 1
            i, p = rng.randrange(n), rng.randrange(1 << n)
            x = projection_mask(n, i)
            cases = [  # shaded, three-component text; fuzzy sums the shading
                (0, "empty"),
                (full, "full"),
                (x, f"projection x{i}"),
                (full ^ x, f"complement x{i}"),
            ]
            if n > 1:  # at n = 1 every part is a literal
                cases += [
                    (1 << p, self._side_text(n, 1 << p)),
                    (full ^ 1 << p, self._side_text(n, 1 << p, "negated ")),
                    (0b110, "union 1+2"),
                    (full ^ 0b110, "negated union 1+2"),
                ]
            fuzzy = self._assignment("fuzzy", n, n)
            neutro = self._assignment("neutrosophic", n, n)
            for shaded, want in cases:
                spec = OperatorSpec(n, shaded)
                got = evaluate_operator(spec, fuzzy).strategy
                assert got == self._side_text(n, shaded), (n, shaded)
                assert evaluate_operator(spec, neutro).strategy == want, (n, shaded)
        # the xor chain shades half the parts, not part 0: both logics sum it
        spec = compile_expr(parse(" ^ ".join(_names(16))), _names(16))
        want = self._side_text(16, spec.shaded)
        for kind in ("fuzzy", "neutrosophic"):
            report = evaluate_operator(spec, self._assignment(kind, 16, 16))
            assert report.strategy == want and want.startswith("union 1+2+3+")

    @pytest.mark.parametrize("n", [14, 17, 20])
    def test_repr_carries_no_labels(self, n):
        # a decimal side mask would pass the int-to-str digit limit from
        # n = 14, and the labels of a union run to millions of characters
        spec = compile_expr(parse(" ^ ".join(_names(n))), _names(n))
        text = repr(evaluate_operator(spec, self._assignment("fuzzy", n, n)))
        assert text.startswith(f"EvalReport(spec={spec!r}, logic='fuzzy', aggregate=")
        assert "route=None, tau=None, partition_residual=" in text
        assert "side" not in text and "+" not in text

    def test_part_values_pairs(self):
        a = self._assignment("neutrosophic", 4, 4)
        report = evaluate_operator(OperatorSpec(4, 0b0110_1001_1001_0110), a, TIF)
        pairs = list(report.part_values)
        assert [part.mask for part, _ in pairs] == list(range(16))
        for part, value in pairs:
            assert part == Part(4, part.mask)
            assert value == NeutrosophicValue(*(c[part.mask] for c in report.columns))
        assert list(report.part_values) == pairs

    def test_compare_hash_repr_build_no_part(self, monkeypatch):
        # the report compares and hashes through its columns and fields, and
        # its repr leaves the columns out: at n = 16 the decimal mask would
        # also pass the int-to-str digit limit
        a = self._assignment("fuzzy", 16, 16)
        spec = compile_expr(parse(" ^ ".join(_names(16))), _names(16))
        report, again = evaluate_operator(spec, a), evaluate_operator(spec, a)
        built = self._count_parts(monkeypatch)
        assert report == again and hash(report) == hash(again)
        text = repr(report)
        assert built == []
        assert text.startswith(f"EvalReport(spec={spec!r}, logic='fuzzy', aggregate=")
        assert "columns" not in text and repr(report.columns[0][0]) not in text

    def test_telescoped_bucket_when_indeterminacy_is_tiny(self):
        # prod(a+b) - prod(a) and tau - prod(a+b) cancel almost everything
        # when I is nine orders below T
        rng = random.Random(12)
        triples = []
        for _ in range(12):
            t = rng.random()
            triples.append((t, 1e-9 * t, rng.random() * (1.0 - t)))
        a = Assignment.neutrosophic(_names(12), triples)
        for order in ALL_ORDERS:
            columns = evaluate_operator(OperatorSpec(12, 0), a, order).columns
            for mask in rng.sample(range(1 << 12), 64):
                want = neutro_part_value(Part(12, mask), a, order)
                got = NeutrosophicValue(*(c[mask] for c in columns))
                _close(got, (want.T, want.I, want.F))

    def test_catalog_paths_value_parts_one_at_a_time(self, monkeypatch):
        # the catalog evaluators and both tables aggregate evaluate_operator's
        # part columns: no part is valued one at a time
        def refuse(*args):
            raise AssertionError("a part valued on its own")

        monkeypatch.setattr(evaluate, "fuzzy_part_value", refuse)
        monkeypatch.setattr(evaluate, "neutro_part_value", refuse)
        for op in knuth_registry():
            fuzzy_operator_eval(op.spec, FUZZY_XY)
            neutro_operator_eval(op.spec, NEUTRO_XY, ITF)
        fuzzy_operator_table()
        neutro_operator_table(NEUTRO_XY)

    def test_column_route_raises_the_public_message(self):
        # the ITF truth mass of a normalized xor chain exceeds 1; summing
        # the columns must fail exactly as neutro_disj_disjoint does
        a = Assignment.neutrosophic(
            ("x", "y", "z"), ((0.5, 0.3, 0.2), (0.4, 0.4, 0.2), (0.6, 0.3, 0.1))
        )
        spec = compile_expr(parse("x ^ y ^ z"), ("x", "y", "z"))
        columns = evaluate_operator(OperatorSpec(3, 0), a, ITF).columns
        side = [NeutrosophicValue(*(c[p] for c in columns)) for p in (1, 2, 4, 7)]
        with pytest.raises(DisjointnessViolation) as public:
            neutro_disj_disjoint(side, diagram_norm(a))
        with pytest.raises(DisjointnessViolation) as route:
            evaluate_operator(spec, a, ITF)
        assert str(route.value) == str(public.value)

    @pytest.mark.parametrize(
        "values, want",
        [
            (((1e200, 0, 0), (1e200, 0, 0)), ("F", "inf", "F", "inf", "I", "nan")),
            (((0, 1e200, 0), (0.5, 1e200, 0.5)), ("I", "inf", "T", "nan", "I", "inf")),
            (((1e300, 1e300, 1e-300), (1e10, 1, 1)), ("F", "inf", "F", "inf", "I", "nan")),
        ],
    )
    def test_overflowing_columns_raise_the_value_error(self, values, want):
        # the first part and component a per-part construction would reject
        a = Assignment(("x", "y"), tuple(NeutrosophicValue(*v) for v in values))
        for k, order in enumerate((TIF, ITF, PrevalenceOrder.from_string("TFI"))):
            channel, got = want[2 * k : 2 * k + 2]
            with pytest.raises(DomainError) as info:
                evaluate_operator(OperatorSpec(2, 0b0110), a, order)
            assert str(info.value) == (
                f"{channel} component must be finite and nonnegative, got {got}"
            )


class TestCatalogRoute:
    """fuzzy_operator_eval, neutro_operator_eval and neutro_operator_table
    aggregate evaluate_operator's part columns; no part is valued on its
    own."""

    # table 2 once printed I = 0.0759468794573 for "and" here, eval 0.0759468794574
    SMALL_TRIPLES = (
        (0.08921459423261346, 0.22969322110468274, 0.1191332977823639),
        (0.12886960661399266, 0.14532853126434028, 0.02991547969024159),
    )

    def test_evaluators_and_table_match_evaluate_operator(self):
        rng = random.Random(909)
        for n in range(1, 9):
            for _ in range(6):
                spec = OperatorSpec(n, rng.getrandbits(1 << n))
                a = Assignment.fuzzy(_names(n), [rng.random() for _ in range(n)])
                want = _outcome(lambda: evaluate_operator(spec, a).aggregate)
                assert _outcome(fuzzy_operator_eval, spec, a) == want
                a = Assignment.neutrosophic(_names(n), _triples(rng, n))
                for order in (TIF, ITF, TFI):
                    want = _outcome(lambda: evaluate_operator(spec, a, order).aggregate)
                    got = _outcome(neutro_operator_eval, spec, a, order)
                    assert got == want, (n, order.order, spec.shaded)
        assignments = [self.SMALL_TRIPLES] + [_triples(rng, 2) for _ in range(30)]
        for triples in assignments:
            a = Assignment.neutrosophic(("x", "y"), triples)
            for order in (TIF, ITF, TFI):
                # the part columns do not depend on the spec
                columns = evaluate_operator(OperatorSpec(2, 0), a, order).columns
                want = _outcome(lambda: [
                    (r.aggregate, r.strategy, r.tau)
                    for r in (
                        _detail_report(_neutro_detail, op.spec, a, columns)
                        for op in knuth_registry()
                    )
                ])
                got = _outcome(lambda: [
                    (row.value, row.strategy, row.tau)
                    for row in neutro_operator_table(a, order)
                ])
                assert got == want, (triples, order.order)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 6: the disjointness precondition fires on the "
        "union route but not on the complement route evaluate_operator takes",
    )
    @pytest.mark.parametrize("order", ALL_ORDERS, ids=str)
    def test_precondition_does_not_depend_on_the_route(self, order):
        # x | y shades parts 1, 2 and 12; evaluate_operator negates part 0,
        # while the disjoint union of the shaded parts has truth mass 3 to 15
        a = Assignment.neutrosophic(("x", "y"), ((1, 1, 1), (1, 1, 1)))
        spec = compile_expr(parse("x | y"), ("x", "y"))
        complement_route = _outcome(lambda: evaluate_operator(spec, a, order).aggregate)
        shaded = [neutro_part_value(p, a, order) for p in spec.shaded_parts()]
        union_route = _outcome(neutro_disj_disjoint, shaded, diagram_norm(a))
        assert _kind(complement_route) is _kind(union_route)


def _kind(outcome):
    """The class of an _outcome: the error class, or the value's type."""
    return outcome if isinstance(outcome, type) else type(outcome)


class TestRoundingBounds:
    """The float columns against exact ones formed in Python ints.

    Every finite float is a dyadic rational, so over one power-of-two
    denominator the inputs are integers and so are their Kronecker products
    and bucket differences.  Each float route rounds once per factor or sum:
    a fuzzy truth takes n roundings for its factors 1 - t_i or t_i and n - 1
    for its products, and a bucket differences products of up to 3n - 1
    roundings; the bounds are Higham's (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3.1) with u = 2^-53.
    """

    @staticmethod
    def _dyadic(xs):
        """Numerators of the floats xs over one denominator 2^e, and e."""
        ratios = [x.as_integer_ratio() for x in xs]
        e = max(d.bit_length() - 1 for _, d in ratios)
        return [m << (e - d.bit_length() + 1) for m, d in ratios], e

    @staticmethod
    def _kron(pairs):
        out = [1]
        for off, on in pairs:
            out = [x * off for x in out] + [x * on for x in out]
        return out

    @staticmethod
    def _first_outside(got, exact, shift, ulps, scale):
        """The first index where |got - exact / 2^shift| exceeds
        ulps * u * scale / 2^shift, compared exactly, or None."""
        for index, (x, want, ref) in enumerate(zip(got, exact, scale)):
            m, d = x.as_integer_ratio()
            k = d.bit_length() - 1
            if abs((m << shift) - (want << k)) << 53 > (ulps * ref) << k:
                return index
        return None

    def test_fuzzy_truths_within_relative_bound(self):
        rng = random.Random(853)
        for n in [*range(1, 13), 16, N_MAX]:
            a = Assignment.fuzzy(_names(n), [rng.random() for _ in range(n)])
            ts, e = self._dyadic([v.t for v in a.values])
            exact = self._kron(((1 << e) - t, t) for t in ts)
            got = evaluate_operator(OperatorSpec(n, 0), a).columns[0]
            assert self._first_outside(got, exact, e * n, 2 * n - 1, exact) is None, n

    @pytest.mark.parametrize("order", [TIF, ITF, TFI], ids=str)
    def test_neutro_buckets_within_absolute_bound(self, order):
        rng = random.Random(str(order))
        for n in [*range(1, 13), 16]:
            a = Assignment.neutrosophic(_names(n), _triples(rng, n))
            nums, e = self._dyadic([x for v in a.values for x in vars(v).values()])
            values = [dict(zip("TIF", nums[3 * i : 3 * i + 3])) for i in range(n)]
            negated = {"T": "F", "I": "I", "F": "T"}
            weak, middle = (
                [(v[negated[c.value]], v[c.value]) for v in values]
                for c in order.order[:2]
            )
            low = self._kron(weak)
            both = self._kron((w0 + m0, w1 + m1) for (w0, w1), (m0, m1) in zip(weak, middle))
            tau = prod(map(sum, (v.values() for v in values)))
            buckets = (low, [b - x for b, x in zip(both, low)], [tau - b for b in both])
            columns = evaluate_operator(OperatorSpec(n, 0), a, order).columns
            for c, got in zip(Component, columns):
                exact = buckets[order.rank(c)]
                index = self._first_outside(got, exact, e * n, 5 * n, repeat(tau))
                assert index is None, (n, c, index)


def _fuzzy_part_oracle(part, a):
    # per-part reference for the fuzzy column oracle: a Part and a
    # FuzzyValue for every part
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


def _reference_oracle(a, order):
    """The brute-force part columns, valued part by part through Part and
    value objects."""
    parts = enumerate_parts(a.n)
    if a.kind == "fuzzy":
        values = [_fuzzy_part_oracle(p, a) for p in parts]
    else:
        values = [
            oracle_expand(
                [v if p.contains(i + 1) else neutro_neg(v) for i, v in enumerate(a.values)],
                order,
            )
            for p in parts
        ]
    return [list(c) for c in zip(*(vars(v).values() for v in values))]


class TestOracleColumns:
    """Both oracle entries of evaluate_operator return float columns indexed
    by part mask; the per-part reference gives the same floats bit for bit,
    and the fuzzy entry builds no Part or value object."""

    @staticmethod
    def _hex(columns):
        return [[x.hex() for x in c] for c in columns]

    @staticmethod
    def _delta(spec, a, order):
        return evaluate_operator(spec, a, order, with_oracle=True).oracle_delta.hex()

    def _check(self, monkeypatch, spec, a, order):
        part_oracle = evaluate._LOGICS[a.kind][1]
        got = self._hex(part_oracle(a, order))
        assert got == self._hex(_reference_oracle(a, order))
        delta = _outcome(self._delta, spec, a, order)
        with monkeypatch.context() as m:
            entry = list(evaluate._LOGICS[a.kind])
            entry[1] = _reference_oracle
            m.setitem(evaluate._LOGICS, a.kind, tuple(entry))
            assert _outcome(self._delta, spec, a, order) == delta

    def test_fuzzy_columns_match_the_part_oracle(self, monkeypatch):
        rng = random.Random(1112)
        for n in range(1, 13):
            for _ in range(3):
                spec = OperatorSpec(n, rng.getrandbits(1 << n))
                truths = [rng.random() for _ in range(n)]
                self._check(monkeypatch, spec, Assignment.fuzzy(_names(n), truths), TIF)
                # explicit (t, f) pairs a little off t + f = 1 set the miss
                # products apart from the truths
                pairs = [FuzzyValue(t, 1.0 - t + rng.uniform(-1e-11, 1e-11)) for t in truths]
                self._check(monkeypatch, spec, Assignment(tuple(_names(n)), tuple(pairs)), TIF)

    def test_neutro_columns_match_the_part_oracle(self, monkeypatch):
        rng = random.Random(1113)
        for n in range(1, 8):
            for order in (TIF, ITF, TFI):
                spec = OperatorSpec(n, rng.getrandbits(1 << n))
                a = Assignment.neutrosophic(_names(n), _triples(rng, n))
                self._check(monkeypatch, spec, a, order)

    def test_fuzzy_drift_raises_the_first_parts_error(self):
        # pairs 0.9e-9 off t + f = 1 pass one at a time, but twelve of them
        # push a part's truth and falsehood past the value type's tolerance
        names = _names(12)
        a = Assignment(names, [FuzzyValue(0.999, 1 - 0.999 - 0.9e-9)] * 12)
        with pytest.raises(DomainError) as want:
            _reference_oracle(a, TIF)
        with pytest.raises(DomainError) as got:
            evaluate_operator(OperatorSpec(12, 0b0110), a, with_oracle=True)
        assert str(got.value) == str(want.value)

    def test_oracle_builds_no_part(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("a Part was built")

        monkeypatch.setattr(Part, "__post_init__", refuse)
        rng = random.Random(1716)
        for kind, n in (("fuzzy", 16), ("neutrosophic", 7)):
            if kind == "fuzzy":
                a = Assignment.fuzzy(_names(n), [rng.random() for _ in range(n)])
            else:
                a = Assignment.neutrosophic(_names(n), _triples(rng, n))
            spec = compile_expr(parse(" ^ ".join(_names(n))), _names(n))
            report = evaluate_operator(spec, a, with_oracle=True)
            assert report.oracle_delta <= 1e-12, kind
        assign = ";".join(f"{name}={rng.random()}" for name in _names(12))
        for fmt in ("json", "csv", "markdown"):
            argv = ["eval", "-e", " ^ ".join(_names(12)), "-a", assign, "--oracle"]
            rc = cli.main([*argv, "--format", fmt])
            assert (rc, capsys.readouterr().err) == (0, ""), fmt


# The ten connectives as the truth values at (a, b) = (0, 0), (0, 1), (1, 0)
# and (1, 1), each with one spelling, written out here rather than read from
# the parser's table.
READ_ONCE_CONNECTIVES = {
    "&": (0, 0, 0, 1),
    "|": (0, 1, 1, 1),
    "^": (0, 1, 1, 0),
    "->": (1, 1, 0, 1),
    "<-": (1, 0, 1, 1),
    "<->": (1, 0, 0, 1),
    "nand": (1, 1, 1, 0),
    "nor": (1, 0, 0, 0),
    "!->": (0, 0, 1, 0),
    "!<-": (0, 1, 0, 0),
}


@st.composite
def read_once_formulas(draw, sizes):
    """A formula over x0 .. x(n-1) that reads every variable once, its text
    fully parenthesized, with the truth of each variable and the formula's
    own truth.  The variables are independent, so a connective's truth is
    the sum over its table's true rows of the operands' truths (or their
    complements) multiplied; a negation complements it."""
    n = draw(st.sampled_from(sizes))
    leaves = draw(st.permutations(range(n)))
    truths = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))

    def build(lo, hi):
        if hi - lo == 1:
            text, p = f"x{leaves[lo]}", truths[leaves[lo]]
        else:
            cut = draw(st.integers(lo + 1, hi - 1))
            op = draw(st.sampled_from(sorted(READ_ONCE_CONNECTIVES)))
            (left, a), (right, b) = build(lo, cut), build(cut, hi)
            table = READ_ONCE_CONNECTIVES[op]
            p = sum(
                table[2 * i + j] * (a if i else 1 - a) * (b if j else 1 - b)
                for i in (0, 1)
                for j in (0, 1)
            )
            text = f"({left} {op} {right})"
        return (f"!{text}", 1 - p) if draw(st.booleans()) else (text, p)

    text, truth = build(0, n)
    return [f"x{i}" for i in range(n)], truths, text, truth


def _check_read_once(case):
    names, truths, text, truth = case
    spec = compile_expr(parse(text), names)
    report = evaluate_operator(spec, Assignment.fuzzy(names, truths))
    assert abs(report.aggregate.t - truth) <= 1e-12, text


class TestReadOnceOracle:
    # a read-once formula's fuzzy truth, found by recursion over its own tree,
    # against the shaded-mask evaluation
    @settings(max_examples=60, deadline=None)
    @given(read_once_formulas(range(1, 13)))
    def test_up_to_twelve(self, case):
        _check_read_once(case)

    # 0.3 to 0.4 s per formula at n = 20
    @settings(max_examples=4, deadline=None)
    @given(read_once_formulas((16, 20)))
    def test_sixteen_and_twenty(self, case):
        _check_read_once(case)
