"""Unit and property tests for the value algebra."""

import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vennlogic import (
    ITF,
    TFI,
    TIF,
    Component,
    ComponentVector,
    DisjointnessViolation,
    DomainError,
    FuzzyValue,
    LengthMismatch,
    NeutrosophicValue,
    PrevalenceOrder,
    compose,
    fuzzy_conj,
    fuzzy_disj_disjoint,
    fuzzy_neg,
    inclusion_exclusion,
    neutro_conj,
    neutro_disj_disjoint,
    neutro_neg,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
ORDERS = {"TIF": TIF, "ITF": ITF, "TFI": TFI}


def expand_conj(values, order_text):
    """3^k term-enumeration oracle, sharing no code with the library."""
    buckets = {"T": 0.0, "I": 0.0, "F": 0.0}
    for drawing in product("TIF", repeat=len(values)):
        term = 1.0
        for channel, v in zip(drawing, values):
            term *= getattr(v, channel)
        strongest = max(drawing, key=order_text.index)
        buckets[strongest] += term
    return buckets["T"], buckets["I"], buckets["F"]


def random_triple(rng):
    return NeutrosophicValue(rng.random(), rng.random(), rng.random())


class TestFuzzyValue:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            FuzzyValue(0.5, 0.6)
        with pytest.raises(DomainError):
            FuzzyValue(0.3, 0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            FuzzyValue(1.2, -0.2)
        with pytest.raises(DomainError):
            FuzzyValue(-0.1, 1.1)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            FuzzyValue(math.nan, 1.0)
        with pytest.raises(DomainError):
            inclusion_exclusion([0.5, math.nan])

    def test_clamps_float_fuzz(self):
        v = FuzzyValue(1.0 + 1e-12, -1e-12)
        assert v.t == 1.0 and v.f == 0.0

    def test_from_truth(self):
        v = FuzzyValue.from_truth(0.25)
        assert v == FuzzyValue(0.25, 0.75)


class TestFuzzyOps:
    def test_conj_example(self):
        got = fuzzy_conj(FuzzyValue(0.6, 0.4), FuzzyValue(0.3, 0.7))
        assert got.t == pytest.approx(0.18, abs=1e-15)
        assert got.f == pytest.approx(0.82, abs=1e-15)

    def test_conj_corners(self):
        one, zero = FuzzyValue(1.0, 0.0), FuzzyValue(0.0, 1.0)
        assert fuzzy_conj(one, one) == one
        assert fuzzy_conj(one, zero) == zero
        assert fuzzy_conj(zero, zero) == zero

    @given(unit, unit)
    def test_conj_commutative(self, a, b):
        x, y = FuzzyValue.from_truth(a), FuzzyValue.from_truth(b)
        xy, yx = fuzzy_conj(x, y), fuzzy_conj(y, x)
        assert xy.t == pytest.approx(yx.t, abs=1e-12)
        assert xy.f == pytest.approx(yx.f, abs=1e-12)

    @given(unit, unit, unit)
    def test_conj_associative(self, a, b, c):
        x, y, z = (FuzzyValue.from_truth(v) for v in (a, b, c))
        left = fuzzy_conj(fuzzy_conj(x, y), z)
        right = fuzzy_conj(x, fuzzy_conj(y, z))
        assert left.t == pytest.approx(right.t, abs=1e-12)
        assert left.f == pytest.approx(right.f, abs=1e-12)

    @given(unit)
    def test_neg_involutive(self, a):
        x = FuzzyValue.from_truth(a)
        assert fuzzy_neg(x) == FuzzyValue(x.f, x.t)
        assert fuzzy_neg(fuzzy_neg(x)) == x

    def test_disj_example(self):
        got = fuzzy_disj_disjoint([FuzzyValue.from_truth(0.3), FuzzyValue.from_truth(0.4)])
        assert got.t == pytest.approx(0.7, abs=1e-15)
        assert got.f == pytest.approx(0.3, abs=1e-15)

    def test_disj_needs_disjoint_operands(self):
        with pytest.raises(DisjointnessViolation):
            fuzzy_disj_disjoint([FuzzyValue.from_truth(0.6), FuzzyValue.from_truth(0.6)])

    def test_disj_needs_two_operands(self):
        with pytest.raises(DomainError):
            fuzzy_disj_disjoint([FuzzyValue.from_truth(0.6)])

    def test_disj_tolerates_exact_cover(self):
        values = [FuzzyValue.from_truth(t) for t in (0.25, 0.25, 0.5)]
        got = fuzzy_disj_disjoint(values)
        assert got.t == pytest.approx(1.0, abs=1e-12)
        assert got.f == pytest.approx(0.0, abs=1e-12)


class TestInclusionExclusion:
    def test_example(self):
        assert inclusion_exclusion([0.5, 0.5, 0.5]) == pytest.approx(0.875, abs=1e-15)

    def test_single_argument_passthrough(self):
        assert inclusion_exclusion([0.3]) == pytest.approx(0.3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            inclusion_exclusion([])

    @given(st.lists(unit, min_size=1, max_size=7))
    def test_matches_complementary_product(self, args):
        miss = 1.0
        for a in args:
            miss *= 1.0 - a
        assert inclusion_exclusion(args) == pytest.approx(1.0 - miss, abs=1e-12)


class TestCompose:
    def test_two_class_example(self):
        t = ComponentVector(Component.T, (0.5, 0.4))
        i = ComponentVector(Component.I, (0.3, 0.4))
        assert compose([t, i]) == pytest.approx(0.32, abs=1e-12)

    def test_unit_counts_are_surjection_counts(self):
        ones = (1.0, 1.0, 1.0)
        t = ComponentVector(Component.T, ones)
        i = ComponentVector(Component.I, ones)
        f = ComponentVector(Component.F, ones)
        assert compose([t]) == 1.0
        assert compose([t, i]) == 6.0
        assert compose([t, f]) == 6.0
        assert compose([i, f]) == 6.0
        assert compose([t, i, f]) == 6.0

    def test_single_vector_is_plain_product(self):
        v = ComponentVector(Component.F, (0.2, 0.5, 0.3))
        assert compose([v]) == pytest.approx(0.03, abs=1e-15)

    def test_more_classes_than_variables_is_zero(self):
        t = ComponentVector(Component.T, (0.7,))
        i = ComponentVector(Component.I, (0.2,))
        assert compose([t, i]) == 0.0
        f = ComponentVector(Component.F, (0.4, 0.6))
        t2 = ComponentVector(Component.T, (0.7, 0.1))
        i2 = ComponentVector(Component.I, (0.2, 0.9))
        assert compose([t2, i2, f]) == 0.0

    def test_length_mismatch(self):
        t = ComponentVector(Component.T, (0.5, 0.4))
        i = ComponentVector(Component.I, (0.3,))
        with pytest.raises(LengthMismatch):
            compose([t, i])

    def test_duplicate_class_rejected(self):
        t = ComponentVector(Component.T, (0.5,))
        with pytest.raises(DomainError):
            compose([t, t])

    @pytest.mark.parametrize("count", [0, 4])
    def test_one_to_three_vectors(self, count):
        vectors = [ComponentVector(c, (0.5,)) for c in Component]
        with pytest.raises(DomainError, match="^compose takes one to three"):
            compose((vectors * 2)[:count])

    def test_argument_permutation_exact(self):
        rng = random.Random(1701)
        for _ in range(50):
            k = rng.randint(1, 6)
            vectors = [
                ComponentVector(c, tuple(rng.random() for _ in range(k)))
                for c in (Component.T, Component.I, Component.F)
            ]
            results = {compose(list(p)) for p in permutations(vectors)}
            assert len(results) == 1


class TestNeutroConj:
    def test_worked_example_prudent_order(self):
        x = NeutrosophicValue(0.5, 0.3, 0.2)
        y = NeutrosophicValue(0.4, 0.4, 0.2)
        got = neutro_conj([x, y], TIF)
        assert got.T == pytest.approx(0.20, abs=1e-12)
        assert got.I == pytest.approx(0.44, abs=1e-12)
        assert got.F == pytest.approx(0.36, abs=1e-12)

    def test_worked_example_optimistic_order(self):
        x = NeutrosophicValue(0.5, 0.3, 0.2)
        y = NeutrosophicValue(0.4, 0.4, 0.2)
        got = neutro_conj([x, y], ITF)
        assert got.T == pytest.approx(0.52, abs=1e-12)
        assert got.I == pytest.approx(0.12, abs=1e-12)
        assert got.F == pytest.approx(0.36, abs=1e-12)

    def test_matches_expansion_oracle(self):
        rng = random.Random(90125)
        for _ in range(60):
            values = [random_triple(rng) for _ in range(rng.randint(2, 4))]
            for text, order in ORDERS.items():
                got = neutro_conj(values, order)
                want = expand_conj(values, text)
                assert got.T == pytest.approx(want[0], abs=1e-12)
                assert got.I == pytest.approx(want[1], abs=1e-12)
                assert got.F == pytest.approx(want[2], abs=1e-12)

    def test_norm_multiplicative(self):
        rng = random.Random(5150)
        for _ in range(60):
            values = [random_triple(rng) for _ in range(rng.randint(2, 5))]
            target = 1.0
            for v in values:
                target *= v.norm()
            assert neutro_conj(values).norm() == pytest.approx(target, abs=1e-12)

    def test_single_operand_is_identity(self):
        v = NeutrosophicValue(0.2, 0.5, 0.4)
        got = neutro_conj([v])
        assert (got.T, got.I, got.F) == (v.T, v.I, v.F)

    def test_collapses_to_fuzzy_without_indeterminacy(self):
        rng = random.Random(2112)
        for _ in range(40):
            t1, t2 = rng.random(), rng.random()
            got = neutro_conj(
                [NeutrosophicValue(t1, 0.0, 1.0 - t1), NeutrosophicValue(t2, 0.0, 1.0 - t2)]
            )
            want = fuzzy_conj(FuzzyValue.from_truth(t1), FuzzyValue.from_truth(t2))
            assert got.I == 0.0
            assert got.T == pytest.approx(want.t, abs=1e-12)
            assert got.F == pytest.approx(want.f, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            neutro_conj([])


class TestNeutroNeg:
    def test_swaps_outer_channels(self):
        v = NeutrosophicValue(0.5, 0.3, 0.2)
        assert neutro_neg(v) == NeutrosophicValue(0.2, 0.3, 0.5)

    def test_involutive(self):
        rng = random.Random(777)
        for _ in range(30):
            v = random_triple(rng)
            assert neutro_neg(neutro_neg(v)) == v


class TestNeutroDisjDisjoint:
    def test_pair_example(self):
        got = neutro_disj_disjoint(
            [NeutrosophicValue(0.3, 0.2, 0.5), NeutrosophicValue(0.4, 0.1, 0.5)], 1.0
        )
        assert got.T == pytest.approx(0.7, abs=1e-15)
        assert got.I == pytest.approx(0.3 * 0.3 / 1.3, abs=1e-15)
        assert got.F == pytest.approx(1.0 * 0.3 / 1.3, abs=1e-15)

    def test_triple_example(self):
        got = neutro_disj_disjoint(
            [
                NeutrosophicValue(0.2, 0.1, 0.7),
                NeutrosophicValue(0.3, 0.2, 0.5),
                NeutrosophicValue(0.1, 0.1, 0.8),
            ],
            1.0,
        )
        assert got.T == pytest.approx(0.6, abs=1e-15)
        assert got.I == pytest.approx(0.4 * 0.4 / 2.4, abs=1e-15)
        assert got.F == pytest.approx(2.0 * 0.4 / 2.4, abs=1e-15)

    def test_norm_equals_target(self):
        rng = random.Random(8128)
        for _ in range(60):
            k = rng.randint(2, 5)
            raw = [rng.random() + 1e-9 for _ in range(k)]
            squeeze = rng.random()
            values = [
                NeutrosophicValue(squeeze * t / sum(raw), rng.random(), rng.random())
                for t in raw
            ]
            tau = squeeze + 2.0 * rng.random()
            got = neutro_disj_disjoint(values, tau)
            assert got.norm() == pytest.approx(tau, abs=1e-12)

    def test_degenerate_denominator(self):
        got = neutro_disj_disjoint(
            [NeutrosophicValue(0.25, 0.0, 0.0), NeutrosophicValue(0.5, 0.0, 0.0)], 1.0
        )
        assert got == NeutrosophicValue(0.75, 0.0, 0.0)

    def test_truth_mass_over_one_rejected(self):
        values = [NeutrosophicValue(0.7, 0.1, 0.2), NeutrosophicValue(0.6, 0.1, 0.3)]
        with pytest.raises(DisjointnessViolation):
            neutro_disj_disjoint(values, 2.0)

    def test_truth_mass_over_target_rejected(self):
        values = [NeutrosophicValue(0.4, 0.1, 0.2), NeutrosophicValue(0.4, 0.1, 0.3)]
        with pytest.raises(DisjointnessViolation):
            neutro_disj_disjoint(values, 0.5)

    def test_needs_two_operands(self):
        with pytest.raises(DomainError):
            neutro_disj_disjoint([NeutrosophicValue(0.4, 0.1, 0.2)], 1.0)

    def test_non_finite_target_rejected(self):
        values = [NeutrosophicValue(0.2, 0.1, 0.2), NeutrosophicValue(0.3, 0.1, 0.1)]
        for tau in (math.nan, math.inf):
            with pytest.raises(DomainError):
                neutro_disj_disjoint(values, tau)


class TestNeutrosophicValue:
    def test_negative_component_rejected(self):
        with pytest.raises(DomainError):
            NeutrosophicValue(-0.2, 0.1, 0.1)

    def test_non_finite_component_rejected(self):
        for bad in ((math.inf, 0.0, 0.0), (0.1, math.nan, 0.1), (0.1, 0.1, math.inf)):
            with pytest.raises(DomainError):
                NeutrosophicValue(*bad)

    def test_components_above_one_allowed(self):
        v = NeutrosophicValue(0.5, 1.4, 2.3)
        assert v.norm() == pytest.approx(4.2, abs=1e-15)

    def test_norm_ordering_cases(self):
        assert NeutrosophicValue(0.1, 0.1, 0.1).norm() < 1.0
        assert NeutrosophicValue(0.5, 0.3, 0.2).norm() == pytest.approx(1.0)
        assert NeutrosophicValue(0.9, 0.9, 0.9).norm() > 1.0


class TestPrevalenceOrder:
    def test_from_string_round_trip(self):
        for text in ("TIF", "ITF", "TFI", "FIT", "IFT", "FTI"):
            assert str(PrevalenceOrder.from_string(text)) == text

    def test_named_constants(self):
        assert str(TIF) == "TIF"
        assert str(ITF) == "ITF"
        assert str(TFI) == "TFI"

    def test_invalid_rejected(self):
        for text in ("TTF", "TI", "ABC", ""):
            with pytest.raises(DomainError):
                PrevalenceOrder.from_string(text)

    def test_strongest(self):
        assert TIF.strongest([Component.T, Component.F]) is Component.F
        assert ITF.strongest([Component.T, Component.I]) is Component.T
        assert TFI.strongest([Component.I, Component.F]) is Component.I


class TestComponentVector:
    def test_entries_validated(self):
        with pytest.raises(DomainError):
            ComponentVector(Component.T, ())
        with pytest.raises(DomainError):
            ComponentVector(Component.T, (-0.5,))
