"""Tests for diagram parts, operator specs, and the binary operator catalog."""

import random
import time
from itertools import combinations, compress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vennlogic import (
    ArityMismatch,
    Assignment,
    DomainError,
    LengthMismatch,
    N_MAX,
    OperatorSpec,
    Part,
    TooManyVariables,
    TruthPolynomial,
    complement,
    enumerate_parts,
    evaluate_operator,
    knuth_registry,
    operator_from_truth_table,
)
from vennlogic.venn import mask_bits, part_labels, projection_mask

# Classical two-variable connectives in the catalog's row order.  Kept as
# plain lambdas so the check shares nothing with the library tables.
ROW_FUNCS = (
    lambda x, y: False,
    lambda x, y: x and y,
    lambda x, y: x and not y,
    lambda x, y: x,
    lambda x, y: (not x) and y,
    lambda x, y: y,
    lambda x, y: x != y,
    lambda x, y: x or y,
    lambda x, y: not (x or y),
    lambda x, y: x == y,
    lambda x, y: not y,
    lambda x, y: x or not y,
    lambda x, y: not x,
    lambda x, y: (not x) or y,
    lambda x, y: not (x and y),
    lambda x, y: True,
)

# The catalog's truth polynomials as the classical tables print them, in row
# order: (c0, c1, c2, c12) of c0 + c1*t1 + c2*t2 + c12*t1*t2, and the text.
TRANSCRIBED = (
    ((0, 0, 0, 0), "0"),
    ((0, 0, 0, 1), "t1*t2"),
    ((0, 1, 0, -1), "t1 - t1*t2"),
    ((0, 1, 0, 0), "t1"),
    ((0, 0, 1, -1), "t2 - t1*t2"),
    ((0, 0, 1, 0), "t2"),
    ((0, 1, 1, -2), "t1 + t2 - 2*t1*t2"),
    ((0, 1, 1, -1), "t1 + t2 - t1*t2"),
    ((1, -1, -1, 1), "1 - t1 - t2 + t1*t2"),
    ((1, -1, -1, 2), "1 - t1 - t2 + 2*t1*t2"),
    ((1, 0, -1, 0), "1 - t2"),
    ((1, 0, -1, 1), "1 - t2 + t1*t2"),
    ((1, -1, 0, 0), "1 - t1"),
    ((1, -1, 0, 1), "1 - t1 + t1*t2"),
    ((1, 0, 0, -1), "1 - t1*t2"),
    ((1, 0, 0, 0), "1"),
)

CORNERS = tuple((bool(p & 1), bool(p >> 1 & 1)) for p in range(4))


def _random_polys(ns, per_n=12):
    """(spec, its derived polynomial) for the empty and full masks and
    per_n random ones at each n."""
    rng = random.Random(0)
    for n in ns:
        full = (1 << (1 << n)) - 1
        for shaded in [0, full] + [rng.randint(0, full) for _ in range(per_n)]:
            spec = OperatorSpec(n, shaded)
            yield spec, TruthPolynomial.of(spec)


def _moebius_reference(spec):
    """TruthPolynomial.of the slow way: an in-place Moebius loop over every
    index, one variable at a time, then a sort of the 2^n subsets by degree
    and index."""
    n = spec.n
    coeffs = [int(spec.is_shaded(s)) for s in range(1 << n)]
    for bit in (1 << i for i in range(n)):
        for s in range(1 << n):
            if s & bit:
                coeffs[s] -= coeffs[s ^ bit]
    subsets = [tuple(i for i in range(n) if s >> i & 1) for s in range(1 << n)]
    order = sorted(range(1 << n), key=lambda s: (len(subsets[s]), subsets[s]))
    return TruthPolynomial(n, tuple((coeffs[s], subsets[s]) for s in order if coeffs[s]))


class TestPart:
    def test_variables_and_contains(self):
        part = Part(4, 0b1010)
        assert part.variables() == (2, 4)
        assert not part.contains(1)
        assert part.contains(2)
        assert not part.contains(3)
        assert part.contains(4)

    def test_labels_n3(self):
        labels = [p.label() for p in enumerate_parts(3)]
        assert labels == ["0", "1", "2", "12", "3", "13", "23", "123"]

    def test_labels_dotted_from_ten_variables(self):
        assert Part(10, (1 << 9) | 1).label() == "1.10"
        assert Part(10, (1 << 9) | 2).label() == "2.10"
        assert Part(9, (1 << 8) | 1).label() == "19"

    def test_label_round_trip_small(self):
        for n in range(1, 7):
            for part in enumerate_parts(n):
                assert Part.from_label(part.label(), n) == part

    def test_label_round_trip_dotted(self):
        for mask in (0, 1, 1 << 9, 0b1000110001, (1 << 10) - 1):
            part = Part(10, mask)
            assert Part.from_label(part.label(), 10) == part

    def test_bad_labels_rejected(self):
        for text in ("", "21", "11", "4", "x", "02", "1.2"):
            with pytest.raises(DomainError):
                Part.from_label(text, 3)
        with pytest.raises(DomainError):
            Part.from_label("12", 10)

    def test_mask_bounds(self):
        with pytest.raises(DomainError):
            Part(2, 4)
        with pytest.raises(DomainError):
            Part(2, -1)

    def test_variable_count_bounds(self):
        with pytest.raises(ArityMismatch):
            Part(0, 0)
        with pytest.raises(TooManyVariables):
            Part(21, 0)


class TestOperatorSpec:
    def test_part_bookkeeping(self):
        spec = OperatorSpec(2, 0b1001)
        assert spec.part_count == 4
        assert spec.full_mask == 0b1111
        assert spec.shaded.bit_count() == 2
        assert [p.mask for p in spec.shaded_parts()] == [0, 3]
        assert spec.is_shaded(0) and spec.is_shaded(3)
        assert not spec.is_shaded(1) and not spec.is_shaded(2)

    def test_repr_prints_the_mask_in_hex(self):
        # from n = 14 a decimal mask would pass CPython's 4,300-digit limit
        assert repr(OperatorSpec(2, 6)) == "OperatorSpec(n=2, shaded=0x6)"
        for n in (14, N_MAX):
            spec = OperatorSpec(n, random.Random(n).getrandbits(1 << n))
            text = repr(spec)
            assert text == f"OperatorSpec(n={n}, shaded={spec.shaded:#x})"
            assert eval(text, {"OperatorSpec": OperatorSpec}) == spec

    def test_shaded_mask_bounds(self):
        with pytest.raises(DomainError):
            OperatorSpec(2, 16)
        with pytest.raises(DomainError):
            OperatorSpec(2, -1)
        with pytest.raises(DomainError, match="0x1000"):
            OperatorSpec(14, 1 << (1 << 14))

    def test_truth_table_round_trip(self):
        spec = operator_from_truth_table(2, [0, 1, 1, 0])
        assert spec == OperatorSpec(2, 0b0110)
        with pytest.raises(LengthMismatch):
            operator_from_truth_table(2, [0, 1, 1])

    def test_complement_involution_fixed(self):
        spec = OperatorSpec(3, 0b10110100)
        assert complement(spec).shaded == 0b01001011
        assert complement(complement(spec)) == spec

    @given(st.integers(min_value=1, max_value=N_MAX), st.data())
    def test_complement_involution(self, n, data):
        shaded = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
        spec = OperatorSpec(n, shaded)
        assert complement(complement(spec)) == spec
        assert complement(spec).shaded.bit_count() == spec.part_count - spec.shaded.bit_count()

    def test_enumerate_parts(self):
        parts = enumerate_parts(4)
        assert len(parts) == 16
        assert [p.mask for p in parts] == list(range(16))


class TestProjectionMask:
    def test_matches_closed_form_and_definition(self):
        for n in range(1, 13):
            full = (1 << (1 << n)) - 1
            for i in range(n):
                closed = full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                assert projection_mask(n, i) == closed, (n, i)
                if n <= 6:
                    bits = [projection_mask(n, i) >> p & 1 for p in range(1 << n)]
                    assert bits == [p >> i & 1 for p in range(1 << n)], (n, i)


class TestRegistry:
    def test_sixteen_rows(self):
        assert len(knuth_registry()) == 16

    def test_indices_match_classical_tables(self):
        for row, op in zip(ROW_FUNCS, knuth_registry()):
            want = operator_from_truth_table(2, [row(x, y) for x, y in CORNERS])
            assert op.spec == want
            assert op.index == want.shaded

    def test_row_order_is_not_index_order(self):
        indices = [op.index for op in knuth_registry()]
        assert indices == [0, 8, 2, 10, 4, 12, 6, 14, 1, 9, 3, 11, 5, 13, 7, 15]

    def test_opposite_rows_are_complements(self):
        ops = knuth_registry()
        for i in range(16):
            assert ops[i].spec == complement(ops[15 - i].spec)

    def test_truth_polynomials_match_transcription(self):
        subsets = ((), (0,), (1,), (0, 1))
        for (coeffs, text), op in zip(TRANSCRIBED, knuth_registry()):
            derived = {vs: c for c, vs in op.truth_poly.terms}
            assert tuple(derived.get(vs, 0) for vs in subsets) == coeffs
            assert op.truth_poly.text == text

    def test_truth_polynomials_at_corners(self):
        for row, op in zip(ROW_FUNCS, knuth_registry()):
            for x, y in CORNERS:
                assert op.truth_poly(float(x), float(y)) == float(row(x, y))
        for spec, poly in _random_polys(range(1, 7)):
            for p in range(spec.part_count):
                corner = [float(p >> i & 1) for i in range(spec.n)]
                assert poly(*corner) == float(spec.is_shaded(p)), (spec, p)

    def test_truth_polynomial_takes_n_values(self):
        poly = knuth_registry()[1].truth_poly
        assert poly.n == 2 and poly(0.5, 0.5) == 0.25
        for ts in ((0.5, 0.5, 0.9), (0.5,)):
            with pytest.raises(ArityMismatch, match=f"polynomial takes 2 values, got {len(ts)}"):
                poly(*ts)
        for spec, poly in _random_polys(range(1, 7)):
            assert poly.n == spec.n

    def test_truth_polynomials_match_fuzzy_aggregate(self):
        rng = random.Random(1)
        for spec, poly in _random_polys(range(1, 9), per_n=6):
            names = [f"x{i}" for i in range(spec.n)]
            for _ in range(4):
                ts = [rng.random() for _ in names]
                report = evaluate_operator(spec, Assignment.fuzzy(names, ts))
                assert poly(*ts) == pytest.approx(report.aggregate.t, abs=1e-12)

    def test_truth_polynomial_terms_by_degree_leading_plus_one(self):
        polys = [op.truth_poly for op in knuth_registry()]
        polys += [poly for _, poly in _random_polys(range(1, 9))]
        for poly in polys:
            keys = [(len(vs), vs) for _, vs in poly.terms]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert not poly.terms or poly.terms[0][0] == 1
            assert not poly.text.startswith("-")

    def test_truth_polynomial_matches_in_place_moebius(self):
        # == compares every coefficient and the term order
        for spec, poly in _random_polys(range(1, 13), per_n=6):
            assert poly == _moebius_reference(spec), spec

    def test_truth_polynomial_text_matches_coefficients(self):
        grid = [i / 4 for i in range(5)]
        for op in knuth_registry():
            for t1 in grid:
                for t2 in grid:
                    via_text = eval(op.truth_poly.text, {"t1": t1, "t2": t2})
                    assert op.truth_poly(t1, t2) == pytest.approx(via_text, abs=1e-15)
        rng = random.Random(2)
        for spec, poly in _random_polys(range(1, 5)):
            ts = [rng.random() for _ in range(spec.n)]
            env = {f"t{i + 1}": t for i, t in enumerate(ts)}
            assert poly(*ts) == pytest.approx(eval(poly.text, env), abs=1e-12)

    def test_names_and_symbols(self):
        ops = knuth_registry()
        assert ops[1].display_name == "Conjunction; and"
        assert ops[7].names[0] == "Inclusive disjunction"
        assert ops[9].symbol == "≡"
        symbols = [op.symbol for op in ops]
        assert len(set(symbols)) == 16
        all_names = [name for op in ops for name in op.names]
        assert len(set(all_names)) == len(all_names)


class TestPartColumns:
    def test_part_labels_match_part_label(self):
        # n = 10 and up use the dotted separator
        for n in range(1, 13):
            assert part_labels(n) == [Part(n, p).label() for p in range(1 << n)]

    def test_part_labels_reject_bad_n(self):
        with pytest.raises(ArityMismatch):
            part_labels(0)
        with pytest.raises(TooManyVariables):
            part_labels(21)

    # the is_shaded reference costs O(4^n), so stop at twelve variables
    @given(st.integers(1, 12), st.data())
    def test_mask_bits(self, n, data):
        mask = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        spec = OperatorSpec(n, mask)
        assert list(mask_bits(n, mask)) == [
            int(spec.is_shaded(p)) for p in range(1 << n)
        ]


class TestAtNMax:
    """The 2^n transforms at N_MAX, each within a wall-time bound several
    times what a 2-core host takes (0.2 to 5 s)."""

    def test_truth_polynomial_of_xor_chain(self):
        # the xor of n bits is the sum over nonempty S of (-2)^(|S|-1) t_S
        shaded = 0
        for i in range(N_MAX):
            shaded ^= projection_mask(N_MAX, i)
        start = time.perf_counter()
        poly = TruthPolynomial.of(OperatorSpec(N_MAX, shaded))
        elapsed = time.perf_counter() - start
        assert poly.terms == tuple(
            ((-2) ** (d - 1), vs)
            for d in range(1, N_MAX + 1)
            for vs in combinations(range(N_MAX), d)
        )
        assert elapsed < 30.0

    def test_shaded_parts(self):
        mask = random.Random(N_MAX).getrandbits(1 << N_MAX)
        start = time.perf_counter()
        parts = OperatorSpec(N_MAX, mask).shaded_parts()
        elapsed = time.perf_counter() - start
        want = compress(range(1 << N_MAX), mask_bits(N_MAX, mask))
        assert [p.mask for p in parts] == list(want)
        assert all(p.n == N_MAX for p in parts)
        assert elapsed < 10.0

    def test_truth_table_round_trip(self):
        mask = random.Random(N_MAX + 1).getrandbits(1 << N_MAX)
        start = time.perf_counter()
        spec = operator_from_truth_table(N_MAX, mask_bits(N_MAX, mask))
        elapsed = time.perf_counter() - start
        assert spec == OperatorSpec(N_MAX, mask)
        assert elapsed < 2.0
        # any row shades by its truthiness, not only bools and 0/1
        rows = ["", None, 2, "x"] * (1 << (N_MAX - 2))
        assert operator_from_truth_table(N_MAX, rows).shaded == (
            OperatorSpec(N_MAX, 0).full_mask // 15 * 0b1100
        )
