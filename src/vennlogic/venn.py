"""Disjoint diagram regions, their codification labels, and operators as
shaded region sets.

A diagram over n variables splits into 2^n disjoint parts.  A part is encoded
by a bitmask over variables: bit i-1 set means variable i occurs un-negated in
the part.  An n-ary operator is the set of parts it shades, packed into a
2^n-bit integer whose bit p stands for the part with mask p.  That integer is
the operator's index, which also makes row p of a classical truth table (the
corner where variable i is true exactly when bit i-1 of p is set) line up with
part p.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from itertools import chain, combinations, compress
from operator import sub

from .errors import ArityMismatch, DomainError, LengthMismatch, TooManyVariables
from .record import Record

N_MAX = 20

# One float list per value field (t, f or T, I, F), indexed by part mask.
Columns = Sequence[Sequence[float]]


def _check_n(n: int) -> None:
    if n < 1:
        raise ArityMismatch(f"need at least one variable, got n={n}")
    if n > N_MAX:
        raise TooManyVariables(f"n={n} exceeds the supported maximum of {N_MAX}")


def projection_mask(n: int, i: int) -> int:
    """The 2^n-bit mask of the parts inside variable i (0-based): bit p is
    set exactly when bit i of p is, so the mask runs in blocks of 2^i zeros
    then 2^i ones.  One 2^(i+1)-bit block is doubled until it covers all
    2^n bits, which takes n - i - 1 shifts and ors."""
    width = 2 << i
    mask = ((1 << (1 << i)) - 1) << (1 << i)
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


def part_labels(n: int) -> list[str]:
    """Part.label() of every mask 0 .. 2^n - 1, in mask order, built by
    doubling: the label of p | 1 << i is the label of p, the separator and
    i + 1, except that the label of 1 << i is i + 1 alone."""
    _check_n(n)
    sep = "" if n <= 9 else "."
    labels = ["0"]
    for i in range(n):
        tag = str(i + 1)
        suffix = sep + tag
        labels.append(tag)
        labels += [x + suffix for x in labels[1:-1]]
    return labels


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def mask_bits(n: int, mask: int) -> bytes:
    """The 2^n bits of mask, lowest first, one 0 or 1 byte each: a selector
    for itertools.compress over a column indexed by part mask."""
    return bin(mask)[:1:-1].ljust(1 << n, "0").encode().translate(_BIT_BYTES)


class Part(Record):
    """One disjoint region of an n-variable diagram."""

    def __init__(self, n: int, mask: int):
        vars(self).update(n=n, mask=mask)
        self.__post_init__()  # the check on its own, so Part builds can be counted

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise DomainError(f"part mask {self.mask} out of range for n={self.n}")

    def variables(self) -> tuple[int, ...]:
        """1-based indices of the sets this part lies inside."""
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def contains(self, var_index: int) -> bool:
        return bool(self.mask >> (var_index - 1) & 1)

    def label(self) -> str:
        """Codification label: the member-set indices in ascending order,
        "0" for the region outside every set.

        Indices are concatenated up to n = 9; larger diagrams separate them
        with dots because concatenation turns ambiguous there.
        """
        included = self.variables()
        if not included:
            return "0"
        sep = "" if self.n <= 9 else "."
        return sep.join(str(i) for i in included)

    @classmethod
    def from_label(cls, text: str, n: int) -> "Part":
        _check_n(n)
        if text == "0":
            return cls(n, 0)
        pieces = list(text) if n <= 9 else text.split(".")
        if not pieces:
            raise DomainError(f"bad part label {text!r}")
        mask = 0
        last = 0
        for piece in pieces:
            try:
                idx = int(piece)
            except ValueError:
                raise DomainError(f"bad part label {text!r}") from None
            if not 1 <= idx <= n or idx <= last:
                raise DomainError(f"bad part label {text!r} for n={n}")
            mask |= 1 << (idx - 1)
            last = idx
        return cls(n, mask)


class OperatorSpec(Record):
    """An n-ary operator as the set of parts it shades (bit p <-> part p)."""

    def __init__(self, n: int, shaded: int):
        _check_n(n)
        if shaded < 0 or shaded.bit_length() > (1 << n):
            raise DomainError(f"shaded mask {shaded:#x} out of range for n={n}")
        vars(self).update(n=n, shaded=shaded)

    def __repr__(self) -> str:
        # hex at every n: a decimal mask passes CPython's 4,300-digit
        # int-to-str limit from n = 14
        return f"OperatorSpec(n={self.n}, shaded={self.shaded:#x})"

    @property
    def part_count(self) -> int:
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.part_count) - 1

    def is_shaded(self, part_mask: int) -> bool:
        return bool(self.shaded >> part_mask & 1)

    def shaded_parts(self) -> tuple[Part, ...]:
        """The shaded parts by mask, picked from the 2^n bits in O(2^n)."""
        picked = compress(range(self.part_count), mask_bits(self.n, self.shaded))
        return tuple(Part(self.n, p) for p in picked)


def enumerate_parts(n: int) -> tuple[Part, ...]:
    """All 2^n parts of an n-variable diagram in ascending mask order."""
    _check_n(n)
    return tuple(Part(n, mask) for mask in range(1 << n))


def operator_from_truth_table(n: int, outputs) -> OperatorSpec:
    """Build a spec from the 2^n outputs of a classical truth table.

    Row p is the corner where variable i is true exactly when bit i-1 of p is
    set, so a truthy row p shades part p.  One base-2 parse, in O(2^n).
    """
    _check_n(n)
    outputs = list(outputs)
    if len(outputs) != 1 << n:
        raise LengthMismatch(
            f"expected {1 << n} truth table rows for n={n}, got {len(outputs)}"
        )
    bits = "".join("1" if out else "0" for out in reversed(outputs))
    return OperatorSpec(n, int(bits, 2))


def complement(spec: OperatorSpec) -> OperatorSpec:
    """The operator shading exactly the parts spec leaves unshaded."""
    return OperatorSpec(spec.n, spec.full_mask ^ spec.shaded)


class TruthPolynomial(Record):
    """The multilinear extension of an operator's truth table: the sum over
    its terms (c, vs) of c times the product of t_{i+1} for i in vs, the
    0-based variable indices.  Terms are listed by degree, then by index."""

    def __init__(self, n: int, terms: tuple[tuple[int, tuple[int, ...]], ...]):
        vars(self).update(n=n, terms=terms)

    @classmethod
    def of(cls, spec: OperatorSpec) -> "TruthPolynomial":
        """The nonzero Moebius coefficients of the 2^n truth-table bits: that
        of subset S is the sum over subsets T of S of (-1)^|S-T| * bit_T.  Each
        of n perfect shuffles (Yates's pass) subtracts the even entries from the
        odd ones, doing one variable; terms come by degree, in O(n * 2^n)."""
        n, c = spec.n, list(mask_bits(spec.n, spec.shaded))
        for _ in range(n):
            even = c[0::2]
            c = even + list(map(sub, c[1::2], even))
        weights, degrees = [1 << i for i in range(n)], range(n + 1)
        subsets = chain.from_iterable(combinations(range(n), d) for d in degrees)
        masks = chain.from_iterable(map(sum, combinations(weights, d)) for d in degrees)
        return cls(n, tuple((c[s], vs) for vs, s in zip(subsets, masks) if c[s]))

    @property
    def text(self) -> str:
        """The sum as the classical tables print it: terms joined by " + " or
        " - ", a coefficient of magnitude 1 left out, and "0" for no term.  The
        first coefficient is its subset's truth bit, 1: earlier subsets have 0."""
        pieces = []
        for c, vs in self.terms:
            factors = ([] if abs(c) == 1 else [str(abs(c))]) + [f"t{i + 1}" for i in vs]
            pieces += ["-" if c < 0 else "+", "*".join(factors) or "1"]
        return " ".join(pieces[1:]) or "0"

    def __call__(self, *ts: float) -> float:
        if len(ts) != self.n:
            raise ArityMismatch(f"polynomial takes {self.n} values, got {len(ts)}")
        total = 0
        for c, vs in self.terms:
            for i in vs:
                c *= ts[i]
            total += c
        return total


class NamedOperator(Record):
    """A catalogued two-variable operator."""

    def __init__(
        self, spec: OperatorSpec, names: tuple[str, ...], symbol: str,
        truth_poly: TruthPolynomial,
    ):
        if spec.n != 2:
            raise DomainError("named operators are binary")
        vars(self).update(spec=spec, names=names, symbol=symbol, truth_poly=truth_poly)

    @property
    def index(self) -> int:
        """The operator's code, its shaded mask; independent of row order."""
        return self.spec.shaded

    @property
    def display_name(self) -> str:
        return "; ".join(self.names)


_REGISTRY_ROWS = (
    (0b0000, ("Contradiction", "falsehood", "constant 0"), "⊥"),
    (0b1000, ("Conjunction", "and"), "∧"),
    (0b0010, ("Nonimplication", "difference", "but not"), "⊅"),
    (0b1010, ("Left projection",), "L"),
    (0b0100, ("Converse nonimplication", "not...but"), "⊄"),
    (0b1100, ("Right projection",), "R"),
    (0b0110, ("Exclusive disjunction", "nonequivalence", "xor"), "⊕"),
    (0b1110, ("Inclusive disjunction", "or", "and/or"), "∨"),
    (0b0001, ("Nondisjunction", "joint denial", "neither...nor"), "⊽"),
    (0b1001, ("Equivalence", "if and only if"), "≡"),
    (0b0011, ("Right complementation",), "¬R"),
    (0b1011, ("Converse implication", "if"), "⊂"),
    (0b0101, ("Left complementation",), "¬L"),
    (0b1101, ("Implication", "only if", "if...then"), "⊃"),
    (0b0111, ("Nonconjunction", "not both...and", "nand"), "⊼"),
    (0b1111, ("Affirmation", "validity", "tautology", "constant 1"), "⊤"),
)


@cache
def knuth_registry() -> tuple[NamedOperator, ...]:
    """The sixteen binary operators in Knuth's classical catalog row order,
    from contradiction up to tautology.

    Row position and integer index differ: the index is the shaded-part mask.
    """
    ops = []
    for shaded, names, symbol in _REGISTRY_ROWS:
        spec = OperatorSpec(2, shaded)
        ops.append(NamedOperator(spec, names, symbol, TruthPolynomial.of(spec)))
    return tuple(ops)
