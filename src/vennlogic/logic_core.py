"""Value types and the operator algebra they support.

Two value systems live here.  Fuzzy values are (t, f) pairs constrained to
t + f = 1; conjunction is the product t-norm and disjunction is additive but
defined only for pairwise disjoint operands.  Three-component values carry an
explicit indeterminacy channel between truth and falsehood and obey no unit
sum constraint.  Their k-ary conjunction expands the componentwise product
and credits every cross term to the strongest component class it contains,
where "strongest" is configurable through a prevalence order.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence
from itertools import combinations

from .errors import DisjointnessViolation, DomainError, LengthMismatch
from .record import Record

EPS_NORM = 1e-9   # slack for t + f = 1 and for truth-mass preconditions
EPS_DEN = 1e-12   # below this a rescaling denominator counts as zero


def _unit(x: float, what: str) -> float:
    """Check x against [0, 1] with EPS_NORM slack and clamp float fuzz.
    NaN fails the comparison and is rejected."""
    if not -EPS_NORM <= x <= 1.0 + EPS_NORM:
        raise DomainError(f"{what} must lie in [0, 1], got {x!r}")
    return min(1.0, max(0.0, x))


def _nonnegative(x: float, what: str) -> float:
    """Check that x is finite and at least -EPS_NORM, and clamp float fuzz."""
    if not -EPS_NORM <= x < math.inf:
        raise DomainError(f"{what} must be finite and nonnegative, got {x!r}")
    return max(0.0, x)


class FuzzyValue(Record):
    """A normalized fuzzy value: truth t and falsehood f with t + f = 1."""

    def __init__(self, t: float, f: float):
        t, f = _unit(t, "truth"), _unit(f, "falsehood")
        if abs(t + f - 1.0) > EPS_NORM:
            raise DomainError(f"fuzzy value needs t + f = 1, got t={t!r}, f={f!r}")
        vars(self).update(t=t, f=f)

    @classmethod
    def from_truth(cls, t: float) -> "FuzzyValue":
        return cls(t, 1.0 - t)


class NeutrosophicValue(Record):
    """A truth/indeterminacy/falsehood triple.

    A triple describing a single proposition normally has every component in
    [0, 1], but conjunctions of over-normalized operands can push component
    sums past 1, so only nonnegativity is enforced here.  norm() may come out
    below, at, or above 1.
    """

    def __init__(self, T: float, I: float, F: float):
        vars(self).update(
            T=_nonnegative(T, "T component"),
            I=_nonnegative(I, "I component"),
            F=_nonnegative(F, "F component"),
        )

    def norm(self) -> float:
        return self.T + self.I + self.F


class Component(enum.Enum):
    """The three component classes of a triple."""

    T = "T"
    I = "I"
    F = "F"


_CANONICAL = (Component.T, Component.I, Component.F)


class PrevalenceOrder(Record):
    """The component classes ranked weakest to strongest.

    A product term that mixes several classes is credited to the strongest
    class present, so under T < I < F any term with an F factor counts as
    falsehood.
    """

    def __init__(self, order: tuple[Component, Component, Component]):
        if sorted(c.value for c in order) != ["F", "I", "T"]:
            raise DomainError("prevalence order must list T, I, F exactly once each")
        vars(self).update(order=order)

    @classmethod
    def from_string(cls, text: str) -> "PrevalenceOrder":
        try:
            return cls(tuple(Component(ch) for ch in text.upper()))
        except ValueError:
            raise DomainError(f"not a prevalence order: {text!r}") from None

    def rank(self, c: Component) -> int:
        return self.order.index(c)

    def strongest(self, components: Iterable[Component]) -> Component:
        return max(components, key=self.rank)

    def __str__(self) -> str:
        return "".join(c.value for c in self.order)


TIF = PrevalenceOrder.from_string("TIF")  # prudent: falsehood prevails over all
ITF = PrevalenceOrder.from_string("ITF")  # truth prevails over indeterminacy
TFI = PrevalenceOrder.from_string("TFI")  # indeterminacy prevails over all
# the named readings, which --order offers; PrevalenceOrder takes all six
ORDERS = (TIF, ITF, TFI)


class ComponentVector(Record):
    """One component class sampled across k variables.

    Entries are nonnegative; for atomic propositions they lie in [0, 1].
    """

    def __init__(self, component: Component, values: Iterable[float]):
        values = tuple(values)
        if not values:
            raise DomainError("component vector needs at least one entry")
        values = tuple(_nonnegative(v, f"{component.value} entry") for v in values)
        vars(self).update(component=component, values=values)


def fuzzy_conj(x: FuzzyValue, y: FuzzyValue) -> FuzzyValue:
    """Product-t-norm conjunction: (t1*t2, f1 + f2 - f1*f2)."""
    return FuzzyValue(x.t * y.t, x.f + y.f - x.f * y.f)


def fuzzy_neg(x: FuzzyValue) -> FuzzyValue:
    """Involutive negation, swapping truth and falsehood."""
    return FuzzyValue(x.f, x.t)


def fuzzy_disj_disjoint(values: Sequence[FuzzyValue]) -> FuzzyValue:
    """Disjunction of pairwise disjoint values.

    Truths add and falsehoods add minus (k - 1).  Adding truths is only
    meaningful for disjoint operands, which is exactly when the sum stays
    within 1; more than EPS_NORM beyond that raises DisjointnessViolation.
    """
    return _fuzzy_disj_sums(
        len(values), math.fsum(v.t for v in values), math.fsum(v.f for v in values)
    )


def _fuzzy_disj_sums(k: int, t: float, f: float) -> FuzzyValue:
    """fuzzy_disj_disjoint from the operand count and the fsums of the
    truths and of the falsehoods."""
    if k < 2:
        raise DomainError("disjoint disjunction needs at least two operands")
    if t > 1.0 + EPS_NORM:
        raise DisjointnessViolation(
            f"truth mass {t!r} exceeds 1, operands are not disjoint"
        )
    return FuzzyValue(t, f - (k - 1))


def inclusion_exclusion(alphas: Sequence[float]) -> float:
    """Union of independent memberships: S1 - S2 + S3 - ... over the
    elementary symmetric sums of the arguments.

    Algebraically equal to 1 - prod(1 - a); the symmetric-sum route is the
    definition here and the product form serves as the cross-check oracle in
    the test suite.
    """
    if not alphas:
        raise DomainError("inclusion_exclusion needs at least one argument")
    checked = [_unit(a, "membership") for a in alphas]
    # elem[l] accumulates the l-th elementary symmetric sum
    elem = [1.0] + [0.0] * len(checked)
    for hi, a in enumerate(checked, start=1):
        for l in range(hi, 0, -1):
            elem[l] += a * elem[l - 1]
    total = 0.0
    for l in range(1, len(elem)):
        total += elem[l] if l % 2 else -elem[l]
    return _unit(total, "union value")


def compose(vectors: Sequence[ComponentVector]) -> float:
    """Composition of between one and three component vectors of length k.

    Sums, over every way of drawing one entry per variable such that each
    listed class is drawn at least once, the product of the drawn entries.
    Computed by inclusion-exclusion over subsets of the listed classes, which
    equals the direct sum over surjective class assignments.  One vector
    composes to the product of its entries; with more classes than variables
    no valid drawing exists and the result is 0.  Symmetric in its arguments.
    """
    if not 1 <= len(vectors) <= 3:
        raise DomainError("compose takes one to three component vectors")
    classes = [v.component for v in vectors]
    if len(set(classes)) != len(classes):
        raise DomainError("each component class may appear at most once")
    k = len(vectors[0].values)
    for v in vectors[1:]:
        if len(v.values) != k:
            raise LengthMismatch(
                f"component vectors differ in length: {len(v.values)} != {k}"
            )
    ordered = sorted(vectors, key=lambda v: _CANONICAL.index(v.component))
    m = len(ordered)
    if k < m:
        return 0.0
    total = 0.0
    for r in range(1, m + 1):
        sign = -1.0 if (m - r) % 2 else 1.0
        for subset in combinations(ordered, r):
            prod = 1.0
            for i in range(k):
                prod *= sum(v.values[i] for v in subset)
            total += sign * prod
    return total


_CLASS_SUBSETS = tuple(
    subset for r in (1, 2, 3) for subset in combinations(_CANONICAL, r)
)


def neutro_conj(
    values: Sequence[NeutrosophicValue], order: PrevalenceOrder = TIF
) -> NeutrosophicValue:
    """k-ary conjunction of triples under a prevalence order.

    Expanding prod_i (T_i + I_i + F_i) gives 3^k product terms; each term
    belongs to the strongest component class it contains.  The seven
    class-subset compositions realize that bucketing without enumerating
    terms.  The result's norm is the product of the operand norms.
    """
    if not values:
        raise DomainError("conjunction needs at least one operand")
    vecs = {
        c: ComponentVector(c, tuple(getattr(v, c.value) for v in values))
        for c in _CANONICAL
    }
    buckets = {c: 0.0 for c in _CANONICAL}
    for subset in _CLASS_SUBSETS:
        buckets[order.strongest(subset)] += compose([vecs[c] for c in subset])
    return NeutrosophicValue(
        buckets[Component.T], buckets[Component.I], buckets[Component.F]
    )


def neutro_neg(x: NeutrosophicValue) -> NeutrosophicValue:
    """Involutive negation: swap truth and falsehood, keep indeterminacy."""
    return NeutrosophicValue(x.F, x.I, x.T)


def neutro_disj_disjoint(
    values: Sequence[NeutrosophicValue], tau: float
) -> NeutrosophicValue:
    """Disjunction of pairwise disjoint triples with target norm tau.

    Truths add.  Indeterminacy and falsehood add and are then rescaled by the
    common factor (tau - sum T) / sum(I + F), which pins the result's norm to
    exactly tau.  When there is no indeterminacy or falsehood mass to rescale
    the result degenerates to (sum T, 0, 0).
    """
    return _neutro_disj_sums(
        len(values),
        math.fsum(v.T for v in values),
        math.fsum(v.I for v in values),
        math.fsum(v.F for v in values),
        tau,
    )


def _neutro_disj_sums(
    k: int, t: float, rest_i: float, rest_f: float, tau: float
) -> NeutrosophicValue:
    """neutro_disj_disjoint from the operand count and the fsums of the
    T, I and F components."""
    if k < 2:
        raise DomainError("disjoint disjunction needs at least two operands")
    if not -EPS_NORM <= tau < math.inf:
        raise DomainError(f"target norm must be finite and nonnegative, got {tau!r}")
    if t > 1.0 + EPS_NORM:
        raise DisjointnessViolation(
            f"truth mass {t!r} exceeds 1, operands are not disjoint"
        )
    if t > tau + EPS_NORM:
        raise DisjointnessViolation(
            f"truth mass {t!r} exceeds the target norm {tau!r}"
        )
    den = rest_i + rest_f
    if den <= EPS_DEN:
        return NeutrosophicValue(t, 0.0, 0.0)
    scale = (tau - t) / den
    return NeutrosophicValue(t, rest_i * scale, rest_f * scale)
