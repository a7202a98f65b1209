"""Fixtures shared across the test modules."""

import pytest

from vennlogic import FuzzyValue, evaluate


@pytest.fixture
def shifted_grid_point(monkeypatch):
    """Make fuzzy_operator_eval read 1e-9 high for equivalence at (0.3, 0.7)
    only, one point of table 1's grid check."""
    real = evaluate.fuzzy_operator_eval

    def shifted(spec, a):
        value = real(spec, a)
        if spec.shaded == 0b1001 and [v.t for v in a.values] == [0.3, 0.7]:
            return FuzzyValue.from_truth(value.t + 1e-9)
        return value

    monkeypatch.setattr(evaluate, "fuzzy_operator_eval", shifted)
