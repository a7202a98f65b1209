"""Part valuation and aggregation have one caller, evaluate_operator.

Each logic's helpers are reached through the _LOGICS table, and the two
detail routines call _side_detail; any other reference in the package would
be a second copy of evaluate_operator's steps, which is how table 2 once
printed digits that eval did not.  Each module is parsed with ast, and every
read of a helper's name is mapped to the top-level definition or assignment
that holds it.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "vennlogic").glob("*.py"))

HELPERS = {
    "_fuzzy_parts", "_neutro_parts", "_fuzzy_oracle", "_neutro_oracle",
    "_fuzzy_detail", "_neutro_detail", "_side_detail",
}
ALLOWED = {"_LOGICS", "_fuzzy_detail", "_neutro_detail"}


def _holder(node) -> str:
    """The name a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return ",".join(t.id for t in targets if isinstance(t, ast.Name)) or "<module>"


def stray_references(source: str) -> list[tuple[str, str]]:
    """(holder, helper) for each read of a helper outside ALLOWED."""
    stray = []
    for top in ast.parse(source).body:
        holder = _holder(top)
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in HELPERS:
                if holder not in ALLOWED:
                    stray.append((holder, name))
    return stray


def test_helpers_are_reached_only_through_evaluate_operator():
    for path in SOURCES:
        assert stray_references(path.read_text(encoding="utf-8")) == [], path.name


def test_stray_references_are_found():
    source = (
        "_LOGICS = {'fuzzy': (_fuzzy_parts, _fuzzy_detail)}\n"
        "def _fuzzy_detail(spec, a, columns):\n    return _side_detail(spec)\n"
        "def table(a):\n    columns = _neutro_parts(a)\n"
        "    return [evaluate._neutro_detail(s, a, columns) for s in a]\n"
        "ROUTE = _side_detail\n"
    )
    assert stray_references(source) == [
        ("table", "_neutro_parts"), ("table", "_neutro_detail"), ("ROUTE", "_side_detail"),
    ]
