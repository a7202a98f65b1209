"""Spans and counters around the package's public functions, for the traced
run only.

Each target is replaced at every attribute of every loaded `vennlogic`
module that binds it, so `neutro_conj` is seen whether it is called through
`vennlogic.logic_core` or `vennlogic.evaluate`.  A span records its id,
name, start, end, parent span and operation.  Self time is a span's
duration minus the time its child spans cover, and is summed per round as
spans close.  Spans of the first `keep_rounds` rounds (and of the CLI probe)
are kept in memory and written out at the end; later rounds are only summed,
which keeps memory flat on long runs.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from statistics import median
from time import perf_counter_ns

# (metric name, module, attribute, mode).  A "span" target reports
# <name>.self_ms and <name>.calls; a "count" target only counts its calls,
# because a span per call (one per corner, one per Part) would be too many.
TARGETS = (
    ("expr.parse", "vennlogic.expr", "parse", "span"),
    ("expr.compile_expr", "vennlogic.expr", "compile_expr", "span"),
    ("expr.evaluate_bool.calls", "vennlogic.expr", "evaluate_bool", "count"),
    ("venn.shaded_parts", "vennlogic.venn", "OperatorSpec.shaded_parts", "span"),
    ("venn.parts_built", "vennlogic.venn", "Part.__post_init__", "count"),
    ("logic_core.neutro_conj", "vennlogic.logic_core", "neutro_conj", "span"),
    ("logic_core.compose", "vennlogic.logic_core", "compose", "span"),
    ("logic_core.inclusion_exclusion", "vennlogic.logic_core", "inclusion_exclusion", "span"),
    ("logic_core.fuzzy_disj_disjoint", "vennlogic.logic_core", "fuzzy_disj_disjoint", "span"),
    ("logic_core.neutro_disj_disjoint", "vennlogic.logic_core", "neutro_disj_disjoint", "span"),
    ("evaluate.evaluate_operator", "vennlogic.evaluate", "evaluate_operator", "span"),
    ("evaluate.fuzzy_part_value", "vennlogic.evaluate", "fuzzy_part_value", "span"),
    ("evaluate.neutro_part_value", "vennlogic.evaluate", "neutro_part_value", "span"),
    ("evaluate.oracle_expand", "vennlogic.evaluate", "oracle_expand", "span"),
    ("evaluate.fuzzy_operator_table", "vennlogic.evaluate", "fuzzy_operator_table", "span"),
    ("evaluate.neutro_operator_table", "vennlogic.evaluate", "neutro_operator_table", "span"),
    ("evaluate.fuzzy_operator_eval.calls", "vennlogic.evaluate", "fuzzy_operator_eval", "count"),
    ("cli.main", "vennlogic.cli", "main", "span"),
)
ORACLE_TERMS = "evaluate.oracle_terms"

# the per-layer metrics computed from spans and counters; cli.* and trace.*
# come from run.py
LAYER_METRICS = (
    "expr.parse.self_ms",
    "expr.parse.calls",
    "expr.compile_expr.self_ms",
    "expr.compile_expr.calls",
    "expr.evaluate_bool.calls",
    "venn.shaded_parts.self_ms",
    "venn.shaded_parts.calls",
    "venn.parts_built",
    "logic_core.neutro_conj.self_ms",
    "logic_core.neutro_conj.calls",
    "logic_core.compose.self_ms",
    "logic_core.compose.calls",
    "logic_core.inclusion_exclusion.self_ms",
    "logic_core.inclusion_exclusion.calls",
    "logic_core.fuzzy_disj_disjoint.self_ms",
    "logic_core.neutro_disj_disjoint.self_ms",
    "evaluate.evaluate_operator.self_ms",
    "evaluate.fuzzy_part_value.self_ms",
    "evaluate.fuzzy_part_value.calls",
    "evaluate.neutro_part_value.self_ms",
    "evaluate.neutro_part_value.calls",
    "evaluate.oracle_expand.self_ms",
    "evaluate.oracle_expand.calls",
    ORACLE_TERMS,
    "evaluate.fuzzy_operator_table.self_ms",
    "evaluate.neutro_operator_table.self_ms",
    "evaluate.fuzzy_operator_eval.calls",
)


class Tracer:
    def __init__(self, keep_rounds):
        self.keep_rounds = keep_rounds
        self.ops = []          # operation id -> [round, kind]
        self.spans = []        # [id, name, start_ns, end_ns, parent id, op id]
        self.self_ns = {}      # round -> Counter of self time by span name
        self.counts = {}       # round -> Counter of calls by metric name
        self._stack = []       # open spans: [id, time covered by children]
        self._next_id = 0
        self._op = -1
        self._keep = False
        self._round_self = self._round_counts = None
        self._patches = self._collect_patches()

    def begin_op(self, rnd, kind):
        """Attribute the following calls to operation `kind` of round `rnd`
        (an int, or "probe" for the CLI probe)."""
        self.ops.append([rnd, kind])
        self._op = len(self.ops) - 1
        self._keep = rnd == "probe" or rnd < self.keep_rounds
        self._round_self = self.self_ns.setdefault(rnd, Counter())
        self._round_counts = self.counts.setdefault(rnd, Counter())

    def _span(self, name, fn):
        stack = self._stack
        calls = name + ".calls"
        is_oracle = name == "evaluate.oracle_expand"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            if is_oracle:
                self._round_counts[ORACLE_TERMS] += 3 ** len(args[0])
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self._round_self[name] += duration - frame[1]
                self._round_counts[calls] += 1
                if stack:
                    stack[-1][1] += duration
                if self._keep:
                    self.spans.append((frame[0], name, start, end, parent, self._op))

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._round_counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _collect_patches(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "vennlogic" or key.startswith("vennlogic.")
        ]
        patches = []
        for name, module, attr, mode in TARGETS:
            owner = sys.modules[module]
            cls, _, attr = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = (self._span if mode == "span" else self._count)(name, original)
            # a method lives on its class; a function at every module binding
            for target in [owner] if cls else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        patches.append((target, key, original, wrapper))
        return patches

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def remove(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def self_ms(self, name, rounds):
        """Median over rounds of the round's self time in `name`, in ms."""
        return median(self.self_ns.get(r, Counter())[name] / 1e6 for r in rounds)

    def total(self, name, rounds):
        return sum(self.counts.get(r, Counter())[name] for r in rounds)

    def layer_metrics(self, loop_rounds, count_rounds):
        """Self times as medians over loop_rounds, counts as exact totals
        over count_rounds."""
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".self_ms"):
                out[metric] = (self.self_ms(metric[: -len(".self_ms")], loop_rounds), "ms")
            else:
                out[metric] = (self.total(metric, count_rounds), "count")
        return out

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "ops": self.ops, "spans": self.spans}, fh,
                      separators=(",", ":"))
