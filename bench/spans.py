"""Span tracer that wraps the calls into each ``mincount`` layer.

The wraps live here, in the benchmark, not in the program.  Each site is
a module attribute looked up at call time, so replacing it reroutes
every call made through that name; public functions are wrapped where
they exist, and the private recursion steps of ``mincount.counting``
where they do not.  A site whose name no longer exists is reported as
absent and skipped.

A span is ``(name, start, end, parent, instance)``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``instance`` the id the
caller set.  Spans stay in memory until the caller takes them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (span name, module, attribute).  Importers are listed beside the
# defining module because ``from x import f`` binds its own name.
SITES = (
    ("formula.parse", "mincount.cli", "parse_dimacs"),
    ("depgraph.graph", "mincount.cli", "build_dependency_graph"),
    ("depgraph.graph", "mincount.counting", "build_dependency_graph"),
    ("depgraph.checks", "mincount.cli", "is_acyclic"),
    ("depgraph.checks", "mincount.cli", "is_head_cycle_free"),
    ("depgraph.checks", "mincount.counting", "is_acyclic"),
    ("depgraph.checks", "mincount.counting", "is_head_cycle_free"),
    ("depgraph.scc", "mincount.depgraph", "strongly_connected_components"),
    ("transform.pair", "mincount.counting", "build_pair"),
    ("transform.pair", "mincount.counting", "with_forced_clauses"),
    ("counting.count", "mincount.cli", "count_minimal"),
    ("counting.loop", "mincount.counting", "count_models"),
    ("counting.loop", "mincount.counting", "count_pair"),
    ("counting.bcp", "mincount.counting", "_bcp"),
    ("counting.split", "mincount.counting", "_split_components"),
    ("counting.pick", "mincount.counting", "BranchPolicy.pick"),
    ("counting.base", "mincount.counting", "_justification_base"),
    ("sat.solve", "mincount.counting", "solve"),
    ("sat.solve", "mincount.sat", "solve"),
)


def _count_bcp(counters, result):
    counters["counting.bcp_calls"] += 1
    if result is getattr(sys.modules["mincount.counting"], "_CONFLICT", None):
        counters["counting.bcp_conflicts"] += 1


def _count_split(counters, result):
    counters["counting.split_calls"] += 1
    if len(result) > 1:
        counters["counting.split_useful"] += 1


def _count_sat(counters, result):
    counters["sat.calls"] += 1
    if result.satisfiable:
        counters["sat.satisfiable"] += 1


def _count_scc(counters, result):
    counters["depgraph.scc_calls"] += 1


def _count_pair(counters, result):
    # with_forced_clauses returns a formula, not a pair: no justification side.
    copy_map = getattr(result, "copy_map", None)
    if copy_map is None:
        return
    clauses = result.justification.clauses
    counters["transform.justification_clauses"] += len(clauses)
    counters["transform.copy_vars"] += len(
        {abs(lit) for clause in clauses for lit in clause if abs(lit) >= copy_map.first_copy_id}
    )


COUNTERS = {
    "counting.bcp": _count_bcp,
    "counting.split": _count_split,
    "sat.solve": _count_sat,
    "depgraph.scc": _count_scc,
    "transform.pair": _count_pair,
}


class Tracer:
    """Records spans and counters while installed; not thread-safe."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.instance = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.instance)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                try:
                    count(self.counters, result)
                except (AttributeError, TypeError):
                    # The result changed shape: report, do not fail the instance.
                    if f"{name} counters" not in self.absent:
                        self.absent.append(f"{name} counters")
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        for name, module_name, attribute in SITES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(owner, leaf, self._wrap(name, original))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def take(self) -> tuple[list, Counter]:
        """Hand over the recorded spans and counters and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its children (merged, so overlapping children count once).
    """
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
