"""Dependency graph over CNF variables and SCC-based structure tests.

The graph has an arc a -> b whenever some clause contains ``-a`` and
``b`` (as a positive literal).  Only the variables on a cycle of this
graph get copy variables in the counting pair; head-cycle-freeness is
computed as a diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .formula import ORIG, CnfFormula


@dataclass(frozen=True)
class DepGraph:
    nodes: frozenset[int]
    arcs: frozenset[tuple[int, int]]

    @cached_property
    def sccs(self) -> SccDecomposition:
        """The strongly connected components, computed on first use."""
        return strongly_connected_components(self)

    @cached_property
    def cyclic(self) -> frozenset[int]:
        """The variables on a cycle: in a non-trivial SCC or on a self-arc."""
        return frozenset(
            [var for component in self.sccs.components if len(component) > 1 for var in component]
            + [a for a, b in self.arcs if a == b]
        )


@dataclass(frozen=True, eq=False)
class SccDecomposition:
    """Strongly connected components in topological order."""

    components: tuple[tuple[int, ...], ...]
    component_of: dict


def build_dependency_graph(formula: CnfFormula) -> DepGraph:
    """Build the variable dependency graph of a formula.

    Only defined over original variables; raises ``ValueError`` when the
    formula's clauses mention auxiliary or copy ids.
    """
    for var in formula.variables():
        if formula.kind_of(var) != ORIG:
            raise ValueError(f"dependency graph requires original variables only, got {var}")
    arcs = set()
    for clause in formula.clauses:
        negatives = [-lit for lit in clause if lit < 0]
        positives = [lit for lit in clause if lit > 0]
        for a in negatives:
            for b in positives:
                arcs.add((a, b))
    return DepGraph(frozenset(formula.variables()), frozenset(arcs))


def strongly_connected_components(graph: DepGraph) -> SccDecomposition:
    """Tarjan's algorithm, iterative to tolerate deep chain graphs."""
    adjacency: dict[int, list[int]] = {node: [] for node in graph.nodes}
    for a, b in sorted(graph.arcs):
        adjacency[a].append(b)

    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[tuple[int, ...]] = []

    for root in sorted(graph.nodes):
        if root in index:
            continue
        # A work entry is a node on the DFS path and the iterator over its
        # successors, resumed when the DFS returns to it.  A node's index
        # is ``len(index)``, read before the node is stored.
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adjacency[child])))
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

    # Tarjan emits components in reverse topological order.
    components.reverse()
    component_of = {}
    for pos, component in enumerate(components):
        for node in component:
            component_of[node] = pos
    for a, b in graph.arcs:
        if component_of[a] > component_of[b]:
            raise RuntimeError("condensation order violated; SCC computation is broken")
    return SccDecomposition(tuple(components), component_of)


def is_acyclic(graph: DepGraph) -> bool:
    """True iff the graph has no directed cycle."""
    return not graph.cyclic


def is_head_cycle_free(formula: CnfFormula, graph: DepGraph) -> bool:
    """True iff no cycle contains two variables positive in a common clause.

    Two distinct variables lie on a common cycle exactly when they share
    a strongly connected component.
    """
    component_of, cyclic = graph.sccs.component_of, graph.cyclic
    for clause in formula.clauses:
        seen: dict[int, int] = {}
        for lit in clause:
            if lit not in cyclic:  # it holds no negative literal
                continue
            component = component_of[lit]
            if component in seen and seen[component] != lit:
                return False
            seen[component] = lit
    return True


def to_dot(graph: DepGraph) -> str:
    """Render the graph in DOT text format."""
    lines = ["digraph dependencies {"]
    for node in sorted(graph.nodes):
        lines.append(f"  {node};")
    for a, b in sorted(graph.arcs):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
