"""Dependency graph over CNF variables and SCC-based structure tests.

The graph has an arc a -> b whenever some clause contains ``-a`` and
``b`` (as a positive literal).  Only the variables on a cycle get copy
variables in the counting pair, built per variable-disjoint part, where
every cycle lies; head-cycle-freeness is computed as a diagnostic only.

One pass over the clauses maps each tail to the list of its heads, and
Tarjan's SCC pass walks those lists; the arcs as a set of pairs are
derived only when asked for.  Every table is keyed by the occurring
variables, so a sparse input with a huge largest id costs no more than
a dense one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True, eq=False)
class DepGraph:
    """The occurring variables and, for each tail of an arc, its heads.

    ``successors`` maps a variable to the list of the heads of its arcs
    in clause order, where an arc given twice is listed twice; a variable
    without an outgoing arc has no entry.
    """

    nodes: frozenset[int]
    successors: dict[int, list[int]]

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs as ``(tail, head)`` pairs, derived on first use."""
        return frozenset((a, b) for a, heads in self.successors.items() for b in heads)

    @cached_property
    def sccs(self) -> SccDecomposition:
        """The strongly connected components, computed on first use."""
        return strongly_connected_components(self)

    @cached_property
    def cyclic(self) -> frozenset[int]:
        """The variables on a cycle: in a non-trivial SCC or on a self-arc."""
        return frozenset(
            [var for component in self.sccs.components if len(component) > 1 for var in component]
            + [a for a, heads in self.successors.items() if a in heads]
        )


@dataclass(frozen=True, eq=False)
class SccDecomposition:
    """Strongly connected components in topological order."""

    components: tuple[tuple[int, ...], ...]
    component_of: dict


def build_dependency_graph(clauses) -> DepGraph:
    """Build the dependency graph of ``clauses`` over their variables.

    Time and memory are bounded by the clauses and their variables, not
    by the largest id.
    """
    successors: dict[int, list[int]] = {}
    for clause in clauses:
        heads = [lit for lit in clause if lit > 0]
        if heads and len(heads) < len(clause):
            for lit in clause:
                if lit < 0:
                    tail = successors.get(-lit)
                    if tail is None:
                        successors[-lit] = heads[:]
                    else:
                        tail += heads
    return DepGraph(frozenset([abs(lit) for clause in clauses for lit in clause]), successors)


def strongly_connected_components(graph: DepGraph) -> SccDecomposition:
    """Tarjan's algorithm, iterative to tolerate deep chain graphs."""
    successors = graph.successors
    # ``index`` and ``lowlink`` hold every visited node; ``finished`` maps
    # the nodes already in a component to the position Tarjan emits that
    # component at, so a visited node is on the stack while not in it.
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    finished: dict[int, int] = {}
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
        work = [(root, iter(successors.get(root, ())))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    work.append((child, iter(successors.get(child, ()))))
                    break
                if child not in finished and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                low = lowlink[node]
                if low == index[node]:
                    position, component = len(components), []
                    while True:
                        member = stack.pop()
                        finished[member] = position
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low

    # Tarjan emits components in reverse topological order.
    components.reverse()
    last = len(components) - 1
    component_of = {node: last - position for node, position in finished.items()}
    for a, heads in successors.items():
        position = component_of[a]
        for b in heads:
            if position > component_of[b]:
                raise RuntimeError("condensation order violated; SCC computation is broken")
    return SccDecomposition(tuple(components), component_of)


def is_acyclic(graph: DepGraph) -> bool:
    """True iff the graph has no directed cycle."""
    return not graph.cyclic


def is_head_cycle_free(clauses, graph: DepGraph) -> bool:
    """True iff no cycle contains two variables positive in a common clause.

    Two distinct variables lie on a common cycle exactly when they share
    a strongly connected component.
    """
    component_of, cyclic = graph.sccs.component_of, graph.cyclic
    if not cyclic:  # the scan below would find nothing
        return True
    for clause in clauses:
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
