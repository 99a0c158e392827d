"""Dependency graph over CNF variables and the variables on its cycles.

The graph has an arc a -> b whenever some clause contains ``-a`` and
``b`` (as a positive literal).  It is a plain successor dict: each tail
maps to the list of its heads.  Only the variables on a cycle get copy
variables in the counting pair, built per variable-disjoint part, where
every cycle lies; head-cycle-freeness is computed as a diagnostic only.

Every cycle lies inside one strongly connected component, so Tarjan's
pass returns just the cycle facts: a dict from each variable on a cycle
to its component's number.  An empty dict means an acyclic graph.  Every
table is keyed by the occurring variables, so a sparse input with a huge
largest id costs no more than a dense one.
"""

from __future__ import annotations


def build_dependency_graph(clauses) -> dict[int, list[int]]:
    """The successor dict of the dependency graph of ``clauses``.

    Each tail of an arc maps to the heads of its arcs in clause order, an
    arc given twice listed twice; a variable without an outgoing arc has
    no entry.  Time and memory are bounded by the clauses and their
    variables, not by the largest id.
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
    return successors


def strongly_connected_components(graph: dict[int, list[int]]) -> dict[int, int]:
    """The variables on a cycle of ``graph``, each mapped to its SCC's number.

    A variable is on a cycle when its SCC holds another variable or it has
    a self-arc; two of them share a number exactly when they share an SCC.
    Tarjan's algorithm, iterative to tolerate deep chain graphs, starts
    roots only at arc tails: a node without an outgoing arc is on no cycle.
    """
    # ``index`` and ``lowlink`` hold every visited node; ``finished`` maps
    # the nodes already in a component to that component's number, the
    # count of nodes finished before it, which grows in Tarjan's emission
    # order.  So a visited node is on the stack while not in ``finished``.
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    finished: dict[int, int] = {}
    stack: list[int] = []
    cycles: dict[int, int] = {}

    for root in graph:
        if root in index:
            continue
        # A work entry is a node on the DFS path and the iterator over its
        # successors, resumed when the DFS returns to it.  A node's index
        # is ``len(index)``, read before the node is stored.
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    work.append((child, iter(graph.get(child, ()))))
                    break
                if child not in finished and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                low = lowlink[node]
                if low == index[node]:
                    number, member = len(finished), stack.pop()
                    finished[member] = number
                    if member != node:
                        cycles[member] = number
                        while member != node:
                            member = stack.pop()
                            finished[member] = cycles[member] = number
                    elif node in graph.get(node, ()):
                        cycles[node] = number
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low

    # Tarjan emits a component only after every component it reaches.
    for a, heads in graph.items():
        number = finished[a]
        for b in heads:
            if finished[b] > number:
                raise RuntimeError("condensation order violated; SCC computation is broken")
    return cycles


def is_head_cycle_free(clauses, cycles: dict[int, int]) -> bool:
    """True iff no cycle contains two variables positive in a common clause.

    ``cycles`` is what ``strongly_connected_components`` returns: two
    distinct variables lie on a common cycle exactly when they share a
    number there.
    """
    if not cycles:  # the scan below would find nothing
        return True
    for clause in clauses:
        seen: dict[int, int] = {}
        for lit in clause:
            number = cycles.get(lit)  # a negative literal is never a key
            if number is not None and seen.setdefault(number, lit) != lit:
                return False
    return True


def to_dot(graph: dict[int, list[int]], variables) -> str:
    """Render ``graph`` over the nodes ``variables`` in DOT text format."""
    lines = ["digraph dependencies {"]
    lines += [f"  {node};" for node in sorted(variables)]
    lines += [f"  {a} -> {b};" for a, b in sorted({(a, b) for a, heads in graph.items()
                                                   for b in heads})]
    lines.append("}")
    return "\n".join(lines) + "\n"
