"""Dependency graph over CNF variables and the variables on its cycles.

The graph has an arc a -> b whenever some clause contains ``-a`` and
``b`` (as a positive literal).  It is a list indexed by variable id:
each tail's list of heads.  Only the variables on a cycle get copy
variables in the counting pair, built per variable-disjoint part, where
every cycle lies; head-cycle-freeness is computed as a diagnostic only.

Every cycle lies inside one strongly connected component, so Tarjan's
pass returns just the cycle facts: a dict from each variable on a cycle
to its component's number.  An empty dict means an acyclic graph.  Every
table is sized by the largest id, so callers hand in their own ids ``1..k``.
"""

from __future__ import annotations

from itertools import count


def build_dependency_graph(clauses, num_vars: int) -> list[list[int]]:
    """The successor lists of the dependency graph of ``clauses``.

    ``graph[a]`` lists the heads of the arcs from ``a`` in clause order,
    an arc given twice listed twice, for every ``a`` in ``0..num_vars``;
    a variable without an outgoing arc, and ``0``, has an empty list.
    """
    successors: list[list[int]] = [[] for _ in range(num_vars + 1)]
    for clause in clauses:
        if len(clause) == 2:  # at most one arc, from the negative literal
            a, b = clause
            if a > b:
                a, b = b, a
            if a < 0 < b:
                successors[-a].append(b)
            continue
        heads = [lit for lit in clause if lit > 0]
        if heads and len(heads) < len(clause):
            for lit in clause:
                if lit < 0:
                    successors[-lit] += heads
    return successors


def strongly_connected_components(graph: list[list[int]]) -> dict[int, int]:
    """The variables on a cycle of ``graph``, each mapped to its SCC's number.

    A variable is on a cycle when its SCC holds another variable or it has
    a self-arc; two of them share a number exactly when they share an SCC.
    Tarjan's algorithm, iterative to tolerate deep chain graphs, starts
    roots in id order and only at arc tails: a node without an outgoing
    arc is on no cycle.
    """
    # ``index[v]`` is 0 until ``v`` is visited, then its visit's rank from
    # 1, and once in a component that component's number, above every rank
    # and growing in emission order: a visited node is on the stack while
    # its ``index`` is at most ``size``, and no lowlink takes a number.
    size = len(graph)
    index, lowlink = [0] * size, [0] * size
    stack, cycles, rank, number = [], {}, count(1), size

    for root in range(size):
        if index[root] or not graph[root]:
            continue
        # ``node`` is the DFS's current node, ``children`` its successors
        # left; ``work`` holds the same for the nodes above it on the path.
        node, children, work = root, iter(graph[root]), []
        index[root] = lowlink[root] = next(rank)
        stack.append(root)
        while True:
            for child in children:
                visit = index[child]
                if not visit:
                    work.append((node, children))
                    node, children = child, iter(graph[child])
                    index[child] = lowlink[child] = next(rank)
                    stack.append(child)
                    break
                if visit < lowlink[node]:
                    lowlink[node] = visit
            else:
                low = lowlink[node]
                if low == index[node]:
                    number += 1
                    member = stack.pop()
                    index[member] = number
                    if member != node:
                        cycles[member] = number
                        while member != node:
                            member = stack.pop()
                            index[member] = cycles[member] = number
                    elif node in graph[node]:
                        cycles[node] = number
                if not work:
                    break
                node, children = work.pop()
                if low < lowlink[node]:
                    lowlink[node] = low

    # Tarjan emits a component only after every component it reaches.
    for number, heads in zip(index, graph):
        for b in heads:
            if index[b] > number:
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


def to_dot(graph: list[list[int]], variables) -> str:
    """Render ``graph`` in DOT text format, its node ``i`` named by the
    ``i``-th of the increasing ``variables``, the ids it was renumbered from."""
    lines = ["digraph dependencies {"]
    lines += [f"  {node};" for node in variables]
    lines += [f"  {variables[a - 1]} -> {variables[b - 1]};"
              for a, b in sorted({(a, b) for a, heads in enumerate(graph) for b in heads})]
    lines.append("}")
    return "\n".join(lines) + "\n"
