import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from mincount import (
    CnfFormula,
    build_dependency_graph,
    count_minimal,
    is_head_cycle_free,
    parse_dimacs,
    strongly_connected_components,
    to_dot,
)
from mincount.counting import copied_variables
from mincount.sat import _input_parts

from conftest import cnf_formulas


def _arcs(graph):
    """The arcs of successor lists as ``(tail, head)`` pairs."""
    return {(a, b) for a, heads in enumerate(graph) for b in heads}


def _cycles(clauses, num_vars):
    return strongly_connected_components(build_dependency_graph(clauses, num_vars))


def test_arcs_of_implication_cycle(ex2):
    g = build_dependency_graph(ex2.clauses, 3)
    assert g == [[], [2], [3], [1]]
    assert _arcs(g) == {(1, 2), (2, 3), (3, 1)}


def test_positive_clauses_produce_no_arcs(ex1):
    # Every id up to ``num_vars`` has a list, empty without an outgoing arc.
    assert build_dependency_graph(ex1.clauses, 3) == [[], [], [], []]


def test_negative_clause_produces_no_arcs():
    f = parse_dimacs("p cnf 2 1\n-1 -2 0\n")
    assert build_dependency_graph(f.clauses, 2) == [[], [], []]


def test_successor_lists_keep_clause_order_and_repeats():
    g = build_dependency_graph(((-1, 3, 2), (-2, -1, 3), (-1, 3)), 3)
    assert g == [[], [3, 2, 3, 3], [3], []]
    assert _arcs(g) == {(1, 3), (1, 2), (2, 3)}


def test_ids_without_a_clause_keep_empty_lists():
    assert build_dependency_graph(((-2, 4),), 5) == [[], [], [4], [], [], []]
    assert build_dependency_graph((), 0) == [[]]


def test_cycle_detected(ex2):
    assert _cycles(ex2.clauses, 3)


def test_acyclic_detected(ex1):
    assert not _cycles(ex1.clauses, 3)


def test_empty_graph_acyclic():
    assert _cycles(parse_dimacs("p cnf 0 0\n").clauses, 0) == {}


def test_head_cycle_free_despite_cycle(ex2):
    assert is_head_cycle_free(ex2.clauses, _cycles(ex2.clauses, 3))


def test_two_positives_on_a_cycle():
    f = parse_dimacs("p cnf 2 3\n-1 2 0\n-2 1 0\n1 2 0\n")
    assert not is_head_cycle_free(f.clauses, _cycles(f.clauses, 2))


def test_single_clause_head_cycle_free():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n")
    assert is_head_cycle_free(f.clauses, _cycles(f.clauses, 2))


def test_scc_partition_and_topological_order(ex2):
    # The order is checked inside, by the condensation-order RuntimeError;
    # the result is the partition of the cyclic variables.
    cycles = _cycles(ex2.clauses, 3)
    assert set(cycles) == {1, 2, 3}
    assert len(set(cycles.values())) == 1


def test_scc_chain_order():
    # Every SCC of a chain is one variable without a self-arc: no cycle.
    f = parse_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0\n")
    assert _cycles(f.clauses, 3) == {}


def test_cycle_set_holds_self_arcs_and_cyclic_sccs():
    # 1 is on a cycle through its self-arc alone, 2 and 3 through their
    # SCC, and 4 on none.
    f = CnfFormula(((1, -1), (-2, 3), (-3, 2), (-3, 4)), 4)
    cycles = _cycles(f.clauses, 4)
    assert set(cycles) == {1, 2, 3}
    assert cycles[2] == cycles[3] != cycles[1]
    assert is_head_cycle_free(f.clauses, cycles)
    assert copied_variables(cycles, range(1, 5)) is cycles
    assert list(copied_variables(cycles, range(1, 5), "general")) == [1, 2, 3, 4]
    assert not copied_variables(cycles, range(1, 5), "acyclic")


DEEP = 20000


def test_scc_of_a_deep_ring():
    f = CnfFormula(tuple((-i, i % DEEP + 1) for i in range(1, DEEP + 1)), DEEP)
    cycles = _cycles(f.clauses, DEEP)
    assert sorted(cycles) == list(range(1, DEEP + 1))
    assert len(set(cycles.values())) == 1


def test_scc_of_a_deep_chain():
    f = CnfFormula(tuple((-i, i + 1) for i in range(1, DEEP)), DEEP)
    assert _cycles(f.clauses, DEEP) == {}


def _random_graph(rng):
    """Successor lists over ``0..n`` with some ids on no arc, self-arcs and
    repeated arcs, in random head order."""
    n = rng.randint(0, 24)
    used = rng.sample(range(1, n + 1), rng.randint(0, n))
    graph = [[] for _ in range(n + 1)]
    for _ in range(rng.randint(0, 3 * len(used))):
        a = rng.choice(used)
        b = a if rng.random() < 0.1 else rng.choice(used)
        graph[a] += [b] * rng.choice((1, 1, 1, 2))
    return graph


def _reachability_partition(graph):
    """The cyclic nodes of ``graph`` and each one's SCC, from reachable
    sets grown to a fixpoint, independent of Tarjan."""
    reach = [set(heads) for heads in graph]
    grown = True
    while grown:
        grown = False
        for a, reached in enumerate(reach):
            more = set().union(*(reach[b] for b in reached)) - reached
            if more:
                reached |= more
                grown = True
    cyclic = {a for a, reached in enumerate(reach) if a in reached}
    return {a: frozenset(b for b in reach[a] if a in reach[b]) for a in cyclic}


def test_scc_partition_matches_reachability_on_random_graphs():
    rng = random.Random(3401)
    seen = Counter()
    for _ in range(500):
        graph = _random_graph(rng)
        before = [heads[:] for heads in graph]
        cycles = strongly_connected_components(graph)
        assert graph == before
        scc = _reachability_partition(graph)
        assert set(cycles) == set(scc)
        assert all((cycles[a] == cycles[b]) == (scc[a] == scc[b]) for a in cycles for b in cycles)
        seen["unused id"] += any(not heads and all(a not in other for other in graph)
                                 for a, heads in enumerate(graph) if a)
        seen["self-arc"] += any(a in heads for a, heads in enumerate(graph))
        seen["repeated arc"] += any(len(heads) > len(set(heads)) for heads in graph)
        seen["self-arc alone"] += any(scc[a] == {a} for a in scc)
        seen["several cycles"] += len(set(cycles.values())) > 1
        seen["cycle of 3+"] += any(len(component) > 2 for component in scc.values())
    assert min(seen.values()) >= 50, seen


@given(cnf_formulas())
@settings(max_examples=80)
def test_acyclic_implies_head_cycle_free(f):
    cycles = _cycles(f.clauses, f.num_original_vars)
    if not cycles:
        assert is_head_cycle_free(f.clauses, cycles)


@given(cnf_formulas())
@settings(max_examples=60)
def test_adding_a_clause_never_removes_arcs(f):
    g = build_dependency_graph(f.clauses, f.num_original_vars)
    extended = CnfFormula(f.clauses + ((-1, 1 if f.num_original_vars == 1 else 2),),
                          f.num_original_vars)
    g2 = build_dependency_graph(extended.clauses, f.num_original_vars)
    assert _arcs(g) <= _arcs(g2)


def test_dot_output(ex2):
    dot = to_dot(build_dependency_graph(ex2.clauses, 3), [1, 2, 3])
    assert dot.startswith("digraph")
    assert "1 -> 2;" in dot
    assert "3 -> 1;" in dot


def test_dot_output_of_a_self_arc():
    # Parsing drops the tautology (1, -1); a clause handed in keeps its arc.
    dot = to_dot(build_dependency_graph(((1, -1),), 1), [1])
    assert dot == "digraph dependencies {\n  1;\n  1 -> 1;\n}\n"


def test_dot_output_names_renumbered_nodes_by_their_input_ids():
    # Node ``i`` is named by the ``i``-th sorted input id; nodes and arcs
    # come out in the order of those names, each arc once.
    f = parse_dimacs("p cnf 3000000 3\n-3000000 1 0\n-1 3000000 0\n-1 3000000 7 0\n")
    [(variables, clauses)] = _input_parts(f.clauses, False)
    assert variables == [1, 7, 3000000]
    dot = to_dot(build_dependency_graph(clauses, len(variables)), variables)
    assert dot == ("digraph dependencies {\n  1;\n  7;\n  3000000;\n"
                   "  1 -> 7;\n  1 -> 3000000;\n  3000000 -> 1;\n}\n")


def _reference(formula):
    """Arcs, cycle-mates and cyclic variables from sets and a transitive
    closure, independent of the graph's successor lists and of Tarjan."""
    arcs = {(-a, b) for clause in formula.clauses for a in clause if a < 0
            for b in clause if b > 0}
    nodes = formula.variables()
    reach = {var: {b for a, b in arcs if a == var} for var in nodes}
    for middle in nodes:  # Warshall: paths through ``middle`` too
        for var in nodes:
            if middle in reach[var]:
                reach[var] |= reach[middle]
    scc = {var: frozenset({var} | {other for other in reach[var] if var in reach[other]})
           for var in nodes}
    cyclic = {var for var in nodes if var in reach[var]}
    head_cycle_free = not any(
        a != b and b in scc[a]
        for clause in formula.clauses for a in clause if a > 0 for b in clause if b > 0
    )
    return arcs, scc, cyclic, head_cycle_free


def _messy_formula(rng):
    """At most 12 variables out of up to 16 ids, literals drawn with
    replacement, so clauses repeat literals and some are tautologies (API
    formulas keep those), and some ids occur nowhere."""
    ids = rng.sample(range(1, 17), rng.randint(1, 12))
    clauses = tuple(
        tuple(rng.choice(ids) * rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(0, 16))
    )
    return CnfFormula(clauses, 16)


def _check_against_reference(f):
    """Assert that the graph, Tarjan and the head-cycle test of ``f`` agree
    with ``_reference``; return whether ``f`` has a self-arc and whether it
    has an SCC of two or more variables."""
    arcs, scc, cyclic, head_cycle_free = _reference(f)
    g = build_dependency_graph(f.clauses, f.num_original_vars)
    assert _arcs(g) == arcs
    assert len(g) == f.num_original_vars + 1
    cycles = strongly_connected_components(g)
    assert set(cycles) == cyclic
    # Two cyclic variables share a number exactly when they share an SCC.
    assert all((cycles[a] == cycles[b]) == (scc[a] == scc[b])
               for a in cycles for b in cycles)
    assert is_head_cycle_free(f.clauses, cycles) == head_cycle_free
    return (any(a == b for a, b in arcs),
            any(len(component) > 1 for component in scc.values()))


def test_graph_matches_set_reference_on_random_formulas():
    rng = random.Random(1401)
    self_arcs = nontrivial = 0
    for _ in range(400):
        self_arc, cycle = _check_against_reference(_messy_formula(rng))
        self_arcs += self_arc
        nontrivial += cycle
    # The formulas must exercise both kinds of cycle.
    assert self_arcs >= 40 and nontrivial >= 40


def _plain_graph(clauses, num_vars):
    """The successor lists by their definition, one clause at a time: each
    negative literal's variable gets every positive literal of the clause,
    in clause order."""
    successors = [[] for _ in range(num_vars + 1)]
    for clause in clauses:
        heads = [lit for lit in clause if lit > 0]
        for lit in clause:
            if lit < 0:
                successors[-lit].extend(heads)
    return successors


# The clauses only a formula built in the library holds (parsing drops or
# shortens them), beside the two-literal clauses every input has.
BINARY_KINDS = ["implication", "positive", "negative", "x -x", "x x", "-x -x", "unit", "long"]


def _binary_heavy_formula(rng):
    """Mostly two-literal clauses over at most 14 of 20 ids, with every
    kind of ``BINARY_KINDS`` and their counts."""
    ids = rng.sample(range(1, 21), rng.randint(1, 14))
    clauses, kinds = [], []
    for _ in range(rng.randint(0, 30)):
        x, y, z = (rng.choice(ids) for _ in range(3))
        kind = rng.choices(BINARY_KINDS, [10, 3, 3, 1, 1, 1, 1, 2])[0]
        clauses.append({"implication": (-x, y) if rng.random() < 0.5 else (y, -x),
                        "positive": (x, y), "negative": (-x, -y), "x -x": (x, -x),
                        "x x": (x, x), "-x -x": (-x, -x), "unit": (x,),
                        "long": (-x, y, z) if rng.random() < 0.5 else (x, -y, -z, y)}[kind])
        kinds.append(kind)
    return CnfFormula(tuple(clauses), 20), kinds


def test_two_literal_clauses_match_the_plain_builder():
    # The same successor lists, with the same heads, order and repeats.
    rng = random.Random(2501)
    seen, self_arcs, nontrivial, repeats = Counter(), 0, 0, 0
    for _ in range(400):
        f, kinds = _binary_heavy_formula(rng)
        g = build_dependency_graph(f.clauses, 20)
        assert g == _plain_graph(f.clauses, 20)
        self_arc, cycle = _check_against_reference(f)
        seen.update(kinds)
        self_arcs += self_arc
        nontrivial += cycle
        repeats += any(len(heads) > len(set(heads)) for heads in g)
    assert sum(seen[kind] for kind in BINARY_KINDS[:6]) > 0.8 * sum(seen.values())
    assert min(seen.values()) >= 100
    assert self_arcs >= 150 and nontrivial >= 100 and repeats >= 120


def test_two_literal_library_clauses():
    # ``(x, -x)`` is a self-arc either way round; ``(x, x)`` and ``(-x, -x)``
    # give no arc, and a repeated clause repeats its arc.
    clauses = ((2, -2), (-3, 3), (4, 4), (-5, -5), (-1, 2), (2, -1), (1, 2))
    g = build_dependency_graph(clauses, 5)
    assert g == [[], [2, 2], [2], [3], [], []]
    assert g == _plain_graph(clauses, 5)


SPARSE = "p cnf 3000000 2\n-3000000 1 0\n-1 3000000 0\n"


def test_sparse_ids_cost_what_the_occurring_variables_cost():
    # The graph's tables are sized by their largest id, so a sparse input
    # is renumbered to ``1..k`` first, as ``cli.run`` does.
    f = parse_dimacs(SPARSE)
    tracemalloc.start()
    try:
        [(variables, clauses)] = _input_parts(f.clauses, False)
        cycles = _cycles(clauses, len(variables))
        result = count_minimal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert variables == [1, 3000000]
    assert sorted(cycles) == [1, 2] and len(set(cycles.values())) == 1
    assert result.count == 1
    assert peak < 2**20


SPARSE_PARTS = ("p cnf 3000000 4\n-2999999 2999998 0\n-2999998 2999999 0\n"
                "2999990 2999991 0\n-2999990 -2999991 0\n")


def test_sparse_ids_in_several_parts_cost_what_the_occurring_variables_cost():
    # A 2-ring (its one minimal model sets both false) beside an
    # exactly-one pair (two minimal models).
    f = parse_dimacs(SPARSE_PARTS)
    tracemalloc.start()
    try:
        result = count_minimal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.count, result.stats.parts) == (2, 2)
    assert peak < 2**20
