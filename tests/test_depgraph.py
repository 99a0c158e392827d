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

from conftest import cnf_formulas


def _arcs(graph):
    """The arcs of a successor dict as ``(tail, head)`` pairs."""
    return {(a, b) for a, heads in graph.items() for b in heads}


def _cycles(clauses):
    return strongly_connected_components(build_dependency_graph(clauses))


def test_arcs_of_implication_cycle(ex2):
    g = build_dependency_graph(ex2.clauses)
    assert g == {1: [2], 2: [3], 3: [1]}
    assert _arcs(g) == {(1, 2), (2, 3), (3, 1)}


def test_positive_clauses_produce_no_arcs(ex1):
    # Variables without an outgoing arc have no entry.
    assert build_dependency_graph(ex1.clauses) == {}


def test_negative_clause_produces_no_arcs():
    f = parse_dimacs("p cnf 2 1\n-1 -2 0\n")
    assert build_dependency_graph(f.clauses) == {}


def test_successor_lists_keep_clause_order_and_repeats():
    g = build_dependency_graph(((-1, 3, 2), (-2, -1, 3), (-1, 3)))
    assert g == {1: [3, 2, 3, 3], 2: [3]}
    assert _arcs(g) == {(1, 3), (1, 2), (2, 3)}


def test_cycle_detected(ex2):
    assert _cycles(ex2.clauses)


def test_acyclic_detected(ex1):
    assert not _cycles(ex1.clauses)


def test_empty_graph_acyclic():
    assert _cycles(parse_dimacs("p cnf 0 0\n").clauses) == {}


def test_head_cycle_free_despite_cycle(ex2):
    assert is_head_cycle_free(ex2.clauses, _cycles(ex2.clauses))


def test_two_positives_on_a_cycle():
    f = parse_dimacs("p cnf 2 3\n-1 2 0\n-2 1 0\n1 2 0\n")
    assert not is_head_cycle_free(f.clauses, _cycles(f.clauses))


def test_single_clause_head_cycle_free():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n")
    assert is_head_cycle_free(f.clauses, _cycles(f.clauses))


def test_scc_partition_and_topological_order(ex2):
    # The order is checked inside, by the condensation-order RuntimeError;
    # the result is the partition of the cyclic variables.
    cycles = _cycles(ex2.clauses)
    assert set(cycles) == {1, 2, 3}
    assert len(set(cycles.values())) == 1


def test_scc_chain_order():
    # Every SCC of a chain is one variable without a self-arc: no cycle.
    f = parse_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0\n")
    assert _cycles(f.clauses) == {}


def test_cycle_set_holds_self_arcs_and_cyclic_sccs():
    # 1 is on a cycle through its self-arc alone, 2 and 3 through their
    # SCC, and 4 on none.
    f = CnfFormula(((1, -1), (-2, 3), (-3, 2), (-3, 4)), 4)
    cycles = _cycles(f.clauses)
    assert set(cycles) == {1, 2, 3}
    assert cycles[2] == cycles[3] != cycles[1]
    assert is_head_cycle_free(f.clauses, cycles)
    assert copied_variables(cycles, range(1, 5)) is cycles
    assert list(copied_variables(cycles, range(1, 5), "general")) == [1, 2, 3, 4]
    assert not copied_variables(cycles, range(1, 5), "acyclic")


DEEP = 20000


def test_scc_of_a_deep_ring():
    f = CnfFormula(tuple((-i, i % DEEP + 1) for i in range(1, DEEP + 1)), DEEP)
    cycles = _cycles(f.clauses)
    assert sorted(cycles) == list(range(1, DEEP + 1))
    assert len(set(cycles.values())) == 1


def test_scc_of_a_deep_chain():
    f = CnfFormula(tuple((-i, i + 1) for i in range(1, DEEP)), DEEP)
    assert _cycles(f.clauses) == {}


@given(cnf_formulas())
@settings(max_examples=80)
def test_acyclic_implies_head_cycle_free(f):
    cycles = _cycles(f.clauses)
    if not cycles:
        assert is_head_cycle_free(f.clauses, cycles)


@given(cnf_formulas())
@settings(max_examples=60)
def test_adding_a_clause_never_removes_arcs(f):
    g = build_dependency_graph(f.clauses)
    extended = CnfFormula(f.clauses + ((-1, 1 if f.num_original_vars == 1 else 2),),
                          f.num_original_vars)
    g2 = build_dependency_graph(extended.clauses)
    assert _arcs(g) <= _arcs(g2)


def test_dot_output(ex2):
    dot = to_dot(build_dependency_graph(ex2.clauses), ex2.variables())
    assert dot.startswith("digraph")
    assert "1 -> 2;" in dot
    assert "3 -> 1;" in dot


def test_dot_output_of_a_self_arc():
    # Parsing drops the tautology (1, -1); a clause handed in keeps its arc.
    dot = to_dot(build_dependency_graph(((1, -1),)), {1})
    assert dot == "digraph dependencies {\n  1;\n  1 -> 1;\n}\n"


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
    g = build_dependency_graph(f.clauses)
    assert _arcs(g) == arcs
    assert set(g) == {a for a, _ in arcs}
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


def _plain_graph(clauses):
    """The successor dict by its definition, one clause at a time: each
    negative literal's variable gets every positive literal of the clause,
    in clause order."""
    successors = {}
    for clause in clauses:
        heads = [lit for lit in clause if lit > 0]
        for lit in clause:
            if lit < 0 and heads:
                successors.setdefault(-lit, []).extend(heads)
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
    # The same successor lists, in the same key order (which orders
    # Tarjan's roots), with the same heads, order and repeats.
    rng = random.Random(2501)
    seen, self_arcs, nontrivial, repeats = Counter(), 0, 0, 0
    for _ in range(400):
        f, kinds = _binary_heavy_formula(rng)
        g = build_dependency_graph(f.clauses)
        assert list(g.items()) == list(_plain_graph(f.clauses).items())
        self_arc, cycle = _check_against_reference(f)
        seen.update(kinds)
        self_arcs += self_arc
        nontrivial += cycle
        repeats += any(len(heads) > len(set(heads)) for heads in g.values())
    assert sum(seen[kind] for kind in BINARY_KINDS[:6]) > 0.8 * sum(seen.values())
    assert min(seen.values()) >= 100
    assert self_arcs >= 150 and nontrivial >= 100 and repeats >= 120


def test_two_literal_library_clauses():
    # ``(x, -x)`` is a self-arc either way round; ``(x, x)`` and ``(-x, -x)``
    # give no arc, and a repeated clause repeats its arc.
    clauses = ((2, -2), (-3, 3), (4, 4), (-5, -5), (-1, 2), (2, -1), (1, 2))
    g = build_dependency_graph(clauses)
    assert list(g.items()) == [(2, [2]), (3, [3]), (1, [2, 2])]
    assert list(g.items()) == list(_plain_graph(clauses).items())


SPARSE = "p cnf 3000000 2\n-3000000 1 0\n-1 3000000 0\n"


def test_sparse_ids_cost_what_the_occurring_variables_cost():
    f = parse_dimacs(SPARSE)
    tracemalloc.start()
    try:
        cycles = _cycles(f.clauses)
        result = count_minimal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(cycles) == [1, 3000000] and len(set(cycles.values())) == 1
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
