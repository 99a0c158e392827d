import random
import tracemalloc

import pytest
from hypothesis import given, settings

from mincount import (
    CnfFormula,
    build_dependency_graph,
    count_minimal,
    is_acyclic,
    is_head_cycle_free,
    parse_dimacs,
    strongly_connected_components,
    to_dot,
)
from mincount.counting import copied_variables

from conftest import cnf_formulas


def test_arcs_of_implication_cycle(ex2):
    g = build_dependency_graph(ex2.clauses)
    assert g.arcs == frozenset({(1, 2), (2, 3), (3, 1)})


def test_positive_clauses_produce_no_arcs(ex1):
    g = build_dependency_graph(ex1.clauses)
    assert g.arcs == frozenset()
    assert g.nodes == frozenset({1, 2, 3})


def test_negative_clause_produces_no_arcs():
    f = parse_dimacs("p cnf 2 1\n-1 -2 0\n")
    assert build_dependency_graph(f.clauses).arcs == frozenset()


def test_requires_original_variables_only():
    # The first auxiliary clause of the search side of (1, 2, 3).
    forced = CnfFormula(((1, 2, 3), (-6, -2), (-4, -2)), 3, num_vars=6)
    with pytest.raises(ValueError, match="^dependency graph requires original variables only, "
                                         "got 4$"):
        forced.require_originals()
    for mode in (None, "acyclic", "general"):
        with pytest.raises(ValueError, match="original variables only, got 4$"):
            count_minimal(forced, force_mode=mode)
    # Declared auxiliary ids that no clause holds are no obstacle.
    unused = CnfFormula(((1, 2, 3),), 3, num_vars=6)
    unused.require_originals()
    assert count_minimal(unused).count == 3


def test_original_ids_check_reads_no_clause_unless_ids_are_declared(monkeypatch):
    # Without ids declared above the originals there is nothing to test.
    class Walked(Exception):
        pass

    def walk(self):
        raise Walked

    monkeypatch.setattr(CnfFormula, "variables", walk)
    CnfFormula(((1, -2), (2, 3)), 3).require_originals()
    with pytest.raises(Walked):
        CnfFormula(((1, -2), (2, 3)), 3, num_vars=4).require_originals()


def test_cycle_detected(ex2):
    assert not is_acyclic(build_dependency_graph(ex2.clauses))


def test_acyclic_detected(ex1):
    assert is_acyclic(build_dependency_graph(ex1.clauses))


def test_empty_graph_acyclic():
    assert is_acyclic(build_dependency_graph(parse_dimacs("p cnf 0 0\n").clauses))


def test_head_cycle_free_despite_cycle(ex2):
    assert is_head_cycle_free(ex2.clauses, build_dependency_graph(ex2.clauses))


def test_two_positives_on_a_cycle():
    f = parse_dimacs("p cnf 2 3\n-1 2 0\n-2 1 0\n1 2 0\n")
    assert not is_head_cycle_free(f.clauses, build_dependency_graph(f.clauses))


def test_single_clause_head_cycle_free():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n")
    assert is_head_cycle_free(f.clauses, build_dependency_graph(f.clauses))


def test_scc_partition_and_topological_order(ex2):
    g = build_dependency_graph(ex2.clauses)
    scc = strongly_connected_components(g)
    assert scc.components == ((1, 2, 3),)
    assert scc.component_of == {1: 0, 2: 0, 3: 0}


def test_scc_chain_order():
    f = parse_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0\n")
    scc = strongly_connected_components(build_dependency_graph(f.clauses))
    assert scc.components == ((1,), (2,), (3,))


def test_cycle_set_holds_self_arcs_and_cyclic_sccs():
    # 1 is on a cycle through its self-arc alone, 2 and 3 through their
    # SCC, and 4 on none.
    f = CnfFormula(((1, -1), (-2, 3), (-3, 2), (-3, 4)), 4)
    g = build_dependency_graph(f.clauses)
    assert g.cyclic == {1, 2, 3}
    assert not is_acyclic(g)
    assert is_head_cycle_free(f.clauses, g)
    assert copied_variables(g) == {1, 2, 3}
    assert copied_variables(g, "general") == {1, 2, 3, 4}
    assert copied_variables(g, "acyclic") == set()


DEEP = 20000


def test_scc_of_a_deep_ring():
    f = CnfFormula(tuple((-i, i % DEEP + 1) for i in range(1, DEEP + 1)), DEEP)
    scc = strongly_connected_components(build_dependency_graph(f.clauses))
    assert scc.components == (tuple(range(1, DEEP + 1)),)


def test_scc_of_a_deep_chain():
    f = CnfFormula(tuple((-i, i + 1) for i in range(1, DEEP)), DEEP)
    scc = strongly_connected_components(build_dependency_graph(f.clauses))
    assert scc.components == tuple((i,) for i in range(1, DEEP + 1))


@given(cnf_formulas())
@settings(max_examples=80)
def test_acyclic_implies_head_cycle_free(f):
    g = build_dependency_graph(f.clauses)
    if is_acyclic(g):
        assert is_head_cycle_free(f.clauses, g)


@given(cnf_formulas())
@settings(max_examples=60)
def test_adding_a_clause_never_removes_arcs(f):
    g = build_dependency_graph(f.clauses)
    extended = CnfFormula(f.clauses + ((-1, 1 if f.num_original_vars == 1 else 2),),
                          f.num_original_vars)
    g2 = build_dependency_graph(extended.clauses)
    assert g.arcs <= g2.arcs


def test_dot_output(ex2):
    dot = to_dot(build_dependency_graph(ex2.clauses))
    assert dot.startswith("digraph")
    assert "1 -> 2;" in dot
    assert "3 -> 1;" in dot


def test_dot_output_of_a_self_arc():
    # Parsing drops the tautology (1, -1); a clause handed in keeps its arc.
    dot = to_dot(build_dependency_graph(((1, -1),)))
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


def test_graph_matches_set_reference_on_random_formulas():
    rng = random.Random(1401)
    self_arcs = nontrivial = 0
    for _ in range(400):
        f = _messy_formula(rng)
        arcs, scc, cyclic, head_cycle_free = _reference(f)
        g = build_dependency_graph(f.clauses)
        assert g.nodes == f.variables()
        assert g.arcs == arcs
        sccs = g.sccs
        assert {frozenset(component) for component in sccs.components} == set(scc.values())
        assert all(list(component) == sorted(component) for component in sccs.components)
        assert sccs.component_of == {var: position
                                     for position, component in enumerate(sccs.components)
                                     for var in component}
        # Topological: every arc stays in its component or goes forward.
        assert all(sccs.component_of[a] <= sccs.component_of[b] for a, b in arcs)
        assert g.cyclic == cyclic
        assert is_acyclic(g) == (not cyclic)
        assert is_head_cycle_free(f.clauses, g) == head_cycle_free
        self_arcs += any(a == b for a, b in arcs)
        nontrivial += any(len(component) > 1 for component in sccs.components)
    # The formulas must exercise both kinds of cycle.
    assert self_arcs >= 40 and nontrivial >= 40


SPARSE = "p cnf 3000000 2\n-3000000 1 0\n-1 3000000 0\n"


def test_sparse_ids_cost_what_the_occurring_variables_cost():
    f = parse_dimacs(SPARSE)
    tracemalloc.start()
    try:
        g = build_dependency_graph(f.clauses)
        components = g.sccs.components
        result = count_minimal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert components == ((1, 3000000),)
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
