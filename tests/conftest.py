import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from mincount import (
    CnfFormula,
    build_dependency_graph,
    build_pair,
    parse_dimacs,
    solve,
    strongly_connected_components,
)
from mincount.transform import auxiliary_cnf

# Three-variable fixtures used throughout: a positive 3-cycle of clauses
# and an implication 3-cycle, with a, b, c mapped to 1, 2, 3.
EX1_TEXT = "p cnf 3 3\n1 2 0\n2 3 0\n3 1 0\n"
EX2_TEXT = "p cnf 3 3\n-1 2 0\n-2 3 0\n-3 1 0\n"


@pytest.fixture
def ex1():
    return parse_dimacs(EX1_TEXT)


@pytest.fixture
def ex2():
    return parse_dimacs(EX2_TEXT)


def pair_of(formula, copied=None):
    """``build_pair`` of a formula, copying ``copied`` (default: every
    occurring variable)."""
    return build_pair(formula.clauses, formula.num_original_vars,
                      formula.variables() if copied is None else copied)


def auxiliary_of(formula, copied=None):
    """``pair_of`` with its supports written as auxiliary-variable clauses,
    the pair that ``--emit-pair`` writes."""
    return auxiliary_cnf(pair_of(formula, copied))


def strengthened(formula):
    """The search side of a formula: the input strengthened with its forced
    implications, over the original and auxiliary variables."""
    search, _, _, copy_lo, _ = auxiliary_of(formula, ())
    return CnfFormula(tuple(search), copy_lo - 1)


def random_formula(rng: random.Random, min_vars=4, max_vars=12, min_clauses=4,
                   max_clauses=40, max_len=4, min_len=1) -> CnfFormula:
    """Random CNF with mixed polarities and clause lengths min_len..max_len."""
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(min_clauses, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(min_len, max_len)
        chosen = rng.sample(range(1, n + 1), min(k, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(tuple(clauses), n)


def random_acyclic_formula(rng: random.Random, min_vars=4, max_vars=10,
                           min_clauses=3, max_clauses=25, max_len=4,
                           min_len=1) -> CnfFormula:
    """Random CNF whose dependency graph is guaranteed acyclic.

    Every clause places its negated variables strictly below its positive
    ones in a per-instance variable order, so all arcs point forward.
    """
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(min_clauses, max_clauses)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    clauses = []
    for _ in range(m):
        k = rng.randint(min_len, max_len)
        chosen = sorted(rng.sample(range(1, n + 1), min(k, n)), key=rank.get)
        split = rng.randint(0, len(chosen))
        clauses.append(tuple(-v for v in chosen[:split]) + tuple(chosen[split:]))
    formula = CnfFormula(tuple(clauses), n)
    assert not strongly_connected_components(build_dependency_graph(formula.clauses))
    return formula


@st.composite
def cnf_formulas(draw, max_vars=6, max_clauses=10, max_len=3):
    """Hypothesis strategy for small CNF formulas without duplicate literals."""
    n = draw(st.integers(min_value=1, max_value=max_vars))
    m = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses = []
    for _ in range(m):
        k = draw(st.integers(min_value=1, max_value=min(max_len, n)))
        chosen = draw(st.permutations(range(1, n + 1)))[:k]
        signs = [draw(st.booleans()) for _ in range(k)]
        clauses.append(tuple(v if s else -v for v, s in zip(chosen, signs)))
    return CnfFormula(tuple(clauses), n)


def planted_cycle_formula(rng: random.Random, min_vars=5, max_vars=14,
                          clauses_per_var=1.2, ternary_close=False) -> CnfFormula:
    """Random CNF whose cycles are planted rings of 2-5 variables.

    Each ring is an implication cycle ``-r_i r_{i+1}``; some of its
    clauses gain a negated variable of the same ring or a positive
    acyclic variable, and one clause of positive literals supports it.
    The other variables are acyclic: arcs among them only go up a
    per-instance order, and the only arcs between the two kinds go from
    a ring variable to an acyclic one.  So the non-trivial SCCs are
    exactly the rings.  With ``ternary_close``, at least one variable is
    acyclic and each ring's last clause has three literals or more, so no
    cycle is made of binary clauses alone and auto mode merges none.
    """
    n = rng.randint(min_vars, max_vars)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    target = rng.uniform(0.2, 0.7) * n
    rings = []
    while len(ids) >= 2 + ternary_close and (not rings or sum(map(len, rings)) < target):
        size = rng.randint(2, min(5, len(ids) - ternary_close))
        rings.append(ids[:size])
        del ids[:size]
    order = ids  # the acyclic variables, arcs pointing forward in this list
    ring_vars = [var for ring in rings for var in ring]
    clauses = []
    for ring in rings:
        for i, var in enumerate(ring):
            clause = [-var, ring[(i + 1) % len(ring)]]
            others = [v for v in ring if v not in (var, ring[(i + 1) % len(ring)])]
            if others and rng.random() < 0.3:
                clause.append(-rng.choice(others))
            if order and rng.random() < 0.3:
                clause.append(rng.choice(order))
            clauses.append(tuple(clause))
        if ternary_close and len(clauses[-1]) == 2:
            clauses[-1] += (rng.choice(order),)
        support = [rng.choice(ring)]
        if rng.random() < 0.7:
            support.append(rng.choice([v for v in range(1, n + 1) if v != support[0]]))
        clauses.append(tuple(support))
    for _ in range(round(clauses_per_var * len(order))):
        chosen = sorted(rng.sample(order, min(rng.randint(2, 3), len(order))),
                        key=order.index)
        split = rng.randint(0, len(chosen))
        clause = [-v for v in chosen[:split]] + chosen[split:]
        if ring_vars and rng.random() < 0.4:
            clause.append(-rng.choice(ring_vars))
        clauses.append(tuple(clause))
    return CnfFormula(tuple(clauses), n)


def count_by_enumeration(formula, limit=300):
    """The number of minimal models of ``formula`` found with ``solve``
    alone, or ``None`` once it passes ``limit``.

    Find a model of the formula and the blocking clauses; shrink it by
    asking for a model that keeps every false variable false and flips
    some true one, until there is none; count it, and block its supersets
    with the clause of its negated true variables.  Each minimal model is
    found exactly once (Ben-Eliyahu-Zohary, AIJ 2005).  Of the counting
    engine this shares only ``solve``, whose search branches on the lowest
    id, false first: each search renames the variables so that those in
    the most clauses, blocking ones included, come first, which keeps it
    from re-proving most of the blocked region its predecessor did.
    """
    variables = sorted(formula.variables())
    clauses, count = list(formula.clauses), 0
    while True:
        occurs = Counter(abs(lit) for clause in clauses for lit in clause)
        ranked = sorted(variables, key=lambda var: -occurs[var])
        rename = {var: new for new, var in enumerate(ranked, 1)}
        rename.update({-var: -new for var, new in list(rename.items())})
        found = solve([tuple(map(rename.__getitem__, clause)) for clause in clauses])
        if not found.satisfiable:
            return count
        model = {ranked[var - 1] for var in found.witness}
        while model:
            keep = tuple((-var,) for var in variables if var not in model)
            smaller = solve(formula.clauses + keep + (tuple(-var for var in model),))
            if not smaller.satisfiable:
                break
            model = smaller.witness
        count += 1
        if count > limit:
            return None
        clauses.append(tuple(-var for var in sorted(model)))


def recurrence_count(family, n):
    """The minimal models of ``scripts/scaling.py``'s ``chain`` or ``path``
    family over ``n`` variables, by ``a(n) = a(n-2) + a(n-3)``: from
    ``a(3..5) = 2, 2, 3`` for the chain and ``p(1..3) = 1, 2, 2`` for the
    path, whose minimal models are its maximal independent sets (the
    complements of its minimal vertex covers)."""
    first, counts = {"chain": (3, [2, 2, 3]), "path": (1, [1, 2, 2])}[family]
    while len(counts) <= n - first:
        counts.append(counts[-2] + counts[-3])
    return counts[n - first]
