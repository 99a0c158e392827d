"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints one PASS/FAIL line
(visible with ``pytest -s`` or in captured output), and fails hard on
any deviation.  Everything is exact; there are no tolerances.
"""

import random
import time

import pytest

from mincount import (
    BranchPolicy,
    CnfFormula,
    CountStats,
    MIN_ID,
    build_dependency_graph,
    check_minimal,
    count_minimal,
    count_minimal_brute,
    enumerate_models,
    minimal_models_pairwise,
    parse_dimacs,
    strongly_connected_components,
)
import mincount.counting as counting
from mincount.counting import _Database, _bcp, _justification_base, count_pair

from conftest import (
    EX1_TEXT,
    EX2_TEXT,
    pair_of,
    random_acyclic_formula,
    random_formula,
    strengthened,
)

SUITE3_SIZE = 1000
SUITE4_SIZE = 300


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite3():
    rng = random.Random(20250808)
    return [random_formula(rng) for _ in range(SUITE3_SIZE)]


def test_criterion_1_positive_cycle_reproduction():
    started = time.perf_counter()
    f = parse_dimacs(EX1_TEXT)
    model_count = len(enumerate_models(f))
    strengthened_count = len(enumerate_models(strengthened(f)))
    minimal_count = count_minimal(f).count
    acyclic = not strongly_connected_components(build_dependency_graph(f.clauses))
    elapsed = time.perf_counter() - started
    ok = (
        model_count == 4
        and strengthened_count == 3
        and minimal_count == 3
        and acyclic
        and elapsed < 1.0
    )
    report(
        1, ok,
        f"models={model_count} strengthened={strengthened_count} "
        f"minimal={minimal_count} acyclic={acyclic} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_implication_cycle_reproduction():
    started = time.perf_counter()
    f = parse_dimacs(EX2_TEXT)
    graph = build_dependency_graph(f.clauses)
    arcs = {(a, b) for a, heads in graph.items() for b in heads}
    arcs_ok = arcs == {(1, 2), (2, 3), (3, 1)} and bool(strongly_connected_components(graph))

    pair = pair_of(f)
    search, copies = pair[:2]
    forced = search[len(f.clauses):]
    forced_ok = {frozenset(c) for c in forced} == {
        frozenset({-1, 3}), frozenset({-2, 1}), frozenset({-3, 2})
    }

    copy_ok = {frozenset(c) for c in copies} == {
        frozenset({-4, 1}), frozenset({-5, 2}), frozenset({-6, 3}),
        frozenset({-4, 5}), frozenset({-5, 6}), frozenset({-6, 4}),
    }

    strengthened_count = len(enumerate_models(strengthened(f)))
    minimal_count = count_minimal(f).count

    db = _Database(*pair)

    def base_case(assign):
        # Condition the justification side, the search side counting as
        # satisfied, then run the base case on what is left.
        queue = [var if value else -var for var, value in assign.items()]
        assigned, satisfied = _bcp(db, 0, db.search, queue, db.search)
        live = db.all & ~satisfied
        return _justification_base(db, assigned, satisfied, live,
                                   db.occurring(live) & ~assigned, CountStats())

    accepted = base_case({1: False, 2: False, 3: False})
    rejected = base_case({1: True, 2: True, 3: True})

    elapsed = time.perf_counter() - started
    ok = (
        arcs_ok and forced_ok and copy_ok
        and strengthened_count == 2 and minimal_count == 1
        and accepted == 1 and rejected == 0
        and elapsed < 1.0
    )
    report(
        2, ok,
        f"arcs_ok={arcs_ok} forced_ok={forced_ok} copy_ok={copy_ok} "
        f"strengthened={strengthened_count} minimal={minimal_count} "
        f"empty_assignment={accepted} all_true={rejected} elapsed={elapsed:.3f}s",
    )


def test_criterion_3_oracle_equivalence(suite3, monkeypatch):
    started = time.perf_counter()
    mismatches = []
    for index, f in enumerate(suite3):
        want = count_minimal_brute(f).count
        # By truth table, then with every part counted by its pair.
        for table_vars in (counting._TABLE_VARS, 0):
            monkeypatch.setattr(counting, "_TABLE_VARS", table_vars)
            got = count_minimal(f).count
            if got != want:
                mismatches.append((index, table_vars, got, want))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 300.0
    report(
        3, ok,
        f"instances={len(suite3)} mismatches={len(mismatches)} elapsed={elapsed:.1f}s"
        + (f" first={mismatches[0]}" if mismatches else ""),
    )


def test_criterion_4_acyclic_strengthening_counts_minimal_models():
    rng = random.Random(40188)
    mismatches = 0
    for _ in range(SUITE4_SIZE):
        f = random_acyclic_formula(rng)
        assert not strongly_connected_components(build_dependency_graph(f.clauses))
        got = count_pair(pair_of(f, ())).count  # the strengthened model count
        want = count_minimal_brute(f).count
        if got != want:
            mismatches += 1
    report(4, mismatches == 0, f"instances={SUITE4_SIZE} mismatches={mismatches}")


def test_criterion_5_minimality_test_agreement(suite3):
    checked = 0
    disagreements = 0
    for f in suite3:
        models = enumerate_models(f)
        minimal = set(minimal_models_pairwise(models))
        for m in models:
            sat_based = check_minimal(f, m)
            if sat_based != (m in minimal):
                disagreements += 1
            checked += 1
    report(
        5, disagreements == 0,
        f"models_checked={checked} disagreements={disagreements}",
    )


def test_criterion_6_metamorphic_neutrality(suite3, monkeypatch):
    # Decomposition and the branch heuristic act on the pair recursion, so
    # every part is counted by its pair.
    monkeypatch.setattr(counting, "_TABLE_VARS", 0)
    rng = random.Random(60633)
    failures = 0
    for f in suite3:
        baseline = count_minimal(f).count
        no_decomposition = count_minimal(f, use_decomposition=False).count
        min_id = count_minimal(f, policy=BranchPolicy(MIN_ID)).count
        permuted_clauses = list(f.clauses)
        rng.shuffle(permuted_clauses)
        permuted = count_minimal(
            CnfFormula(tuple(permuted_clauses), f.num_original_vars)
        ).count
        if not baseline == no_decomposition == min_id == permuted:
            failures += 1
    report(6, failures == 0, f"instances={len(suite3)} failures={failures}")


def test_criterion_7_degenerate_inputs():
    empty = count_minimal(parse_dimacs("p cnf 0 0\n")).count
    empty_clause = count_minimal(parse_dimacs("p cnf 2 1\n0\n")).count

    all_negative_ok = True
    rng = random.Random(70711)
    for _ in range(50):
        n = rng.randint(2, 8)
        m = rng.randint(1, 12)
        clauses = []
        for _ in range(m):
            k = rng.randint(1, min(3, n))
            clauses.append(tuple(-v for v in rng.sample(range(1, n + 1), k)))
        f = CnfFormula(tuple(clauses), n)
        if count_minimal(f).count != count_minimal_brute(f).count:
            all_negative_ok = False

    padded = count_minimal(parse_dimacs("p cnf 9 2\n1 2 0\n-1 3 0\n")).count
    tight = count_minimal(parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")).count

    ok = (
        empty == 1
        and empty_clause == 0
        and all_negative_ok
        and padded == tight
    )
    report(
        7, ok,
        f"empty={empty} empty_clause={empty_clause} all_negative_ok={all_negative_ok} "
        f"padded={padded} tight={tight}",
    )
