import random

import pytest
from hypothesis import given, settings

from mincount import (
    build_pair,
    check_minimal,
    enumerate_models,
    evaluate,
    minimal_models_pairwise,
    parse_dimacs,
    solve,
)

from conftest import cnf_formulas, random_formula, total_assignment


class TestSolve:
    def test_direct_contradiction(self):
        f = parse_dimacs("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")
        assert not solve(f).satisfiable

    def test_assumption_forces_witness(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        result = solve(f, assumptions=[-1])
        assert result.satisfiable
        assert result.witness.values == {1: False, 2: True}

    def test_justification_query_of_unjustified_cycle(self, ex2):
        # the copy clauses of the implication cycle under the all-true
        # assignment, plus the demand that some copy be false
        justification = build_pair(ex2).justification
        residual = tuple(c for c in justification.clauses if not {1, 2, 3} & set(c))
        assert residual == ((-4, 5), (-5, 6), (-6, 4))
        query = type(justification)(
            residual + ((-4, -5, -6),),
            justification.num_original_vars,
            justification.var_ranges,
        )
        assert solve(query).satisfiable

    def test_inconsistent_assumptions_rejected(self, ex1):
        with pytest.raises(ValueError, match="inconsistent"):
            solve(ex1, assumptions=[1, -1])

    def test_empty_formula_satisfiable(self):
        result = solve(parse_dimacs("p cnf 0 0\n"))
        assert result.satisfiable
        assert result.witness.values == {}

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_formula(rng, max_vars=8, max_clauses=20)
            first = solve(f)
            second = solve(f)
            assert first.satisfiable == second.satisfiable
            assert first.witness == second.witness
            if first.satisfiable:
                # the same values, assigned in the same order
                assert list(first.witness.values.items()) == list(
                    second.witness.values.items()
                )

    @given(cnf_formulas())
    @settings(max_examples=80)
    def test_sound_and_complete_on_small_formulas(self, f):
        result = solve(f)
        assert result.satisfiable == (len(enumerate_models(f)) > 0)
        if result.satisfiable:
            assert evaluate(f, result.witness)

    def test_assumptions_respected(self):
        rng = random.Random(31)
        for _ in range(30):
            f = random_formula(rng, max_vars=8, max_clauses=16)
            chosen = rng.sample(sorted(f.variables()), min(2, len(f.variables())))
            assumptions = [v if rng.random() < 0.5 else -v for v in chosen]
            result = solve(f, assumptions=assumptions)
            expected = any(
                all((lit > 0) == (abs(lit) in m) for lit in assumptions)
                for m in enumerate_models(f)
            )
            assert result.satisfiable == expected
            if result.satisfiable:
                for lit in assumptions:
                    assert result.witness.lit_value(lit)


class TestCheckMinimal:
    def test_dominated_model_rejected(self, ex1):
        assert not check_minimal(ex1, total_assignment(ex1, {1, 2, 3}))

    def test_minimal_model_accepted(self, ex1):
        assert check_minimal(ex1, total_assignment(ex1, {1, 2}))

    def test_all_false_model_vacuously_minimal(self, ex2):
        assert check_minimal(ex2, total_assignment(ex2, set()))

    def test_non_model_rejected(self, ex1):
        with pytest.raises(ValueError, match="model"):
            check_minimal(ex1, total_assignment(ex1, {1}))

    def test_agrees_with_pairwise_test(self):
        rng = random.Random(47)
        for _ in range(40):
            f = random_formula(rng, max_vars=8, max_clauses=20)
            models = enumerate_models(f)
            minimal = set(minimal_models_pairwise(models).models)
            for m in models:
                assert check_minimal(f, total_assignment(f, m)) == (m in minimal)
