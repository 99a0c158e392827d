import random

import pytest
from hypothesis import given, settings

from mincount import (
    CnfFormula,
    check_minimal,
    enumerate_models,
    evaluate,
    minimal_models_pairwise,
    parse_dimacs,
    solve,
)

from conftest import cnf_formulas, pair_of, random_formula


class TestSolve:
    def test_direct_contradiction(self):
        f = parse_dimacs("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n")
        assert not solve(f.clauses).satisfiable

    def test_justification_query_of_unjustified_cycle(self, ex2):
        # the copy clauses of the implication cycle under the all-true
        # assignment, plus the demand that some copy be false
        justification = pair_of(ex2)[1]
        residual = tuple(c for c in justification if not {1, 2, 3} & set(c))
        assert residual == ((-4, 5), (-5, 6), (-6, 4))
        assert solve(residual + ((-4, -5, -6),)).satisfiable

    def test_empty_formula_satisfiable(self):
        result = solve(parse_dimacs("p cnf 0 0\n").clauses)
        assert result.satisfiable
        assert result.witness == frozenset()

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_formula(rng, max_vars=8, max_clauses=20)
            first = solve(f.clauses)
            second = solve(f.clauses)
            assert first == second

    @given(cnf_formulas())
    @settings(max_examples=80)
    def test_sound_and_complete_on_small_formulas(self, f):
        result = solve(f.clauses)
        assert result.satisfiable == (len(enumerate_models(f)) > 0)
        if result.satisfiable:
            assert evaluate(f, result.witness)

    def test_shapes_cnf_formulas_never_draws(self):
        # Repeated literals, tautologies, an empty clause, duplicate and
        # conflicting units, and sparse ids, which ``solve`` renumbers.
        rng = random.Random(909)
        outcomes = []
        for _ in range(300):
            num_vars = rng.randint(1, 8)
            clauses = []
            for _ in range(rng.randint(0, 10)):
                clause = [rng.choice((1, -1)) * rng.randint(1, num_vars)
                          for _ in range(rng.randint(1, 3))]
                shape = rng.random()
                if shape < 0.2:
                    clause.insert(rng.randint(0, len(clause)), clause[0])
                elif shape < 0.35:
                    clause.insert(rng.randint(0, len(clause)), -clause[0])
                clauses.append(tuple(clause))
            unit, extra = rng.choice((1, -1)) * rng.randint(1, num_vars), rng.random()
            if extra < 0.05:
                clauses.append(())
            elif extra < 0.3:
                clauses += [(unit,), (unit,)]
            elif extra < 0.5:
                clauses += [(unit,), (-unit,)]
            rng.shuffle(clauses)
            offset = rng.choice((0, 10**6))
            result = solve([tuple(lit + offset if lit > 0 else lit - offset for lit in clause)
                            for clause in clauses])
            formula = CnfFormula(tuple(clauses), num_vars)
            assert result.satisfiable == bool(enumerate_models(formula))
            if result.satisfiable:
                witness = {var - offset for var in result.witness}
                assert witness <= formula.variables()
                assert evaluate(formula, witness)
            outcomes.append(result.satisfiable)
        assert 50 < sum(outcomes) < 250


class TestCheckMinimal:
    def test_dominated_model_rejected(self, ex1):
        assert not check_minimal(ex1, {1, 2, 3})

    def test_minimal_model_accepted(self, ex1):
        assert check_minimal(ex1, {1, 2})

    def test_all_false_model_vacuously_minimal(self, ex2):
        assert check_minimal(ex2, set())

    def test_true_variable_in_no_clause_rejected(self):
        # Variable 2 occurs in no clause, so {1} is a smaller model.
        f = CnfFormula(((1,),), 2)
        assert not check_minimal(f, {1, 2})
        assert not check_minimal(f, [2, 1, 2])
        assert check_minimal(f, {1})
        assert not check_minimal(CnfFormula(((-1,),), 2), {2})

    def test_non_model_rejected(self, ex1):
        with pytest.raises(ValueError, match="model"):
            check_minimal(ex1, {1})

    def test_agrees_with_pairwise_test(self):
        rng = random.Random(47)
        for _ in range(40):
            f = random_formula(rng, max_vars=8, max_clauses=20)
            models = enumerate_models(f)
            minimal = set(minimal_models_pairwise(models))
            for m in models:
                assert check_minimal(f, m) == (m in minimal)
