import random

import pytest
from hypothesis import given, settings

from mincount import (
    VariableLimitError,
    count_minimal_brute,
    enumerate_models,
    minimal_models_pairwise,
    parse_dimacs,
)

from conftest import cnf_formulas


class TestEnumerateModels:
    def test_positive_cycle(self, ex1):
        models = enumerate_models(ex1)
        assert set(models) == {
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({1, 3}),
            frozenset({1, 2, 3}),
        }

    def test_implication_cycle(self, ex2):
        assert set(enumerate_models(ex2)) == {frozenset(), frozenset({1, 2, 3})}

    def test_unsatisfiable(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        assert len(enumerate_models(f)) == 0

    def test_enumeration_order_is_binary_counting(self, ex2):
        assert enumerate_models(ex2) == (frozenset(), frozenset({1, 2, 3}))

    @pytest.mark.parametrize("entry", [enumerate_models, count_minimal_brute])
    def test_negative_limit_is_a_plain_value_error(self, entry):
        with pytest.raises(ValueError, match="at least 0, got -5") as raised:
            entry(parse_dimacs("p cnf 0 0\n"), limit=-5)
        assert type(raised.value) is ValueError

    def test_limit_refusal_names_the_limit(self, ex1):
        with pytest.raises(VariableLimitError, match="limit of 2"):
            enumerate_models(ex1, limit=2)


class TestMinimalModelsPairwise:
    def test_positive_cycle(self, ex1):
        minimal = minimal_models_pairwise(enumerate_models(ex1))
        assert set(minimal) == {
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({1, 3}),
        }

    def test_implication_cycle(self, ex2):
        assert set(minimal_models_pairwise(enumerate_models(ex2))) == {frozenset()}

    def test_empty_model_set(self):
        assert minimal_models_pairwise(()) == ()


class TestCountMinimalBrute:
    def test_positive_cycle(self, ex1):
        assert count_minimal_brute(ex1).count == 3

    def test_implication_cycle(self, ex2):
        assert count_minimal_brute(ex2).count == 1

    def test_disjoint_positive_clauses(self):
        f = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n")
        assert count_minimal_brute(f).count == 4

    def test_limit_propagates(self, ex1):
        with pytest.raises(VariableLimitError):
            count_minimal_brute(ex1, limit=2)

    def test_stats_mode(self, ex1):
        assert count_minimal_brute(ex1).stats.mode == "brute"


@given(cnf_formulas())
@settings(max_examples=80)
def test_minimal_models_form_an_antichain(f):
    minimal = list(minimal_models_pairwise(enumerate_models(f)))
    for a in minimal:
        for b in minimal:
            assert not a < b


@given(cnf_formulas())
@settings(max_examples=80)
def test_minimal_count_bounded_by_model_count(f):
    models = enumerate_models(f)
    minimal = minimal_models_pairwise(models)
    assert len(minimal) <= len(models)
    is_antichain = all(not (a < b) for a in models for b in models)
    assert (len(minimal) == len(models)) == is_antichain
