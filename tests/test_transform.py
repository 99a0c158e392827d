import itertools
import random

import pytest

from mincount import (
    CnfFormula,
    build_pair,
    enumerate_models,
    evaluate,
    count_minimal_brute,
    parse_dimacs,
)

from mincount.transform import auxiliary_cnf

from conftest import auxiliary_of, pair_of, random_acyclic_formula, random_formula, strengthened


def clause_set(clauses):
    return {frozenset(c) for c in clauses}


def forced_clauses(formula):
    """The clauses the written search side adds after the input's."""
    return tuple(auxiliary_of(formula, ())[0][len(formula.clauses):])


def first_copy(formula):
    """The lowest copy id of a formula's written pair; auxiliary ids lie
    below it."""
    return auxiliary_of(formula)[3]


class TestForcedFormula:
    def test_positive_cycle(self, ex1):
        # 1 is forced by (1 2) or (3 1): its implication is (-1, -2, -3)
        assert forced_clauses(ex1) == ((-1, -2, -3), (-2, -1, -3), (-3, -2, -1))

    def test_implication_cycle(self, ex2):
        assert forced_clauses(ex2) == ((-1, 3), (-2, 1), (-3, 2))

    def test_never_positive_variables(self):
        assert forced_clauses(parse_dimacs("p cnf 2 1\n-1 -2 0\n")) == ((-1,), (-2,))


class TestTseitinCnf:
    def test_single_literal_co_sets_inline(self, ex1):
        assert forced_clauses(ex1) == ((-1, -2, -3), (-2, -1, -3), (-3, -2, -1))
        assert first_copy(ex1) == 4  # no auxiliary variable

    def test_two_literal_co_set_gets_auxiliary(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        # the part for variable 1: aux 4 defined as "2 and 3 both false"
        assert forced_clauses(f)[:4] == ((-4, -2), (-4, -3), (4, 2, 3), (-1, 4))
        assert first_copy(f) == 7  # auxiliary variables 4..6

    def test_unforceable_variable_pinned_false(self):
        assert forced_clauses(CnfFormula((), 1)) == ((-1,),)

    def test_unit_clause_makes_implication_vacuous(self):
        assert forced_clauses(parse_dimacs("p cnf 1 1\n1 0\n")) == ()

    def test_repeated_clause_gives_one_co_literal_set(self):
        # A repeated input clause once gave the implication (-1, 2, 2), whose
        # unit (2, 2) under 1 = true never propagated.
        f = parse_dimacs("p cnf 3 3\n1 -2 0\n1 -2 0\n2 3 0\n")
        assert forced_clauses(f) == ((-1, 2), (-2, -3), (-3, -2))
        assert count_minimal_brute(f).count == 2
        # ... and a second auxiliary variable with an identical definition.
        repeated = parse_dimacs("p cnf 3 3\n1 2 -3 0\n1 2 -3 0\n3 0\n")
        assert first_copy(repeated) == 6  # auxiliary variables 4 and 5


class TestCopyFormula:
    def test_implication_cycle_image(self, ex2):
        assert clause_set(pair_of(ex2)[1]) == clause_set(
            [(-4, 1), (-5, 2), (-6, 3), (-4, 5), (-5, 6), (-6, 4)]
        )

    def test_positive_clause(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert clause_set(pair_of(f)[1]) == clause_set([(-3, 1), (-4, 2), (3, 4)])

    def test_negative_clause(self):
        f = parse_dimacs("p cnf 2 1\n-1 -2 0\n")
        assert clause_set(pair_of(f)[1]) == clause_set([(-3, 1), (-4, 2), (-1,), (-2,)])

    def test_uncopied_variables_stand_for_themselves(self):
        # The clause (-2, 1, 3) gives auxiliary variables 7 and 8, so the
        # copies of 1, 2 and 5 are 9, 10 and 13; 3, 4 and 6 are not copied.
        f = parse_dimacs("p cnf 6 5\n-1 2 0\n-2 1 3 0\n-3 4 0\n-4 -5 0\n-6 -1 0\n")
        # Copy implications and never-positive units for copied variables
        # only (6 gets no unit); no image for (-3, 4), which has no copied
        # variable, nor for the clauses without a positive literal.
        assert pair_of(f, {1, 2, 5})[1] == [
            (-9, 1), (-10, 2), (-13, 5), (-9, 10), (-10, 9, 3), (-5,)]

    def test_no_copies_no_clauses(self, ex2):
        assert pair_of(ex2, ())[1] == []


class TestBuildPair:
    # (input, copied, search, justification, orig_limit, copy_lo, top) of
    # the written pair, its supports as auxiliary variables, by hand.
    PINNED = [
        # A unit clause: variable 1 needs no implication.
        ("p cnf 2 2\n1 0\n-1 2 0\n", {1, 2},
         [(1,), (-1, 2), (-2, 1)],
         [(-3, 1), (-4, 2), (3,), (-3, 4)], 2, 3, 4),
        # Variables 1 and 3 never occur positively.
        ("p cnf 3 2\n-1 2 0\n-3 -2 0\n", {1, 2, 3},
         [(-1, 2), (-3, -2), (-1,), (-2, 1), (-3,)],
         [(-4, 1), (-5, 2), (-6, 3), (-4, 5), (-1,), (-3,)], 3, 4, 6),
        # A repeated clause: one implication literal, two images.
        ("p cnf 3 3\n1 -2 0\n1 -2 0\n2 3 0\n", {1, 3},
         [(1, -2), (1, -2), (2, 3), (-1, 2), (-2, -3), (-3, -2)],
         [(-4, 1), (-6, 3), (-2, 4), (-2, 4), (2, 6)], 3, 4, 6),
        # An empty clause stays on the search side and has no image.
        ("p cnf 2 2\n0\n1 -2 0\n", {1, 2},
         [(), (1, -2), (-1, 2), (-2,)],
         [(-3, 1), (-4, 2), (-4, 3), (-2,)], 2, 3, 4),
        # Each two-literal co-literal set defines an auxiliary variable.
        ("p cnf 3 1\n1 2 3 0\n", {1},
         [(1, 2, 3),
          (-4, -2), (-4, -3), (4, 2, 3), (-1, 4),
          (-5, -1), (-5, -3), (5, 1, 3), (-2, 5),
          (-6, -1), (-6, -2), (6, 1, 2), (-3, 6)],
         [(-7, 1), (7, 2, 3)], 3, 7, 9),
    ]

    @pytest.mark.parametrize("text, copied, search, justification, orig_limit, copy_lo, top",
                             PINNED)
    def test_plain_sides_are_pinned(self, text, copied, search, justification, orig_limit,
                                    copy_lo, top):
        f = parse_dimacs(text)
        assert auxiliary_cnf(build_pair(f.clauses, f.num_original_vars, copied)) == (
            search, justification, orig_limit, copy_lo, top)

    # (clauses, num_vars, copied) -> pair, recorded before binary clauses
    # got their own branch; the clauses bypass the parse's dedupe.
    BINARY = [
        # (x, x): a repeated literal gives the empty co-literal set, twice.
        (([(1, 1)], 1, [1]), ([(1, 1)], [(-2, 1), (2, 2)], 1, 2, 2)),
        (([(-1, -1)], 1, [1]), ([(-1, -1), (-1,)], [(-2, 1), (-1,)], 1, 2, 2)),
        (([(1, 1), (-1, 2)], 2, [1, 2]),
         ([(1, 1), (-1, 2), (-2, 1)], [(-3, 1), (-4, 2), (3, 3), (-3, 4)], 2, 3, 4)),
        (([(1, -1), (2, 2), (-2, -2)], 2, [1, 2]),
         ([(1, -1), (2, 2), (-2, -2), (-1, 1)], [(-3, 1), (-4, 2), (-3, 3), (4, 4)], 2, 3, 4)),
        # A repeated binary clause: one implication literal, two images.
        (([(-1, 2), (-1, 2), (1, 2)], 2, [2]),
         ([(-1, 2), (-1, 2), (1, 2), (-1, -2), (-2, 1, -1)],
          [(-4, 2), (-1, 4), (-1, 4), (1, 4)], 2, 3, 4)),
        (([(1, 2), (1, 2), (-2, 1)], 2, []),
         ([(1, 2), (1, 2), (-2, 1), (-1, -2, 2), (-2, -1)], [], 2, 3, 4)),
        # A binary clause next to a unit: the unit's variable has no implication.
        (([(1, 2), (2,)], 2, [1, 2]),
         ([(1, 2), (2,), (-1, -2)], [(-3, 1), (-4, 2), (3, 4), (4,)], 2, 3, 4)),
        (([(2,), (-2, 1), (2, 1)], 2, [1]),
         ([(2,), (-2, 1), (2, 1), (-1, 2, -2)], [(-3, 1), (-2, 3), (2, 3)], 2, 3, 4)),
    ]

    @pytest.mark.parametrize("args, pair", BINARY)
    def test_binary_edge_cases_are_pinned(self, args, pair):
        assert auxiliary_cnf(build_pair(*args)) == pair

    # (input, copied) -> the pair itself: a supported variable's implication
    # leaves the search side, and the copies sit above one connector per
    # supported variable.
    NATIVE = [
        ("p cnf 3 1\n1 2 3 0\n", {1},
         ([(1, 2, 3)], [(-7, 1), (7, 2, 3)], 3, 7, 9,
          [(1, 1, [(2, 3)]), (2, 1, [(1, 3)]), (3, 1, [(1, 2)])])),
        # Variable 2 keeps its plain implication; 1 and 3 are supported,
        # with the single co-literal set (2,) of 1 a support too.
        ("p cnf 3 3\n1 -2 -3 0\n1 2 0\n3 -1 -2 0\n", {1, 2, 3},
         ([(1, -2, -3), (1, 2), (3, -1, -2), (-2, -1)],
          [(-6, 1), (-7, 2), (-8, 3), (-7, -8, 6), (6, 7), (-6, -7, 8)], 3, 6, 8,
          [(1, 3, [(-2, -3), (2,)]), (3, 4, [(-1, -2)])])),
    ]

    @pytest.mark.parametrize("text, copied, pair", NATIVE)
    def test_native_pairs_are_pinned(self, text, copied, pair):
        f = parse_dimacs(text)
        assert build_pair(f.clauses, f.num_original_vars, copied) == pair

    def test_zero_copy_pair_is_the_strengthened_formula(self, ex2):
        assert pair_of(ex2, ()) == (list(strengthened(ex2).clauses), [], 3, 4, 6, [])

    def test_copies_only_for_the_given_variables(self):
        f = parse_dimacs("p cnf 3 3\n-1 2 0\n-2 1 0\n-2 3 0\n")
        search, justification, *_ = pair_of(f, {1, 2})
        assert search == pair_of(f)[0]
        assert {abs(lit) for clause in justification for lit in clause} - {1, 2, 3} == {4, 5}

    def test_positive_cycle_shape(self, ex1):
        search, justification, *_ = pair_of(ex1)
        assert len(search) == 6
        assert len(justification) == 6

    def test_implication_cycle_search_side(self, ex2):
        assert pair_of(ex2)[0] == list(ex2.clauses) + [(-1, 3), (-2, 1), (-3, 2)]

    def test_empty_formula(self):
        assert pair_of(parse_dimacs("p cnf 0 0\n")) == ([], [], 0, 1, 0, [])

    def test_variable_universes_disjoint(self):
        rng = random.Random(5)
        for _ in range(25):
            f = random_formula(rng, max_vars=8, max_clauses=15)
            search, justification, n, copy_lo, top, supports = pair_of(f)
            assert n == f.num_original_vars
            search_vars = {abs(lit) for clause in search for lit in clause}
            search_vars.update(abs(lit) for _, _, co_sets in supports
                               for co in co_sets for lit in co)
            copy_vars = {abs(lit) for clause in justification for lit in clause}
            for var in search_vars:
                assert var <= n, "a non-original variable on the search side"
            for var in copy_vars:
                assert var <= n or copy_lo <= var <= top, "auxiliary leaked into the copy side"
            assert all(var <= n for var in search_vars & copy_vars)


def _forced_semantically(formula, true_set):
    """Every true variable has a clause forcing it under the assignment."""
    for x in sorted(true_set):
        forced = False
        for clause in formula.clauses:
            if x not in clause:
                continue
            others = [lit for lit in clause if lit != x]
            if all(
                (lit > 0 and lit not in true_set) or (lit < 0 and -lit in true_set)
                for lit in others
            ):
                forced = True
                break
        if not forced:
            return False
    return True


def _clauses_satisfied(formula, true_set):
    return all(
        any(lit > 0 and lit in true_set or lit < 0 and -lit not in true_set
            for lit in clause)
        for clause in formula.clauses
    )


class TestStrengthenedFormulaSemantics:
    def test_projection_matches_semantic_models(self):
        # the CNF with auxiliaries has exactly one model per semantic model
        # of "input and every true variable is forced"
        rng = random.Random(99)
        for _ in range(30):
            f = random_formula(rng, min_vars=2, max_vars=5, min_clauses=1, max_clauses=8)
            n = f.num_original_vars
            semantic = {
                frozenset(true_set)
                for mask in range(1 << n)
                for true_set in [{v for v in range(1, n + 1) if mask >> (v - 1) & 1}]
                if _clauses_satisfied(f, true_set) and _forced_semantically(f, true_set)
            }
            projections = [
                frozenset(v for v in model if v <= n)
                for model in enumerate_models(strengthened(f))
            ]
            assert len(projections) == len(set(projections)), "auxiliary not determined"
            assert set(projections) == semantic

    def test_acyclic_model_count_equals_minimal_count(self):
        rng = random.Random(17)
        accepted = 0
        while accepted < 40:
            f = random_acyclic_formula(rng, max_vars=7, max_clauses=12, max_len=3)
            search_side = strengthened(f)
            if len(search_side.variables()) > 18:
                continue  # keep full enumeration of the auxiliaries feasible
            assert len(enumerate_models(search_side, limit=18)) == count_minimal_brute(f).count
            accepted += 1

    def test_minimal_models_extended_with_copies_satisfy_justification(self):
        rng = random.Random(23)
        for _ in range(30):
            f = random_formula(rng, min_vars=2, max_vars=6, min_clauses=1, max_clauses=10)
            models = enumerate_models(f)
            minimal = {
                m for m in models
                if not any(other < m for other in models)
            }
            copied = rng.sample(sorted(f.variables()), rng.randint(0, len(f.variables())))
            for m, pair in itertools.product(minimal, (pair_of(f), pair_of(f, copied))):
                justification, n, offset = pair[1], pair[2], pair[3] - 1
                true_vars = set(m) | {
                    v for clause in justification for v in map(abs, clause)
                    if v > n and v - offset in m
                }
                assert evaluate(CnfFormula(tuple(justification), pair[4]), true_vars)


class TestPairConditioning:
    def test_all_true_exhausts_search_side(self, ex2):
        # every search clause is satisfied, so none survives conditioning
        assert evaluate(CnfFormula(tuple(pair_of(ex2)[0]), 3), {1, 2, 3})
