import itertools
import random

from mincount import (
    AUX,
    CnfFormula,
    CopyVarMap,
    ORIG,
    build_pair,
    copy_formula,
    enumerate_models,
    evaluate,
    count_minimal_brute,
    parse_dimacs,
    with_forced_clauses,
)

from conftest import random_acyclic_formula, random_formula


def clause_set(clauses):
    return {frozenset(c) for c in clauses}


def forced_clauses(formula):
    """The clauses ``with_forced_clauses`` adds after the input's."""
    return with_forced_clauses(formula).clauses[len(formula.clauses):]


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
        assert all(vr.kind == ORIG for vr in with_forced_clauses(ex1).var_ranges)

    def test_two_literal_co_set_gets_auxiliary(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        strengthened = with_forced_clauses(f)
        # the part for variable 1: aux 4 defined as "2 and 3 both false"
        assert forced_clauses(f)[:4] == ((-4, -2), (-4, -3), (4, 2, 3), (-1, 4))
        aux = [vr for vr in strengthened.var_ranges if vr.kind == AUX]
        assert aux == [type(aux[0])(AUX, 4, 6)]

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
        aux = [vr for vr in with_forced_clauses(repeated).var_ranges if vr.kind == AUX]
        assert aux == [type(aux[0])(AUX, 4, 5)]


class TestCopyFormula:
    def test_implication_cycle_image(self, ex2):
        cm = CopyVarMap(offset=3, num_original_vars=3)
        cnf = copy_formula(ex2, cm)
        assert clause_set(cnf.clauses) == clause_set(
            [(-4, 1), (-5, 2), (-6, 3), (-4, 5), (-5, 6), (-6, 4)]
        )

    def test_positive_clause(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        cnf = copy_formula(f, CopyVarMap(offset=2, num_original_vars=2))
        assert clause_set(cnf.clauses) == clause_set([(-3, 1), (-4, 2), (3, 4)])

    def test_negative_clause(self):
        f = parse_dimacs("p cnf 2 1\n-1 -2 0\n")
        cnf = copy_formula(f, CopyVarMap(offset=2, num_original_vars=2))
        assert clause_set(cnf.clauses) == clause_set([(-3, 1), (-4, 2), (-1,), (-2,)])


    def test_uncopied_variables_stand_for_themselves(self):
        # 1, 2 and 5 are copied (to 7, 8 and 11); 3, 4 and 6 are not.
        f = parse_dimacs("p cnf 6 5\n-1 2 0\n-2 1 3 0\n-3 4 0\n-4 -5 0\n-6 -1 0\n")
        cnf = copy_formula(f, CopyVarMap(offset=6, num_original_vars=6), {1, 2, 5})
        # Copy implications and never-positive units for copied variables
        # only (6 gets no unit); no image for (-3, 4), which has no copied
        # variable, nor for the clauses without a positive literal.
        assert cnf.clauses == ((-7, 1), (-8, 2), (-11, 5), (-7, 8), (-8, 7, 3), (-5,))

    def test_no_copies_no_clauses(self, ex2):
        cnf = copy_formula(ex2, CopyVarMap(offset=3, num_original_vars=3), ())
        assert cnf.clauses == ()


class TestBuildPair:
    def test_zero_copy_pair_is_the_strengthened_formula(self, ex2):
        pair = build_pair(ex2, ())
        assert pair.search == with_forced_clauses(ex2)
        assert pair.justification.clauses == ()
        assert pair.copy_map.first_copy_id == 4

    def test_copies_only_for_the_given_variables(self):
        f = parse_dimacs("p cnf 3 3\n-1 2 0\n-2 1 0\n-2 3 0\n")
        pair = build_pair(f, {1, 2})
        assert pair.search == build_pair(f).search
        assert {var for var in pair.justification.variables() if var > 3} == {4, 5}

    def test_positive_cycle_shape(self, ex1):
        pair = build_pair(ex1)
        assert len(pair.search.clauses) == 6
        assert len(pair.justification.clauses) == 6

    def test_implication_cycle_search_side(self, ex2):
        pair = build_pair(ex2)
        assert pair.search.clauses == ex2.clauses + ((-1, 3), (-2, 1), (-3, 2))

    def test_empty_formula(self):
        pair = build_pair(parse_dimacs("p cnf 0 0\n"))
        assert pair.search.clauses == ()
        assert pair.justification.clauses == ()

    def test_variable_universes_disjoint(self):
        rng = random.Random(5)
        for _ in range(25):
            f = random_formula(rng, max_vars=8, max_clauses=15)
            pair = build_pair(f)
            n = f.num_original_vars
            copy_lo = pair.copy_map.first_copy_id
            for var in pair.search.variables():
                assert var < copy_lo, "copy variable leaked into the search side"
            for var in pair.justification.variables():
                assert var <= n or var >= copy_lo, "auxiliary leaked into the copy side"
            shared = pair.search.variables() & pair.justification.variables()
            assert all(var <= n for var in shared)


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
            strengthened = with_forced_clauses(f)
            n = f.num_original_vars
            semantic = {
                frozenset(true_set)
                for mask in range(1 << n)
                for true_set in [{v for v in range(1, n + 1) if mask >> (v - 1) & 1}]
                if _clauses_satisfied(f, true_set) and _forced_semantically(f, true_set)
            }
            projections = [
                frozenset(v for v in model if v <= n)
                for model in enumerate_models(strengthened)
            ]
            assert len(projections) == len(set(projections)), "auxiliary not determined"
            assert set(projections) == semantic

    def test_acyclic_model_count_equals_minimal_count(self):
        rng = random.Random(17)
        accepted = 0
        while accepted < 40:
            f = random_acyclic_formula(rng, max_vars=7, max_clauses=12, max_len=3)
            strengthened = with_forced_clauses(f)
            if len(strengthened.variables()) > 18:
                continue  # keep full enumeration of the auxiliaries feasible
            assert len(enumerate_models(strengthened, limit=18)) == count_minimal_brute(f).count
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
            for m, pair in itertools.product(minimal, (build_pair(f), build_pair(f, copied))):
                true_vars = set(m) | {
                    v for v in pair.justification.variables()
                    if v > f.num_original_vars and pair.copy_map.original_of(v) in m
                }
                assert evaluate(pair.justification, true_vars)


class TestPairConditioning:
    def test_all_true_exhausts_search_side(self, ex2):
        pair = build_pair(ex2)
        # every search clause is satisfied, so none survives conditioning
        assert evaluate(pair.search, {1, 2, 3})
