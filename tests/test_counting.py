import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincount import (
    BranchPolicy,
    CnfFormula,
    CountStats,
    MAX_OCCURRENCE,
    MIN_ID,
    build_dependency_graph,
    check_minimal,
    count_minimal,
    count_minimal_brute,
    enumerate_models,
    is_head_cycle_free,
    minimal_models_pairwise,
    parse_dimacs,
    strongly_connected_components,
)
import mincount.counting as counting
from mincount.counting import (
    _CONFLICT,
    _Database,
    _bcp,
    _ids,
    _input_parts,
    _justification_base,
    _split_components,
    count_pair,
)
from mincount.sat import _search, solve
from mincount.transform import auxiliary_cnf, build_pair

from conftest import (
    cnf_formulas,
    count_by_enumeration,
    pair_of,
    planted_cycle_formula,
    random_acyclic_formula,
    random_formula,
    recurrence_count,
)


def _by_pair(monkeypatch, formula, **options):
    """``count_minimal`` with every part counted by its pair recursion."""
    with monkeypatch.context() as patch:
        patch.setattr(counting, "_TABLE_VARS", 0)
        return count_minimal(formula, **options)


class TestCountMinimal:
    def test_positive_cycle(self, ex1):
        result = count_minimal(ex1)
        assert result.count == 3
        assert result.stats.mode == "acyclic"
        assert result.stats.acyclic is True

    def test_implication_cycle(self, ex2):
        result = count_minimal(ex2)
        assert result.count == 1
        assert result.stats.mode == "general"
        assert result.stats.acyclic is False
        assert result.stats.head_cycle_free is True

    def test_empty_formula(self):
        result = count_minimal(parse_dimacs("p cnf 0 0\n"))
        assert (result.count, result.stats.parts) == (1, 0)

    def test_forced_general_mode_on_acyclic_input(self, ex1):
        result = count_minimal(ex1, force_mode="general")
        assert result.count == 3
        assert result.stats.mode == "general"

    def test_forced_acyclic_mode_on_cyclic_input(self, ex2):
        with pytest.raises(ValueError, match="cycle"):
            count_minimal(ex2, force_mode="acyclic")

    def test_unknown_mode(self, ex1):
        with pytest.raises(ValueError, match="unknown mode"):
            count_minimal(ex1, force_mode="fast")

    def test_clauses_given_as_lists(self):
        # A part above the table size goes through ``build_pair``.
        n = 21
        chain = [[-i, i + 1, i + 2] for i in range(1, n - 1)] + [[1]]
        as_lists = CnfFormula(chain, n)
        assert as_lists.clauses == tuple(map(tuple, chain))
        for mode in (None, "general"):  # ``count_by_enumeration`` finds 265 too
            assert count_minimal(as_lists, force_mode=mode).count == 265
        # An empty clause given as a list leaves no model in any mode.
        empty = CnfFormula([[1, 2], []], 2)
        assert count_minimal_brute(empty).count == 0
        for mode in (None, "general", "acyclic"):
            assert count_minimal(empty, force_mode=mode).count == 0
        assert check_minimal(CnfFormula([[1, 2]], 2), {1})
        assert not check_minimal(CnfFormula([[1, 2]], 2), {1, 2})
        assert not solve([[]]).satisfiable


class TestCountModels:
    """The zero-copy pair counts the models of the input strengthened with
    its forced implications."""

    def test_strengthened_positive_cycle(self, ex1):
        assert count_pair(pair_of(ex1, ())).count == 3

    def test_single_unit_clause(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        stats = CountStats()
        assert count_pair(pair_of(f, ()), stats=stats).count == 1
        assert stats.base_cases == stats.sat_calls == stats.cache_entries == 0

    def test_auxiliary_only_component_is_an_error(self):
        # Original 1, auxiliary variables 2 and 3, copy 4.
        pair = ([(2, 3)], [], 1, 4, 4)
        with pytest.raises(ValueError, match="not determined by the originals"):
            count_pair(pair)


class TestCountPair:
    def test_implication_cycle_trace(self, ex2):
        stats = CountStats()
        result = count_pair(pair_of(ex2), stats=stats)
        assert result.count == 1
        # one branch empties the copy side and counts one without a base
        # case; in the other every residual clause has a negative literal,
        # so it counts zero without the solver
        assert stats.base_cases == 1
        assert stats.sat_calls == 0

    def test_disjoint_pairs_multiply(self):
        f = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n")
        assert count_pair(pair_of(f)).count == 4
        # ``count_minimal`` splits the input into its two parts.
        result = count_minimal(f)
        assert (result.count, result.stats.components) == (4, 2)

    def test_conflicting_units_count_zero(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        assert count_pair(pair_of(f)).count == 0


def _database(search, justification=(), *, copy_lo, orig_limit=None):
    """A run's clause database over hand-written clauses."""
    top = max([copy_lo] + [abs(lit) for clause in search + justification for lit in clause])
    return _Database(search, justification, orig_limit=orig_limit or copy_lo - 1,
                     copy_lo=copy_lo, top=top)


def _literals(queue):
    """The assignment a propagation queue made, first literal per variable."""
    assign = {}
    for lit in queue:
        assign.setdefault(abs(lit), lit > 0)
    return assign


def _components(pair):
    db = _Database(*pair)
    return db, _split_components(db, db.all, db.occurring_vars, True)


class TestDecompose:
    def test_syntactically_disjoint(self):
        db, parts = _components(pair_of(parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n")))
        assert len(parts) == 2
        universes = [
            {abs(lit) for index in _ids(clauses) for lit in db.clauses[index]}
            for clauses, _ in parts
        ]
        assert universes[0] & universes[1] == set()
        assert 1 in universes[0]
        assert [set(_ids(variables)) for _, variables in parts] == universes
        assert parts[0][0] | parts[1][0] == db.all
        assert parts[0][0] & parts[1][0] == 0

    def test_cycle_is_one_component(self, ex2):
        db, parts = _components(pair_of(ex2))
        assert parts == [(db.all, db.occurring(db.all))]

    def test_empty_pair_has_no_components(self):
        assert _components(pair_of(parse_dimacs("p cnf 0 0\n")))[1] == []

    @staticmethod
    def _reference(db, live, free, enabled):
        """The components by a breadth-first search over sets of ids."""
        def mask(ids):
            return sum(1 << i for i in ids)

        left, free_ids = set(_ids(live)), set(_ids(free))
        clause_free = {index: {abs(lit) for lit in db.clauses[index]} & free_ids
                       for index in left}
        if not enabled:
            return [(live, mask(set().union(*clause_free.values())))]
        components = []
        while left:
            level = [min(left)]
            clauses, variables = set(level), set()
            while level:
                found = {var for index in level for var in clause_free[index]} - variables
                variables |= found
                level = [index for index in left - clauses if clause_free[index] & found]
                clauses.update(level)
            left -= clauses
            components.append((mask(clauses), mask(variables)))
        return components

    def _check(self, db, live, free, enabled=True):
        expected = self._reference(db, live, free, enabled)
        assert _split_components(db, live, free, enabled) == expected
        return expected

    def test_walk_matches_reference_on_random_nodes(self):
        rng = random.Random(1303)
        for _ in range(150):
            f = random_formula(rng, max_vars=30, max_clauses=60, max_len=3)
            copied = f.variables() if rng.random() < 0.5 else ()
            db = _Database(*pair_of(f, copied))
            enabled = rng.random() < 0.8
            # A random node.
            live = db.all & rng.getrandbits(db.all.bit_length())
            free = db.occurring_vars & rng.getrandbits(db.occurring_vars.bit_length())
            self._check(db, live, free, enabled)
            # Nodes that propagation reaches from random decisions.
            decisions = rng.sample(sorted(f.variables()), min(4, len(f.variables())))
            queue = list(db.units) + [var if rng.random() < 0.5 else -var for var in decisions]
            result = _bcp(db, 0, 0, queue, db.search)
            if result is not _CONFLICT:
                assigned, satisfied = result
                self._check(db, db.all & ~satisfied, db.occurring_vars & ~assigned, enabled)

    def test_walk_matches_reference_on_disjoint_unions(self):
        rng = random.Random(1304)
        for _ in range(40):
            blocks = [random_formula(rng, max_vars=8, max_clauses=20, max_len=3)
                      for _ in range(rng.randint(2, 5))]
            clauses, shift = [], 0
            for block in blocks:
                clauses += [tuple(lit + shift if lit > 0 else lit - shift for lit in clause)
                            for clause in block.clauses]
                shift += block.num_original_vars
            db = _Database(*pair_of(CnfFormula(tuple(clauses), shift)))
            assert len(self._check(db, db.all, db.occurring_vars)) >= len(
                _input_parts(clauses, True))
            self._check(db, db.all, db.occurring_vars, False)

    def test_walk_matches_reference_on_a_thin_chain_and_a_dense_root(self):
        # A chain node after propagation walks many thin levels.
        n = 60
        chain = [(-i, i + 1, i + 2) for i in range(1, n - 1)] + [(1,)]
        db = _Database(*pair_of(CnfFormula(tuple(chain), n)))
        assigned, satisfied = _bcp(db, 0, 0, list(db.units), db.search)
        self._check(db, db.all & ~satisfied, db.occurring_vars & ~assigned)
        # A dense 3-CNF root is reached in a few wide levels.
        rng = random.Random(1305)
        clauses = tuple(tuple(var if rng.random() < 0.5 else -var
                              for var in rng.sample(range(1, 31), 3)) for _ in range(120))
        db = _Database(*pair_of(CnfFormula(clauses, 30)))
        assert len(self._check(db, db.all, db.occurring_vars)) == 1


def _messy_formula(rng):
    """Up to 10 variables, some never positive; clauses of one to five
    literals drawn with replacement, so units, repeated literals,
    tautologies and clauses that need auxiliary variables all occur."""
    n = rng.randint(2, 10)
    never_positive = set(rng.sample(range(1, n + 1), rng.randint(0, n // 3)))
    clauses = []
    for _ in range(rng.randint(1, 2 * n)):
        variables = [rng.randint(1, n) for _ in range(rng.choice((1, 2, 2, 3, 3, 4, 5)))]
        clauses.append(tuple(-var if var in never_positive or rng.random() < 0.5 else var
                             for var in variables))
    return CnfFormula(tuple(clauses), n)


class TestRootWalk:
    """``count_pair`` walks every node's components, its root's included,
    so it counts any pair, connected or not."""

    def test_every_part_root_walks_to_its_recorded_mask(self, monkeypatch):
        pairs = []
        original = counting.count_pair

        def spy(pair, **kwargs):
            pairs.append(pair)
            return original(pair, **kwargs)

        monkeypatch.setattr(counting, "count_pair", spy)
        rng = random.Random(1402)
        runs = dict.fromkeys((None, "general", "acyclic"), 0)
        for _ in range(150):
            f = _messy_formula(rng)
            expected = count_minimal_brute(f).count
            for mode in runs:
                try:
                    assert count_minimal(f, force_mode=mode).count == expected
                except ValueError:  # forced acyclic on a cyclic formula
                    continue
                runs[mode] += 1
        assert min(runs.values()) >= 30
        untouched = 0
        for pair in pairs:
            db = _Database(*pair)
            if db.empty:
                continue
            assert db.occurring_vars == db.occurring(db.all)
            assert _split_components(db, db.all, db.occurring_vars, True) == [
                (db.all, db.occurring_vars)]
            result = _bcp(db, 0, 0, list(db.units), db.search)
            untouched += result is not _CONFLICT and not result[0]
        assert untouched >= 20

    def test_disjoint_union_splits_at_its_root(self, monkeypatch):
        # Random formulas over disjoint ids, handed to ``count_pair`` as one
        # pair: a root that propagates nothing is walked over the whole
        # database and splits into the parts' components there.
        walks = []
        original = counting._split_components

        def spy(db, live, free, enabled):
            components = original(db, live, free, enabled)
            walks.append((live, components))
            return components

        monkeypatch.setattr(counting, "_split_components", spy)
        rng = random.Random(1501)
        split = 0
        for _ in range(40):
            formulas = [random_formula(rng, max_vars=6, min_clauses=8, max_clauses=14,
                                       min_len=2)
                        for _ in range(rng.randint(2, 3))]
            clauses, offset, expected = (), 0, 1
            for f in formulas:
                clauses += _shifted(f, offset)
                offset += f.num_original_vars
                expected *= count_minimal_brute(f).count
            union = CnfFormula(clauses, offset)
            copied = union.variables() if rng.random() < 0.5 else (
                strongly_connected_components(build_dependency_graph(union.clauses)))
            pair = pair_of(union, copied)
            db = _Database(*pair)
            root = _bcp(db, 0, 0, list(db.units), db.search)
            walks.clear()
            assert count_pair(pair).count == expected
            if root is not _CONFLICT and not root[0]:
                live, components = walks[0]
                assert live == db.all and len(components) >= 2
                split += 1
            assert count_pair(pair, use_decomposition=False).count == expected
        assert split >= 15


class TestPropagation:
    def test_child_fixpoint_matches_fixpoint_from_scratch(self):
        # Both children of a decision propagate from their parent's masks;
        # propagating the decision together with the unit clauses from the
        # empty assignment must reach the same fixpoint.
        rng = random.Random(505)
        compared = 0
        for _ in range(80):
            f = random_formula(rng, max_clauses=25, min_len=2)
            db = _Database(*pair_of(f))
            root = _bcp(db, 0, 0, list(db.units), db.search)
            if root is _CONFLICT:
                continue
            assigned, satisfied = root
            live, free = db.all & ~satisfied, db.occurring_vars & ~assigned
            for clauses, variables in _split_components(db, live, free, True):
                if not clauses & db.search:
                    continue
                var = BranchPolicy().pick(db, clauses, variables)
                for lit in (-var, var):
                    child = _bcp(db, assigned, satisfied, [lit], db.search)
                    fresh = _bcp(db, 0, 0, list(db.units) + [lit], db.search)
                    assert (child is _CONFLICT) == (fresh is _CONFLICT)
                    if child is not _CONFLICT:
                        assert child == fresh
                        compared += 1
        assert compared > 50

    CHAIN = ((-1, 2), (-2, 3), (-3, 1))

    def test_implication_chain_forward(self):
        db, queue = _database(self.CHAIN, copy_lo=4), [1]
        assert _bcp(db, 0, 0, queue, db.search) == (0b1110, db.all)
        assert queue == [1, 2, 3]

    def test_implication_chain_backward(self):
        db, queue = _database(self.CHAIN, copy_lo=4), [-1]
        assert _bcp(db, 0, 0, queue, db.search) == (0b1110, db.all)
        assert queue == [-1, -3, -2]

    def test_no_unit_no_change(self):
        queue = []
        db = _database(((1, 2),), copy_lo=3)
        assert _bcp(db, 0, 0, queue, db.search) == (0, 0)
        assert queue == []

    def test_conflicting_units(self):
        db = _database(((1,), (-1,)), copy_lo=2)
        assert _bcp(db, 0, 0, list(db.units), db.search) is _CONFLICT

    @given(cnf_formulas(), st.lists(st.sampled_from((-1, 0, 1)), min_size=6, max_size=6))
    @settings(max_examples=100)
    def test_fixpoint_of_the_pair(self, f, signs):
        # From the unit clauses and some decided originals.
        search, _, _, copy_lo, _, supports = pair = pair_of(f)
        db = _Database(*pair)
        queue = [sign * var for var, sign in zip(range(1, f.num_original_vars + 1), signs)
                 if sign] + db.units
        result = _bcp(db, 0, 0, queue, db.search)
        assign = _literals(queue)

        def true(lit):
            return assign.get(abs(lit)) == (lit > 0)

        # A supported variable is settled when false or justified by a
        # support whose co-literals are all false; a true co-literal spoils
        # a support.
        settled, unspoiled = {}, {}
        for x, _, co_sets in supports:
            settled[x] = true(-x) or true(x) and any(
                all(true(-lit) for lit in co) for co in co_sets)
            unspoiled[x] = [co for co in co_sets if not any(map(true, co))]
        if result is _CONFLICT:
            assert any(all(true(-lit) for lit in clause) for clause in search) or any(
                true(x) and not unspoiled[x] for x in unspoiled)
            return
        assigned, satisfied = result
        assert assigned == sum(1 << var for var in assign)
        # Exactly the clauses with a true literal are satisfied, the supports
        # spoiled or settled, and the triggers settled.  No residual search
        # clause is a unit, nor a justification one over a copy.
        assert _ids(satisfied) == [
            index for index, clause in enumerate(db.clauses)
            if settled.get(db.owner.get(index)) or any(map(true, clause))
        ]
        for index in _ids(db.all & ~satisfied):
            if index in db.owner:  # a support
                continue
            residual = [lit for lit in db.clauses[index] if abs(lit) not in assign]
            assert len(residual) > 1 or (
                index >= len(search) and abs(residual[0]) < copy_lo
            )
        # The support rule is at its fixpoint too.
        for x in settled:
            if not settled[x]:
                assert len(unspoiled[x]) >= (2 if true(x) else 1)


def _base_case(pair, assign, stats=None):
    # The base case runs on the justification side at a unit fixpoint:
    # the search side counts as satisfied.
    stats = stats or CountStats()
    db = _Database(*pair)
    queue = [var if value else -var for var, value in assign.items()]
    assigned, satisfied = _bcp(db, 0, db.search, queue, db.search)
    live = db.all & ~satisfied
    return _justification_base(db, assigned, satisfied, live,
                               db.occurring(live) & ~assigned, stats)


def _copy_query(justification, stats):
    # A base case over hand-written copy clauses, every variable free.
    db = _database((), justification, copy_lo=4)
    return db, _justification_base(db, 0, 0, db.all, db.occurring(db.all), stats)


class TestBaseCase:
    def test_all_false_assignment_accepted(self, ex2):
        stats = CountStats()
        assert _base_case(pair_of(ex2), {1: False, 2: False, 3: False}, stats) == 1
        assert stats.sat_calls == 0

    def test_all_true_assignment_rejected(self, ex2):
        # The residual (-4, 5), (-5, 6), (-6, 4) holds with every copy false.
        stats = CountStats()
        assert _base_case(pair_of(ex2), {1: True, 2: True, 3: True}, stats) == 0
        assert (stats.base_cases, stats.sat_calls) == (1, 0)

    def test_positive_residual_clause_takes_a_sat_call(self):
        # With 1 and 2 true, the image (3, 4) of (1, 2) has no negative
        # literal; the solver finds no model with a copy false.
        f = parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n-2 1 0\n")
        stats = CountStats()
        assert _base_case(pair_of(f), {1: True, 2: True}, stats) == 1
        assert (stats.base_cases, stats.sat_calls) == (1, 1)

    def test_every_base_case_agrees_with_solve(self, monkeypatch):
        # Rebuild each base case's query as clause tuples: the residual with
        # its assigned literals dropped, plus the demand that some live copy
        # be false.  The base case counts zero exactly when ``solve`` finds
        # that satisfiable; an empty residual demands the empty clause.
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)
        original = counting._justification_base
        answers = []

        def spy(db, assigned, satisfied, clauses, variables, stats):
            calls = stats.sat_calls
            value = original(db, assigned, satisfied, clauses, variables, stats)
            queue = [-var for var in _ids(variables & db.below_copies)]
            assigned, satisfied = _bcp(db, assigned, satisfied, queue, db.search)
            residual = [
                tuple(lit for lit in db.clauses[index] if not assigned >> abs(lit) & 1)
                for index in _ids(clauses & ~satisfied)
            ]
            live = sorted({abs(lit) for clause in residual for lit in clause})
            unjustified = solve(residual + [tuple(-var for var in live)]).satisfiable
            answers.append((stats.sat_calls > calls, value == 0, unjustified))
            return value

        monkeypatch.setattr(counting, "_justification_base", spy)
        rng = random.Random(1111)
        for _ in range(150):
            for f, mode in ((random_formula(rng, max_vars=10, max_clauses=20), "general"),
                            (planted_cycle_formula(rng), None)):
                assert count_minimal(f, force_mode=mode).count == count_minimal_brute(f).count
        assert [(rejected, unjustified) for _, rejected, unjustified in answers
                if rejected != unjustified] == []
        searched = [rejected for searched, rejected, _ in answers if searched]
        assert len(answers) - len(searched) > 50
        assert searched.count(True) > 10 and searched.count(False) > 10

    def test_ring_closed_by_a_positive_chord_is_justified(self):
        # The ring makes 4, 5 and 6 equal and the chord (4, 5) makes them
        # true: the least model is all true, so no copy can be false.
        stats = CountStats()
        db, value = _copy_query(((-4, 5), (-5, 6), (-6, 4), (4, 5)), stats)
        assert (value, stats.sat_calls) == (1, 1)
        assert _search(db, 0, 0, db.all, db.variables, []) == (4, 5, 6)

    def test_model_with_a_free_copy_is_unjustified(self):
        # 4 = false conflicts; 4 = true satisfies every clause and leaves
        # 5 and 6 free, so they can be false although no literal says so.
        stats = CountStats()
        db, value = _copy_query(((4, 5), (4, -5), (4, 6)), stats)
        assert (value, stats.sat_calls) == (0, 1)
        assert _search(db, 0, 0, db.all, db.variables, []) == (4,)

    def test_later_branch_finds_a_false_copy(self):
        # 4 = false conflicts, and under 4 = true so does 5 = false; the
        # third branch, 5 = true, forces 6 false: a model with a false copy.
        stats = CountStats()
        db, value = _copy_query(((4, 5), (4, -5), (5, 6), (5, -6), (-5, -6)), stats)
        assert (value, stats.sat_calls) == (0, 1)
        assert _search(db, 0, 0, db.all, db.variables, []) == (4, 5)

    def test_copy_units_propagate_to_empty(self):
        # Original 1 defaults to false, which empties copy 4 and then copy 5.
        stats = CountStats()
        db = _database((), ((-4, 1), (-5, 4)), copy_lo=4)
        assert _justification_base(db, 0, 0, db.all, 0b110010, stats) == 1
        assert (stats.sat_calls, stats.base_cases, stats.propagations) == (0, 1, 2)

    def test_accepts_exactly_the_minimal_models(self):
        # drive the base case with every total candidate directly
        rng = random.Random(61)
        checked = 0
        for _ in range(80):
            f = random_formula(rng, max_vars=7, max_clauses=14)
            pair = pair_of(f)
            search = _Database(pair[0], [], *pair[2:])
            models = enumerate_models(f)
            minimal = set(minimal_models_pairwise(models))
            for m in models:
                assign = {var: var in m for var in range(1, f.num_original_vars + 1)}
                queue = [var if value else -var for var, value in assign.items()]
                outcome = _bcp(search, 0, 0, queue, search.search)
                if outcome is _CONFLICT:
                    continue  # candidate violates the forced implications
                if search.all & ~outcome[1]:
                    continue
                assert _base_case(pair, assign) == (1 if m in minimal else 0)
                checked += 1
        assert checked > 50


class TestRepeatedVariables:
    """A tautology (such as the implication the search side gets for pin
    row 4) never acts as a unit, a repeated literal counts once,
    and counts stay exact."""

    def test_tautology_is_never_a_unit(self):
        db, queue = _database(((-1, 2, -2),), copy_lo=3), [1]
        assert _bcp(db, 0, 0, queue, db.search) == (0b10, 0)
        assert queue == [1]

    def test_repeated_literal_propagates(self):
        db, queue = _database(((-1, 2, 2),), copy_lo=3), [1]
        assert _bcp(db, 0, 0, queue, db.search) == (0b110, 1)
        assert queue == [1, 2]
        assert _database(((2, 2),), copy_lo=3).units == [2]

    def test_emptied_clause_of_the_conflict_mask_is_a_conflict(self):
        # Asserting -4 empties the justification clause (4, -5): outside the
        # mask that is an invariant violation, inside it a conflict.
        db = _database((), ((4, 5), (4, -5)), copy_lo=4)
        with pytest.raises(RuntimeError, match="falsified"):
            _bcp(db, 0, 0, [-4], db.search)
        assert _bcp(db, 0, 0, [-4], db.all) is _CONFLICT
        assert _search(db, 0, 0, db.all, db.variables, [-4]) is None
        assert _search(db, 0, 0, db.all, db.variables, []) == (4,)

    def test_repeated_literal_falsified_is_a_conflict(self):
        db = _database(((-1, 2, 2),), copy_lo=3)
        assert _bcp(db, 0, 0, [1, -2], db.search) is _CONFLICT

    def test_pinned_formula_has_a_tautology(self):
        formula = list(_search_shape_formulas())[4]
        assert (-22, 24, -24) in pair_of(formula, ())[0]

    def test_hand_built_pairs_match_oracle(self):
        # The search side gains a tautology and a copy of one of its clauses
        # with a literal repeated; neither changes the models.
        rng = random.Random(707)
        for _ in range(60):
            f = random_formula(rng, max_vars=10, max_clauses=16, min_len=2)
            search, *rest = pair_of(f)
            first = f.clauses[0]
            extra = [(-abs(first[0]), abs(first[1]), -abs(first[1])), first + first[-1:]]
            hand_built = (search + extra, *rest)
            assert count_pair(hand_built).count == count_minimal_brute(f).count

    @pytest.mark.parametrize("repeat", ["clause", "literal"])
    def test_repeats_in_input_match_oracle(self, monkeypatch, repeat):
        # In (1, 2, 2), (1, 3) the auxiliary co-literal variable of (2, 2)
        # is left a unit once 1 and 3 are false, and must propagate.
        formulas = [CnfFormula(((1, 2, 2), (1, 3)), 3)] if repeat == "literal" else []
        rng = random.Random(808)
        for _ in range(200):
            f = random_formula(rng, max_vars=12, max_clauses=20)
            clauses = list(f.clauses)
            if repeat == "clause":
                clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(clauses))
            else:
                index = rng.randrange(len(clauses))
                clauses[index] += (rng.choice(clauses[index]),)
            formulas.append(CnfFormula(tuple(clauses), f.num_original_vars))
        for repeated in formulas:
            expected = count_minimal_brute(repeated).count
            assert count_minimal(repeated).count == expected
            assert _by_pair(monkeypatch, repeated).count == expected
            assert count_minimal(repeated, force_mode="general").count == expected
            assert count_minimal(repeated, use_decomposition=False).count == expected


def _short_clause_formula(rng):
    """A formula over 8-14 variables, mostly of 3-4-literal clauses, with
    some repeated clauses and some clauses repeating a literal."""
    f = random_formula(rng, min_vars=8, max_vars=14, min_clauses=5, max_clauses=20,
                       min_len=3, max_len=4)
    clauses = list(f.clauses)
    clauses += random_formula(rng, min_vars=f.num_original_vars,
                              max_vars=f.num_original_vars, min_clauses=0,
                              max_clauses=3, min_len=1, max_len=2).clauses
    for _ in range(rng.randint(0, 2)):
        clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(clauses))
    for _ in range(rng.randint(0, 2)):
        index = rng.randrange(len(clauses))
        clauses[index] += (rng.choice(clauses[index]),)
    return CnfFormula(tuple(clauses), f.num_original_vars)


def _once_positive_formula(rng, ordered=False):
    """A formula over 6-14 variables where most variables occur positively
    in one clause alone, of two to four literals: they get one co-literal
    set each.  The other literals are mostly negative; with ``ordered``,
    those of lower variables are and those of higher ones are not, so
    every arc goes up and the formula is acyclic."""
    n = rng.randint(6, 14)
    clauses = []
    for var in range(1, n + 1):
        for _ in range(1 if rng.random() < 0.7 else rng.randint(0, 2)):
            others = rng.sample([v for v in range(1, n + 1) if v != var], rng.randint(1, 3))
            if ordered:
                others = [-v if v < var else v for v in others
                          if v < var or rng.random() < 0.2]
            else:
                others = [v if rng.random() < 0.15 else -v for v in others]
            clauses.append((var, *others))
    rng.shuffle(clauses)
    return CnfFormula(tuple(clauses), n)


class TestRetiredDefinitions:
    """The auxiliary definitions of the forced implications are retired from
    the counting engine: each co-literal set of a variable with two or more
    is a support that ``_bcp`` propagates by the support rule, a lone set
    is binary clauses, and ``auxiliary_cnf`` writes the definitions back
    only for ``--emit-pair`` and for these cross-checks."""

    # Originals 1-3; 1's co-literals (-2, -3) are its one set, which the
    # auxiliary CNF defines as variable 4 and the database writes as binary
    # clauses.  The minimal models are {2} and {3}.
    CLAUSES = [(1, -2, -3), (2, 3)]

    def test_every_definition_build_pair_emits_retires(self):
        # Every auxiliary variable of the written CNF is a co-literal set of
        # the pair, and the pair's ids between the originals and the copies
        # are reserved, one per supported variable.  Those of the variables
        # with two or more sets are the connectors of their supports.
        rng = random.Random(31)
        for _ in range(40):
            f = _short_clause_formula(rng)
            for copied in ((), None):
                pair = pair_of(f, copied)
                search, _, n, copy_lo, _, supports = pair
                written = auxiliary_cnf(pair)
                sets = [co for _, _, co_sets in supports for co in co_sets]
                assert written[3] - n - 1 == sum(len(co) > 1 for co in sets)
                assert copy_lo == n + 1 + len(supports)
                assert all(abs(lit) <= n for clause in search for lit in clause)
                db = _Database(*pair)
                chosen = [co for _, _, co_sets in supports if len(co_sets) > 1
                          for co in co_sets]
                assert (db.all & sum(db.settle.values())).bit_count() == len(chosen)
                for connector, (x, _, co_sets) in enumerate(supports, n + 1):
                    if len(co_sets) == 1:
                        assert not db.occurs[connector]
                        continue
                    assert db.occurs[connector] == db.settle[x] & db.all
                    for index in _ids(db.occurs[connector]):
                        assert db.owner[index] == x
                        assert db.clause_vars[index] >> x & 1

    def test_the_use_retires_the_definition_and_its_negative_clauses(self):
        pair = build_pair(self.CLAUSES, 3, ())
        assert pair[0] == [(1, -2, -3), (2, 3), (-2, -3), (-3, -2)]
        assert pair[3:] == (5, 7, [(1, 2, [(-2, -3)])])
        assert auxiliary_cnf(pair)[0][2:6] == [(-4, 2), (-4, 3), (4, -2, -3), (-1, 4)]
        assert count_pair(pair).count == count_pair(auxiliary_cnf(pair)).count == 2

    def test_one_set_is_binary_clauses(self):
        # 1's lone set (-2, -3) becomes the search clauses (-1, 2) and
        # (-1, 3), after the input's: no support, trigger or connector,
        # and its reserved id 4 is no variable.
        pair = build_pair(self.CLAUSES, 3, ())
        db = _Database(*pair)
        assert db.clauses[:db.num_search] == (*pair[0], (-1, 2), (-1, 3))
        assert db.settle == db.owner == {}
        assert db.search == db.all == (1 << 6) - 1
        assert db.variables == 0b11101110

    def test_supports_and_triggers_only_for_two_or_more_sets(self):
        rng = random.Random(3131)
        kinds = Counter()
        for i in range(60):
            f = _once_positive_formula(rng) if i % 2 else _short_clause_formula(rng)
            for copied in ((), None):
                search, _, n, copy_lo, _, supports = pair = pair_of(f, copied)
                db = _Database(*pair)
                many = {x: co_sets for x, _, co_sets in supports if len(co_sets) > 1}
                binary = [(-x, -lit) for x, _, co_sets in supports if len(co_sets) == 1
                          for lit in co_sets[0]]
                assert db.clauses[:db.num_search] == tuple(
                    tuple(dict.fromkeys(clause)) for clause in search + binary)
                assert set(db.settle) == set(db.owner.values()) == set(many)
                for x, co_sets in many.items():  # a bit per set, and a trigger
                    assert (db.settle[x] & db.all).bit_count() == len(co_sets)
                    assert (db.settle[x] >> db.all.bit_length()).bit_count() == 1
                assert (db.search >> db.all.bit_length()).bit_count() == len(many)
                # The reserved ids lie between the originals and the copies.
                assert copy_lo == n + 1 + len(supports)
                assert db.variables & (1 << copy_lo) - 1 == db.originals
                kinds["one"] += len(supports) - len(many)
                kinds["many"] += len(many)
        assert kinds["one"] > 100 and kinds["many"] > 100

    @pytest.mark.parametrize("search, justification", [
        ([(4, -2, -3, 1)], []),  # a third positive occurrence of 4
        ([(-4, 1)], []),  # -4 without a negated literal of the definition
        ([], [(-4, 2)]),  # 4 in a justification clause
    ])
    def test_pairs_failing_the_condition_retire_nothing(self, search, justification):
        # A hand-written pair of plain clauses has no support, and its
        # auxiliary variable is counted like any clause variable.  Each extra
        # clause holds in every model of the search side.
        written = auxiliary_cnf(build_pair(self.CLAUSES, 3, ()))
        pair = (written[0] + search, written[1] + justification, *written[2:])
        assert _Database(*pair).owner == {}
        assert count_pair(pair).count == 2

    @pytest.mark.parametrize("cached", [True, False])
    def test_short_clauses_match_oracle(self, monkeypatch, cached):
        if not cached:
            monkeypatch.setattr(counting, "_CACHE_WORD_BUDGET", 0)
        # With formulas whose variables mostly have one co-literal set, and
        # forced ``acyclic`` on the acyclic ones.
        rng, once = random.Random(4242), random.Random(3132)
        formulas = [_short_clause_formula(rng) for _ in range(25)]
        formulas += [_once_positive_formula(once, ordered=i % 2) for i in range(30)]
        for f in formulas:
            expected = count_minimal_brute(f).count
            cyclic = strongly_connected_components(build_dependency_graph(f.clauses))
            for mode in (None, "general") + (() if cyclic else ("acyclic",)):
                for decompose in (True, False):
                    for heuristic in (MAX_OCCURRENCE, MIN_ID):
                        options = dict(policy=BranchPolicy(heuristic),
                                       use_decomposition=decompose, force_mode=mode)
                        assert count_minimal(f, **options).count == expected
                        assert _by_pair(monkeypatch, f, **options).count == expected

    def test_retiring_agrees_with_not_retiring_and_searches_less(self, monkeypatch):
        # The support rule against the auxiliary CNF counted as plain
        # clauses: the same counts, with fewer literals propagated.
        written = counting.build_pair
        counts, propagations = [], [0, 0]
        for formula in _differential_formulas(41, 8):
            for side in (0, 1):
                if side:
                    monkeypatch.setattr(counting, "build_pair",
                                        lambda *args: auxiliary_cnf(written(*args)))
                result = count_minimal(formula, force_mode="general")
                monkeypatch.undo()
                counts.append(result.count)
                propagations[side] += result.stats.propagations
        assert counts[::2] == counts[1::2]
        assert propagations[0] < propagations[1]

    def test_bcp_matches_the_auxiliary_cnf(self):
        # From random partial assignments of the originals, propagation over
        # the pair and over its auxiliary CNF as plain clauses conflicts
        # alike and otherwise assigns the same originals, and the same
        # copies up to their ids.
        rng = random.Random(2301)
        outcomes = Counter()
        for _ in range(300):
            f = random_formula(rng, min_vars=1, max_vars=10, min_clauses=1, max_clauses=20,
                               min_len=1, max_len=4)
            n = f.num_original_vars
            copied = rng.choice([(), None, rng.sample(range(1, n + 1), rng.randint(0, n))])
            pair = pair_of(f, copied)
            written = auxiliary_cnf(pair)
            native, plain = _Database(*pair), _Database(*written)
            outcomes["supports"] += bool(pair[5])
            for _ in range(4):
                chosen = rng.sample(range(1, n + 1), rng.randint(0, n))
                decided = [var if rng.random() < 0.5 else -var for var in chosen]
                values = []
                for db, copy_lo in ((native, pair[3]), (plain, written[3])):
                    queue = decided + db.units
                    result = _bcp(db, 0, 0, queue, db.search)
                    if result is _CONFLICT:
                        values.append(None)
                        continue
                    shift = copy_lo - 1 - n
                    values.append({var - shift if var >= copy_lo else var: value
                                   for var, value in _literals(queue).items()
                                   if var <= n or var >= copy_lo})
                assert values[0] == values[1]
                outcomes["conflict" if values[0] is None else "fixpoint"] += 1
        assert min(outcomes.values()) > 100, outcomes


class TestInvariants:
    def test_engine_matches_oracle(self, monkeypatch):
        rng = random.Random(2024)
        for _ in range(150):
            f = random_formula(rng)
            expected = count_minimal_brute(f).count
            assert count_minimal(f).count == _by_pair(monkeypatch, f).count == expected

    # Decomposition and the branch heuristic act on the recursion only.

    def test_decomposition_neutrality(self, monkeypatch):
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)
        rng = random.Random(101)
        for _ in range(60):
            f = random_formula(rng, max_clauses=25)
            assert (
                count_minimal(f, use_decomposition=True).count
                == count_minimal(f, use_decomposition=False).count
            )

    def test_branch_policy_neutrality(self, monkeypatch):
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)
        rng = random.Random(202)
        for _ in range(60):
            f = random_formula(rng, max_clauses=25)
            assert (
                count_minimal(f, policy=BranchPolicy(MIN_ID)).count
                == count_minimal(f, policy=BranchPolicy(MAX_OCCURRENCE)).count
            )

    def test_acyclic_path_agrees_with_general_path(self):
        rng = random.Random(303)
        for _ in range(60):
            f = random_acyclic_formula(rng)
            zero_copy = count_pair(pair_of(f, ())).count
            full_copy = count_pair(pair_of(f)).count
            assert zero_copy == full_copy == count_minimal(f).count

    def test_decision_split_partitions_the_count(self):
        # fixing any decision variable to false and to true in two
        # independent runs must split the unconstrained count exactly
        rng = random.Random(404)
        for _ in range(40):
            f = random_formula(rng, max_clauses=20)
            search, *rest = pair = pair_of(f)
            total = count_pair(pair).count
            var = rng.randint(1, f.num_original_vars)
            halves = []
            for lit in (-var, var):
                halves.append(count_pair((search + [(lit,)], *rest)).count)
            assert total == sum(halves)

    def test_branch_policy_validation(self):
        with pytest.raises(ValueError, match="heuristic"):
            BranchPolicy("random")

    def test_pick_counts_a_tautology_once_per_polarity(self):
        # Variables 1 and 2 occur in two clauses each, but one of 2's holds
        # it twice over, so 2 outweighs 1.
        db = _database(((1, 3), (1, 4), (2, -2, 3), (-2, 4)), copy_lo=5)
        assert BranchPolicy().pick(db, db.all, db.variables) == 2
        assert BranchPolicy(MIN_ID).pick(db, db.all, db.variables) == 1
        db = _database(((1, 3), (1, 4), (2, 3), (-2, 4)), copy_lo=5)
        assert BranchPolicy().pick(db, db.all, db.variables) == 1

    def test_ids_lists_the_set_bits_in_order(self):
        rng = random.Random(505)
        masks = [0, 1, 0xFF, 0x100, 1 << 1079 | 1 << 500 | 1 << 5]
        masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(300)]
        for mask in masks:
            assert _ids(mask) == [bit for bit in range(mask.bit_length()) if mask >> bit & 1]


# Count, mode and (decisions, components, base_cases, sat_calls) of the
# default engine without its cache on the formulas of
# ``_search_shape_formulas``.  They pin the search itself: a faster core
# must visit the same nodes.  ``propagations`` is left out because it
# depends on propagation order.  Every base case here has a residual whose
# clauses all hold a negative literal, so none takes a SAT call.
SEARCH_SHAPES = [
    (369, "general", 125, 51, 0, 0),
    (216, "acyclic", 17, 6, 0, 0),
    (24, "general", 14, 7, 0, 0),
    (78, "acyclic", 17, 12, 0, 0),
    (10, "general", 10, 5, 2, 0),
    (40, "acyclic", 25, 6, 0, 0),
    (58, "acyclic", 28, 13, 0, 0),
    (51, "acyclic", 16, 9, 0, 0),
    (96, "acyclic", 10, 6, 0, 0),
    (118, "acyclic", 25, 12, 0, 0),
    (36, "general", 14, 5, 0, 0),
    (22, "acyclic", 16, 8, 0, 0),
    (24, "acyclic", 6, 3, 0, 0),
    (137, "acyclic", 38, 18, 0, 0),
    (512, "general", 47, 17, 6, 0),
    (144, "acyclic", 18, 9, 0, 0),
    (10, "general", 11, 4, 4, 0),
    (165, "acyclic", 45, 23, 0, 0),
    (531, "general", 316, 131, 10, 0),
    (14, "acyclic", 11, 2, 0, 0),
]


# (count, decisions, base_cases, sat_calls, cache_hits) of the default
# engine, cache on, on the same formulas.
CACHED_SEARCH_SHAPES = [
    (369, 63, 0, 0, 48),
    (216, 17, 0, 0, 0),
    (24, 11, 0, 0, 2),
    (78, 13, 0, 0, 4),
    (10, 10, 2, 0, 0),
    (40, 21, 0, 0, 4),
    (58, 21, 0, 0, 7),
    (51, 11, 0, 0, 4),
    (96, 10, 0, 0, 0),
    (118, 21, 0, 0, 3),
    (36, 13, 0, 0, 1),
    (22, 10, 0, 0, 4),
    (24, 6, 0, 0, 0),
    (137, 24, 0, 0, 14),
    (512, 28, 2, 0, 11),
    (144, 13, 0, 0, 3),
    (10, 11, 1, 0, 3),
    (165, 27, 0, 0, 13),
    (531, 149, 1, 0, 124),
    (14, 10, 0, 0, 1),
]


# (count, cache_hits, cache_entries, cache_evictions) of the default
# engine on the same formulas with a 64-word cache: the oldest entry goes
# first, so these pin the eviction order.
EVICTING_SEARCH_SHAPES = [
    (369, 32, 7, 82), (216, 0, 12, 5), (24, 2, 9, 2), (78, 4, 11, 2),
    (10, 0, 7, 5), (40, 3, 9, 13), (58, 4, 9, 15), (51, 4, 11, 0),
    (96, 0, 10, 0), (118, 3, 11, 10), (36, 0, 9, 5), (22, 4, 10, 0),
    (24, 0, 6, 0), (137, 10, 11, 17), (512, 8, 8, 29), (144, 3, 11, 2),
    (10, 3, 8, 4), (165, 10, 11, 20), (531, 63, 7, 247), (14, 1, 10, 0),
]


def _search_shape_formulas():
    """Twenty seeded formulas of 25-40 variables with 2-3 literal clauses."""
    rng = random.Random(7)
    for i in range(len(SEARCH_SHAPES)):
        if i % 2 == 0:
            yield random_formula(rng, min_vars=25, max_vars=40, min_clauses=30,
                                 max_clauses=50, max_len=3, min_len=2)
        else:
            yield random_acyclic_formula(rng, min_vars=25, max_vars=40, min_clauses=25,
                                         max_clauses=45, max_len=3, min_len=2)


class TestSearchShape:
    @pytest.fixture(autouse=True)
    def _on_the_recursion(self, monkeypatch):
        # The pins are the recursion's, and some parts here are small
        # enough for the truth table.
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)

    def test_counts_and_counters_are_pinned(self, monkeypatch):
        monkeypatch.setattr(counting, "_CACHE_WORD_BUDGET", 0)
        for formula, expected in zip(_search_shape_formulas(), SEARCH_SHAPES):
            result = count_minimal(formula)
            stats = result.stats
            assert (
                result.count, stats.mode, stats.decisions, stats.components,
                stats.base_cases, stats.sat_calls,
            ) == expected

    def test_strategies_agree_on_pinned_formulas(self):
        for formula, expected in zip(_search_shape_formulas(), SEARCH_SHAPES):
            count, mode = expected[:2]
            assert count_minimal(formula, use_decomposition=False).count == count
            assert count_minimal(formula, policy=BranchPolicy(MIN_ID)).count == count
            if mode == "acyclic":
                assert count_minimal(formula, force_mode="general").count == count

    def test_cached_counts_and_counters_are_pinned(self):
        for formula, expected in zip(_search_shape_formulas(), CACHED_SEARCH_SHAPES):
            result = count_minimal(formula)
            stats = result.stats
            assert (
                result.count, stats.decisions, stats.base_cases, stats.sat_calls,
                stats.cache_hits,
            ) == expected
            assert stats.cache_evictions == 0
            assert 0 < stats.cache_entries <= stats.decisions + stats.base_cases

    def test_evicting_cache_is_pinned(self, monkeypatch):
        monkeypatch.setattr(counting, "_CACHE_WORD_BUDGET", 64)
        for formula, expected in zip(_search_shape_formulas(), EVICTING_SEARCH_SHAPES):
            result = count_minimal(formula)
            stats = result.stats
            assert (result.count, stats.cache_hits, stats.cache_entries,
                    stats.cache_evictions) == expected

    def test_split_rows_are_the_sums_of_their_parts(self, monkeypatch):
        # Rows 1 and 10 are the pinned inputs with two parts.  Their
        # counters are the sums over the parts counted alone, plus one
        # component per part for the split of the input.
        split_rows = []
        for budget, pins in ((0, SEARCH_SHAPES), (counting._CACHE_WORD_BUDGET,
                                                  CACHED_SEARCH_SHAPES)):
            monkeypatch.setattr(counting, "_CACHE_WORD_BUDGET", budget)
            for row, formula in enumerate(_search_shape_formulas()):
                parts = _parts(formula)
                if len(parts) < 2:
                    continue
                split_rows.append(row)
                whole = count_minimal(formula)
                alone = [count_minimal(part) for part in parts]
                assert all(result.stats.parts == 1 for result in alone)
                count = 1
                for result in alone:
                    count *= result.count

                def total(name):
                    return sum(getattr(result.stats, name) for result in alone)

                assert whole.count == count
                assert (whole.stats.parts, whole.stats.general_parts) == (
                    len(parts), total("general_parts"))
                assert whole.stats.components == len(parts) + total("components")
                for name in ("decisions", "base_cases", "sat_calls", "cache_hits",
                             "cache_entries"):
                    assert getattr(whole.stats, name) == total(name)
                if budget == 0:
                    derived = (count, whole.stats.mode, total("decisions"),
                               len(parts) + total("components"), total("base_cases"),
                               total("sat_calls"))
                else:
                    derived = (count, total("decisions"), total("base_cases"),
                               total("sat_calls"), total("cache_hits"))
                assert derived == pins[row]
        assert split_rows == [1, 10, 1, 10]


def _parts(formula):
    """The variable-disjoint parts of a formula over its own ids, clauses in
    input order; a reference for the engine's split of the input."""
    parts = []  # (variables, clause positions)
    for position, clause in enumerate(formula.clauses):
        variables = {abs(lit) for lit in clause}
        touching = [part for part in parts if part[0] & variables]
        for part in touching:
            parts.remove(part)
            variables |= part[0]
        positions = sorted([position] + [p for part in touching for p in part[1]])
        parts.append((variables, positions))
    parts.sort(key=lambda part: part[1][0])
    return [
        CnfFormula(tuple(formula.clauses[p] for p in positions), formula.num_original_vars)
        for _, positions in parts
    ]


def _differential_formulas(seed, number):
    """Seeded formulas of 25-80 variables, alternately general and acyclic."""
    rng = random.Random(seed)
    for i in range(number):
        n = rng.randint(25, 80)
        if i % 2 == 0:
            yield random_formula(rng, min_vars=n, max_vars=n, min_clauses=13 * n // 10,
                                 max_clauses=16 * n // 10, max_len=3, min_len=2)
        else:
            yield random_acyclic_formula(rng, min_vars=n, max_vars=n, min_clauses=n,
                                         max_clauses=13 * n // 10, max_len=3, min_len=2)


def _shifted(formula, offset):
    return tuple(
        tuple(lit + offset if lit > 0 else lit - offset for lit in clause)
        for clause in formula.clauses
    )


class TestDifferential:
    """Strategies that must agree, and laws the count must obey, above the
    oracle's variable limit."""

    def test_strategies_agree(self, monkeypatch):
        evictions = 0
        for formula in _differential_formulas(11, 12):
            result = count_minimal(formula)
            count = result.count
            assert count_minimal(formula, use_decomposition=False).count == count
            assert count_minimal(formula, policy=BranchPolicy(MIN_ID)).count == count
            assert count_minimal(formula, force_mode="general").count == count
            with monkeypatch.context() as patch:
                patch.setattr(counting, "_CACHE_WORD_BUDGET", 0)
                uncached = count_minimal(formula)
                assert uncached.count == count
                assert uncached.stats.cache_hits == uncached.stats.cache_entries == 0
                patch.setattr(counting, "_CACHE_WORD_BUDGET", 12)
                tiny = count_minimal(formula)
                assert tiny.count == count
                evictions += tiny.stats.cache_evictions
        assert evictions > 0

    def test_planted_cycles_agree(self, monkeypatch):
        # Auto copies only the ring variables; forced general copies all.
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)
        rng = random.Random(16)
        for _ in range(8):
            formula = planted_cycle_formula(rng, min_vars=25, max_vars=80,
                                            clauses_per_var=1.5, ternary_close=True)
            result = count_minimal(formula)
            cyclic = _cyclic_variables(formula)
            assert result.stats.copy_vars == len(cyclic) < len(formula.variables())
            general = count_minimal(formula, force_mode="general")
            assert general.count == result.count
            assert general.stats.copy_vars == len(formula.variables())
            assert count_minimal(formula, use_decomposition=False).count == result.count

    def test_enumeration_is_a_third_voice(self):
        # Minimal models enumerated with ``solve`` alone, against auto and
        # forced general, on formulas with at most 300 of them.
        rng = random.Random(23)
        checked = Counter()
        for kind in ["planted"] * 12 + ["3-cnf"] * 8:
            if kind == "planted":
                formula = planted_cycle_formula(rng, min_vars=25, max_vars=60,
                                                clauses_per_var=1.5)
            else:
                n = rng.randint(25, 40)
                formula = random_formula(rng, min_vars=n, max_vars=n, min_clauses=3 * n,
                                         max_clauses=4 * n, min_len=3, max_len=3)
            count = count_minimal(formula).count
            if count > 300:
                continue
            assert count_by_enumeration(formula) == count
            assert count_minimal(formula, force_mode="general").count == count
            checked[kind] += 1
        assert min(checked.values()) >= 6, checked

    def test_enumeration_matches_the_oracle(self):
        # The third voice itself, below the oracle's limit.
        rng = random.Random(24)
        for index in range(40):
            formula = (planted_cycle_formula(rng) if index % 2 else
                       random_formula(rng, max_vars=12, max_clauses=24))
            expected = count_minimal_brute(formula).count
            assert count_by_enumeration(formula, limit=expected) == expected
            assert count_by_enumeration(formula, limit=expected - 1) in (None, 0)

    @staticmethod
    def _scaling_family(family, n):
        """``scripts/scaling.py``'s ``chain`` or ``path`` over ``n`` variables."""
        if family == "chain":
            clauses = tuple((-i, i + 1, i + 2) for i in range(1, n - 1)) + ((1,),)
        else:
            clauses = tuple((i, i + 1) for i in range(1, n))
        return CnfFormula(clauses, n)

    def test_recurrence_matches_the_oracle(self):
        for family, first in (("chain", 3), ("path", 1)):
            for n in range(first, 17):
                formula = self._scaling_family(family, n)
                assert count_minimal_brute(formula).count == recurrence_count(family, n)

    @pytest.mark.parametrize("family, n", [("chain", 150), ("chain", 250),
                                           ("path", 150), ("path", 300)])
    def test_scaling_families_follow_the_recurrence(self, family, n):
        # A voice far above the oracle's limit, on one connected part.
        formula, expected = self._scaling_family(family, n), recurrence_count(family, n)
        for options in ({}, dict(force_mode="general"), dict(use_decomposition=False),
                        dict(policy=BranchPolicy(MIN_ID))):
            assert count_minimal(formula, **options).count == expected

    def test_renaming_variables_keeps_the_count(self):
        rng = random.Random(12)
        for formula in _differential_formulas(13, 8):
            n = formula.num_original_vars
            image = list(range(1, n + 1))
            rng.shuffle(image)
            renamed = tuple(
                tuple(image[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in clause)
                for clause in formula.clauses
            )
            assert (
                count_minimal(CnfFormula(renamed, n)).count == count_minimal(formula).count
            )

    def test_fresh_unused_variable_keeps_the_count(self):
        for formula in _differential_formulas(14, 8):
            widened = CnfFormula(formula.clauses, formula.num_original_vars + 1)
            assert count_minimal(widened).count == count_minimal(formula).count

    def test_disjoint_union_multiplies_the_counts(self):
        formulas = list(_differential_formulas(15, 8))
        for left, right in zip(formulas[::2], formulas[1::2]):
            offset = left.num_original_vars
            union = CnfFormula(
                left.clauses + _shifted(right, offset), offset + right.num_original_vars
            )
            assert (
                count_minimal(union).count
                == count_minimal(left).count * count_minimal(right).count
            )


def _restored(variables, part):
    """``part``'s clauses with each id ``i`` mapped back to ``variables[i - 1]``."""
    return [tuple(variables[lit - 1] if lit > 0 else -variables[-lit - 1] for lit in clause)
            for clause in part]


def _check_parts(clauses, parts):
    """Each part of ``_input_parts(clauses, True)`` is over ``1..k`` for its
    ``k`` ids, and maps back through them to its input clauses, in input
    order; the parts hold every input clause."""
    for variables, part in parts:
        assert {abs(lit) for clause in part for lit in clause} == set(range(1, len(variables) + 1))
        ids = set(variables)
        assert _restored(variables, part) == [
            clause for clause in clauses
            if (clause and {abs(lit) for lit in clause} <= ids if ids else not clause)]
    assert sum(len(part) for _, part in parts) == len(clauses)


def _unions(seed, number):
    """Seeded unions of a cyclic and an acyclic 25-80-variable formula."""
    formulas = list(_differential_formulas(seed, 2 * number))
    for cyclic, acyclic in zip(formulas[::2], formulas[1::2]):
        offset = cyclic.num_original_vars
        union = CnfFormula(
            cyclic.clauses + _shifted(acyclic, offset), offset + acyclic.num_original_vars
        )
        yield cyclic, acyclic, union


class TestSplitInput:
    """Variable-disjoint parts of the input are counted one by one."""

    def test_union_of_cyclic_and_acyclic_parts(self):
        for cyclic, acyclic, union in _unions(28, 4):
            left, right = count_minimal(cyclic), count_minimal(acyclic)
            assert (left.stats.mode, right.stats.mode) == ("general", "acyclic")
            result = count_minimal(union)
            assert result.count == left.count * right.count
            assert result.stats.mode == "general"
            assert result.stats.general_parts == 1
            assert result.stats.parts == left.stats.parts + right.stats.parts >= 2
            whole = count_minimal(union, use_decomposition=False)
            assert whole.count == result.count
            assert (whole.stats.parts, whole.stats.general_parts,
                    whole.stats.components) == (1, 1, 0)
            assert count_minimal(union, policy=BranchPolicy(MIN_ID)).count == result.count
            forced = count_minimal(union, force_mode="general")
            assert forced.count == result.count
            assert forced.stats.general_parts == forced.stats.parts == result.stats.parts
            with pytest.raises(ValueError, match="cycle"):
                count_minimal(union, force_mode="acyclic")

    def test_self_arc_makes_its_part_cyclic(self, monkeypatch):
        # The tautology (1, -1) gives the arc 1 -> 1; the acyclic path would
        # let variable 1 justify itself.
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)
        union = CnfFormula(((1, -1), (2, 3)), 3)
        result = count_minimal(union)
        assert result.count == count_minimal_brute(union).count == 2
        assert (result.stats.parts, result.stats.general_parts) == (2, 1)

    def test_empty_clause_in_one_part(self):
        _, _, union = next(_unions(28, 1))
        with_empty = CnfFormula(union.clauses + ((),), union.num_original_vars)
        # The empty clause is a part of its own, its ids none; the other
        # parts map back to the input's clauses.
        parts = _input_parts(with_empty.clauses, True)
        assert parts[-1] == ([], [()])
        _check_parts(with_empty.clauses, parts)
        for mode in (None, "general"):
            result = count_minimal(with_empty, force_mode=mode)
            assert result.count == 0
            assert result.stats.parts >= 3

    @pytest.mark.parametrize("decompose", [True, False])
    def test_connected_input_drops_unused_header_ids(self, monkeypatch, decompose):
        # A connected input is renumbered like a part, so its pair, and with
        # it every mask of the run, is as wide as its occurring variables.
        built = []
        original = counting.build_pair

        def spy(clauses, num_vars, copied):
            built.append((num_vars, tuple(clauses)))
            return original(clauses, num_vars, copied)

        monkeypatch.setattr(counting, "build_pair", spy)
        monkeypatch.setattr(counting, "_TABLE_VARS", 0)
        f = parse_dimacs("p cnf 5000 1\n4000 0\n")
        result = count_minimal(f, use_decomposition=decompose)
        assert (result.count, result.stats.parts, result.stats.components) == (1, 1, 0)
        assert built == [(1, ((1,),))]

    @pytest.mark.parametrize("decompose", [True, False])
    def test_contiguous_connected_input_is_not_copied(self, decompose):
        clauses = ((-1, 2), (-2, 3), (3, 1))
        assert _input_parts(clauses, decompose) == [([1, 2, 3], clauses)]
        assert _input_parts(clauses, decompose)[0][1] is clauses

    def test_parts_are_renumbered_from_their_input_ids(self):
        clauses = ((5, -9), (2,), (), (9, 7), (-2, 4), ())
        parts = _input_parts(clauses, True)
        assert parts == [([5, 7, 9], [(1, -3), (3, 2)]), ([2, 4], [(1,), (-1, 2)]),
                         ([], [(), ()])]
        _check_parts(clauses, parts)
        # A connected input with gaps is renumbered, split or not.
        for split in (True, False):
            assert _input_parts(((4, -2), (2,)), split) == [([2, 4], [(2, -1), (1,)])]
        assert _input_parts(((1,), (), (-3,)), False) == [([1, 3], [(1,), (), (-2,)])]

    def test_sparse_and_dense_ids_group_alike(self):
        # An input whose largest id exceeds its literal count is grouped and
        # renumbered in dicts by its occurring variables and literals, a
        # dense one in lists by id and literal.  Both give the same parts
        # and, scaled, the same ids, with no table as long as the largest
        # id: ``scale`` 10**15 would not fit one.
        rng = random.Random(607)
        dense_inputs = 0
        for _ in range(60):
            clauses, offset = (), 0
            for _ in range(rng.randint(1, 4)):
                block = random_formula(rng, min_vars=1, max_vars=6, max_clauses=8, max_len=3)
                clauses += _shifted(block, offset)
                offset += block.num_original_vars
            clauses += ((),) * rng.randint(0, 1)
            clauses = tuple(rng.sample(clauses, len(clauses)))
            dense_parts = _input_parts(clauses, True)
            _check_parts(clauses, dense_parts)
            for scale in (1000, 10**15):
                sparse = tuple(tuple(lit * scale for lit in clause) for clause in clauses)
                assert [([var * scale for var in variables], list(part))
                        for variables, part in dense_parts] == [
                    (variables, list(part)) for variables, part in _input_parts(sparse, True)]
            dense_inputs += max(map(abs, sum(clauses, ()))) <= len(sum(clauses, ()))
        assert dense_inputs >= 40

    def test_small_unions_match_oracle(self, monkeypatch):
        rng = random.Random(606)
        for _ in range(120):
            clauses, offset = (), 0
            while True:
                part = random_formula(rng, min_vars=2, max_vars=7, min_clauses=2,
                                      max_clauses=10, max_len=3)
                if offset + part.num_original_vars > 20 or (clauses and rng.random() < 0.4):
                    break
                clauses += _shifted(part, offset)
                offset += part.num_original_vars
            union = CnfFormula(clauses, offset)
            expected = count_minimal_brute(union).count
            assert count_minimal(union).count == expected
            assert _by_pair(monkeypatch, union).count == expected
            assert count_minimal(union, force_mode="general").count == expected


def _cyclic_variables(formula):
    """Variables in a non-trivial SCC of the formula's dependency graph:
    those that share their SCC number with another."""
    cycles = strongly_connected_components(build_dependency_graph(formula.clauses))
    sizes = Counter(cycles.values())
    return {var for var, number in cycles.items() if sizes[number] > 1}


class TestPlantedCycles:
    """Copy variables only for the variables of cyclic SCCs."""

    def test_small_planted_cycles_match_oracle(self, monkeypatch):
        rng = random.Random(909)
        number, cyclic_total, mixed = 400, 0, 0
        for _ in range(number):
            formula = planted_cycle_formula(rng, ternary_close=True)
            cyclic = _cyclic_variables(formula)
            cyclic_total += len(cyclic)
            mixed += 0 < len(cyclic) < len(formula.variables())
            expected = count_minimal_brute(formula).count
            table = count_minimal(formula)
            assert table.count == expected
            assert table.stats.copy_vars == 0
            assert table.stats.table_parts == table.stats.parts
            with monkeypatch.context() as patch:
                patch.setattr(counting, "_TABLE_VARS", 0)
                auto = count_minimal(formula)
                assert auto.count == expected
                assert auto.stats.copy_vars == len(cyclic)
                general = count_minimal(formula, force_mode="general")
                assert general.count == expected
                assert general.stats.copy_vars == len(formula.variables())
                whole = count_minimal(formula, use_decomposition=False)
                assert whole.count == expected
                assert (whole.stats.copy_vars, whole.stats.general_parts) == (len(cyclic), 1)
                assert count_minimal(formula, policy=BranchPolicy(MIN_ID)).count == expected
        # The generator must keep planting cycles beside acyclic variables.
        assert cyclic_total / number >= 2
        assert mixed / number >= 0.4

    def test_acyclic_input_has_no_copies_and_no_base_cases(self):
        rng = random.Random(910)
        for _ in range(30):
            result = count_minimal(random_acyclic_formula(rng))
            assert (result.stats.copy_vars, result.stats.general_parts) == (0, 0)
            assert result.stats.base_cases == result.stats.sat_calls == 0


def _cyclic_union(rng):
    """Two to five blocks on shifted ids with gaps between them, their
    clauses interleaved.  A quarter of the unions take only acyclic
    blocks; the others also ``random_formula`` and planted-cycle blocks.
    Some blocks have more than ``_TABLE_VARS`` variables.  No cycle is
    made of binary clauses alone, so auto mode merges no variable."""
    acyclic_only = rng.random() < 0.25
    clauses, offset = [], rng.randint(0, 3)
    for _ in range(rng.randint(2, 5)):
        big = rng.random() < 0.4
        kind = 0 if acyclic_only else rng.randrange(3)
        if kind == 0:
            block = random_acyclic_formula(rng, min_vars=16 if big else 4,
                                           max_vars=20 if big else 10)
        elif kind == 1:
            block = random_formula(rng, max_vars=8, max_clauses=14, min_len=3)
        else:
            block = planted_cycle_formula(rng, min_vars=16 if big else 5,
                                          max_vars=22 if big else 14, ternary_close=True)
        clauses += _shifted(block, offset)
        offset += block.num_original_vars + rng.randint(0, 3)
    rng.shuffle(clauses)
    return CnfFormula(tuple(clauses), offset)


class TestCycleFactsPerPart:
    """Every cycle lies inside one variable-disjoint part, so the facts
    ``count_minimal`` takes from each part's own graph are the whole
    input's."""

    def test_part_graphs_give_the_input_graphs_facts(self, monkeypatch):
        rng = random.Random(2101)
        seen = {"cyclic": 0, "acyclic": 0, "not head-cycle-free": 0, "big cyclic part": 0,
                "settled before the last part": 0, "paired after settling": 0}
        for _ in range(60):
            union = _cyclic_union(rng)
            whole = strongly_connected_components(build_dependency_graph(union.clauses))
            whole_head_cycle_free = is_head_cycle_free(union.clauses, whole)
            counts = set()
            for options in ({}, {"force_mode": "general"}, {"use_decomposition": False}):
                record = {"parts": [], "graphs": [], "cycles": [], "copies": [], "pairs": []}

                def spy(patch, name, key):
                    fn = getattr(counting, name)

                    def wrapper(*args):
                        result = fn(*args)
                        record[key].append(args[2] if name == "build_pair" else result)
                        return result
                    patch.setattr(counting, name, wrapper)

                with monkeypatch.context() as patch:
                    spy(patch, "_input_parts", "parts")
                    spy(patch, "build_dependency_graph", "graphs")
                    spy(patch, "strongly_connected_components", "cycles")
                    spy(patch, "copied_variables", "copies")
                    spy(patch, "build_pair", "pairs")
                    result = count_minimal(union, **options)
                counts.add(result.count)
                assert result.stats.acyclic == (not whole)
                assert result.stats.head_cycle_free == whole_head_cycle_free
                [parts] = record["parts"]
                # Each paired part's copies, in input ids, are the whole
                # input's cyclic variables in that part (every one under
                # ``general``), and so are those its pair is built with.
                general = options.get("force_mode") == "general"
                expected = union.variables() if general else set(whole)
                wanted = [expected & set(variables) for variables, _ in parts]
                paired = [index for index, (variables, _) in enumerate(parts)
                          if general or len(variables) > counting._TABLE_VARS]
                # The facts are ANDs over the parts, settled at the first part
                # that is not head-cycle-free: every part up to it gets a graph
                # and a Tarjan pass, a later one only if auto mode pairs it.
                # Auto mode also looks for merges in each cyclic part it pairs,
                # by one more pass over the part's binary clauses.
                settled = next((index + 1 for index, part in enumerate(parts)
                                if not is_head_cycle_free(_restored(*part), whole)), len(parts))
                later = 0 if general else sum(index >= settled for index in paired)
                merge_tests = 0 if general else sum(bool(wanted[index]) for index in paired)
                assert (len(record["graphs"]) == len(record["cycles"])
                        == settled + later + merge_tests)
                seen["settled before the last part"] += settled < len(parts)
                seen["paired after settling"] += later
                assert len(record["copies"]) == len(paired) and result.stats.merged_vars == 0
                assert [{parts[index][0][var - 1] for var in copies}
                        for index, copies in zip(paired, record["copies"])] == [
                    wanted[index] for index in paired]
                assert len(record["pairs"]) == len(paired)
                assert [{parts[index][0][var - 1] for var in copies}
                        for index, copies in zip(paired, record["pairs"])] == [
                    wanted[index] for index in paired]
                assert result.stats.copy_vars == sum(len(wanted[index]) for index in paired)
                seen["big cyclic part"] += any(
                    wanted[index] and len(parts[index][0]) > counting._TABLE_VARS
                    for index in paired)
            assert len(counts) == 1
            seen["cyclic"] += bool(whole)
            seen["acyclic"] += not whole
            seen["not head-cycle-free"] += not whole_head_cycle_free
        # The unions must exercise every fact both ways, big cyclic parts,
        # and parts past the one that settles the facts.
        assert min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("order, passes", [
        # Blocks in input order; Tarjan passes in auto and in forced general.
        ("SAAAA", (1, 1)),
        ("AAAAS", (5, 5)),
        # A head-cycle-free ring leaves the facts open.
        ("RASAA", (3, 3)),
        # Auto mode pairs each big block after the one that settles the
        # facts, and tests the cyclic one for merges by one more pass.
        ("SABAC", (4, 1)),
    ])
    def test_tarjan_stops_once_the_facts_are_settled(self, monkeypatch, order, passes):
        # No cycle of binary clauses alone, so auto mode merges none.
        blocks = {
            # A 3-cycle and a clause with two of its positive literals.
            "S": ((-1, 2), (-2, 3), (-3, -4, 1), (1, 2, 4), (-4, 5)),
            "A": ((-1, 2), (2, 3), (-3, -1)),
            "R": ((-1, 2), (-2, 3), (-3, -4, 1), (1, 4)),
            # 16 variables, above the table: a chain, and a ring.
            "B": tuple((-i, i + 1) for i in range(1, 16)),
            "C": tuple((-i, i + 1) for i in range(1, 16)) + ((-16, -2, 1),),
        }
        clauses, offset, expected = (), 0, 1
        for name in order:
            block = CnfFormula(blocks[name], 16)
            clauses += _shifted(block, offset)
            offset += 16
            expected *= count_minimal_brute(block).count
        union = CnfFormula(clauses, offset)
        for options, want in zip(({}, {"force_mode": "general"}), passes):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(counting, "strongly_connected_components",
                              lambda graph: calls.append(1) or strongly_connected_components(graph))
                result = count_minimal(union, **options)
            assert len(calls) == want, options
            assert (result.count, result.stats.parts, result.stats.acyclic,
                    result.stats.head_cycle_free) == (expected, len(order), False, False)


def _table_formula(rng, n):
    """A formula over ``1..n`` of 1-4-literal clauses, with some repeated
    literals, tautologies, units (some conflicting) and empty clauses."""
    clauses = list(random_formula(rng, min_vars=n, max_vars=n, min_clauses=0,
                                  max_clauses=2 * n, min_len=2, max_len=4).clauses) if n else []
    for _ in range(rng.randint(0, 2) if n else 0):
        var = rng.randint(1, n)
        kind = rng.choice(["repeat", "tautology", "unit", "conflict"])
        if kind == "repeat" and clauses:
            index = rng.randrange(len(clauses))
            clauses[index] += (rng.choice(clauses[index]),)
        elif kind == "tautology":
            clauses.append((var, -var) + tuple(rng.sample(range(1, n + 1), min(2, n))))
        elif kind == "unit":
            clauses.append((rng.choice((var, -var)),))
        else:
            clauses += [(var,), (-var,)]
    if rng.random() < 0.1:
        clauses.insert(rng.randrange(len(clauses) + 1), ())
    return CnfFormula(tuple(clauses), n)


class TestTruthTable:
    """Auto mode counts a part of at most ``_TABLE_VARS`` variables from its
    truth table, with no pair."""

    def test_table_matches_oracle(self):
        rng = random.Random(1414)
        counts = set()
        for n in range(counting._TABLE_VARS + 1):
            for _ in range(12):
                f = _table_formula(rng, n)
                expected = count_minimal_brute(f).count
                assert counting._table_count(f.clauses, n) == expected
                assert count_minimal(f).count == expected
                counts.add(expected)
        assert counting._table_count([], 0) == 1
        assert counting._table_count([()], 0) == 0
        assert counting._table_count([(1, -1)], 1) == 1
        assert counting._table_count([(1,), (-1,)], 1) == 0
        assert 0 in counts and len(counts) > 10

    def test_gapped_ids_count_as_their_renumbered_clauses(self):
        # A part with gapped ids reaches the table over ``1..k``.
        rng = random.Random(1424)
        counts = set()
        for index in range(120):
            if index % 2:
                f = random_formula(rng, min_vars=1, max_vars=counting._TABLE_VARS,
                                   max_clauses=30)
            else:
                f = planted_cycle_formula(rng, max_vars=counting._TABLE_VARS)
            ids = sorted(rng.sample(range(2, 40 * f.num_original_vars), f.num_original_vars))
            sparse = [tuple(ids[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in clause)
                      for clause in f.clauses]
            [(variables, renumbered)] = _input_parts(sparse, False)
            assert variables[-1] > len(variables)  # gapped: no id is its column
            expected = count_minimal_brute(f).count
            assert counting._table_count(renumbered, len(variables)) == expected
            result = count_minimal(CnfFormula(tuple(sparse), variables[-1]))
            assert result.count == expected
            assert result.stats.table_parts == result.stats.parts
            counts.add(expected)
        assert count_minimal(CnfFormula(((7, -30), ()), 30)).count == 0
        assert count_minimal(CnfFormula(((7, 30), (-7, -30)), 30)).count == 2
        assert 0 in counts and len(counts) >= 8

    def test_table_agrees_with_the_pair_on_generators(self, monkeypatch):
        # Unions of planted-cycle formulas, some parts above the threshold.
        rng = random.Random(1415)
        sizes = set()
        for _ in range(40):
            clauses, offset = (), 0
            for _ in range(rng.randint(1, 4)):
                part = planted_cycle_formula(rng, min_vars=5, max_vars=20, ternary_close=True)
                clauses += _shifted(part, offset)
                offset += part.num_original_vars
            union = CnfFormula(clauses, offset)
            result = count_minimal(union)
            assert result.count == _by_pair(monkeypatch, union).count
            parts = _input_parts(union.clauses, True)
            small = sum(len(variables) <= counting._TABLE_VARS for variables, _ in parts)
            assert result.stats.table_parts == small
            assert result.stats.general_parts <= len(parts) - small
            sizes.update(len(variables) for variables, _ in parts)
        assert min(sizes) <= counting._TABLE_VARS < max(sizes)

    @pytest.mark.parametrize("pairs", [0, 1])
    def test_the_pair_is_built_above_the_threshold(self, monkeypatch, pairs):
        n = counting._TABLE_VARS + pairs
        built = []
        original = counting.build_pair
        monkeypatch.setattr(counting, "build_pair",
                            lambda *args: built.append(args) or original(*args))
        # A positive path over 1..n, closed into a ring by an implication.
        f = CnfFormula(tuple((i, i + 1) for i in range(1, n)) + ((-n, 1),), n)
        result = count_minimal(f)
        assert len(built) == pairs
        assert (result.stats.table_parts, result.stats.parts) == (1 - pairs, 1)
        assert result.count == _by_pair(monkeypatch, f).count

    def test_columns_are_built_once_per_size(self):
        counting._columns.cache_clear()
        first = counting._columns(12)
        assert counting._columns(12) is first
        assert counting._columns.cache_info()[:2] == (1, 1)  # hits, misses
        column, full = first
        with pytest.raises(TypeError):
            column[1] = full

    def test_interleaved_sizes_count_as_a_fresh_cache(self):
        rng = random.Random(1423)
        formulas = [_table_formula(rng, n) for n in (12, 3, 0, 12)]
        fresh = []
        for f in formulas:
            counting._columns.cache_clear()
            fresh.append(counting._table_count(f.clauses, f.num_original_vars))
        counting._columns.cache_clear()
        assert [counting._table_count(f.clauses, f.num_original_vars)
                for f in formulas] == fresh == [count_minimal_brute(f).count for f in formulas]
        assert counting._columns.cache_info()[:2] == (1, 3)

    def test_cache_holds_only_table_sizes(self):
        rng = random.Random(1418)
        clauses, offset, sizes = (), 0, []
        while not (sizes and min(sizes) <= counting._TABLE_VARS < max(sizes)):
            # No merge: a merged part's re-split parts would ask for more sizes.
            part = planted_cycle_formula(rng, min_vars=5, max_vars=20, ternary_close=True)
            clauses += _shifted(part, offset)
            offset += part.num_original_vars
            sizes = [len(variables) for variables, _ in _input_parts(clauses, True)]
        counting._columns.cache_clear()
        count_minimal(CnfFormula(clauses, offset))
        small = {n for n in sizes if n <= counting._TABLE_VARS}
        for n in small:  # each a hit: the cache holds these sizes and no other
            counting._columns(n)
        info = counting._columns.cache_info()
        assert (info.misses, info.currsize) == (len(small), len(small))

    def test_forced_modes_never_take_the_table(self, monkeypatch):
        monkeypatch.setattr(counting, "_table_count", None)  # a call raises
        rng = random.Random(1416)
        for _ in range(30):
            f = random_acyclic_formula(rng)
            for mode in ("general", "acyclic"):
                result = count_minimal(f, force_mode=mode)
                assert result.count == count_minimal_brute(f).count
                assert result.stats.table_parts == 0


def _ring_clauses(ring):
    """The binary implications ``ring[0] -> ring[1] -> ... -> ring[0]``."""
    return [(-a, b) for a, b in zip(ring, ring[1:] + ring[:1])]


def _ring_heavy_formula(rng, n):
    """Rings of binary implications over ``1..n``, some sharing variables
    and some closed by a ternary clause, beside clauses of every kind a
    merge meets: positive clauses, ternary ones, negative equivalences
    ``(x, y), (-x, -y)``, units and clauses a merge makes tautologies."""
    clauses, arcs, on_ring = [], [], set()
    for _ in range(rng.randint(1, max(1, n // 6))):
        ring = _ring_clauses(rng.sample(range(1, n + 1), rng.randint(2, min(8, n))))
        arcs += ring
        on_ring.update(-a for a, _ in ring)
        if rng.random() < 0.2:
            ring[-1] += (rng.randint(1, n),)
        clauses += ring
    for _ in range(rng.randint(n // 2, n)):
        x, y, z = (rng.randint(1, n) for _ in range(3))
        kind = rng.choices(["positive", "ternary", "negative", "unit", "tautology"],
                           [6, 4, 2, 1, 3])[0]
        if kind == "positive":
            clauses.append((x, y) if rng.random() < 0.7 else (x, y, z))
        elif kind == "ternary":
            clauses.append((-x, y, z) if rng.random() < 0.5 else (x, y, -z))
        elif kind == "negative" and x != y and y not in on_ring:  # else often unsatisfiable
            clauses += [(x, y), (-x, -y)]
        elif kind == "unit":
            clauses.append((x,) if x in on_ring or rng.random() < 0.5 else (-x,))
        elif kind == "tautology":  # ``(-a, b)`` lies on a ring
            clauses.append(rng.choice(arcs) + (z,))
    return CnfFormula(tuple(clauses), n)


def _merge_reference(part, num_vars, cycles):
    """``_merge_equivalent`` as first written, one comprehension at a time,
    and the number of variables it merges: ``(None, 0)`` if none."""
    short = [clause for clause in part if len(clause) <= 2]
    if len(short) < len(part):
        cycles = strongly_connected_components(build_dependency_graph(short))
    lowest = {number: var for var, number in sorted(cycles.items(), reverse=True)}
    if len(lowest) == len(cycles):
        return None, 0
    rename = [*range(num_vars + 1), *range(-num_vars, 0)]
    for var, number in cycles.items():
        rename[var], rename[-var] = lowest[number], -lowest[number]
    merged = [tuple(dict.fromkeys(map(rename.__getitem__, clause))) for clause in part]
    return ([clause for clause in merged if len(set(map(abs, clause))) == len(clause)],
            len(cycles) - len(lowest))


def _ring_part(rng, n):
    """Mostly rings of binary implications over ``1..n``, shuffled among
    units, tautologies, repeated literals, binary and ternary clauses."""
    clauses = []
    for _ in range(rng.randint(1, max(1, n // 5))):
        clauses += _ring_clauses(rng.sample(range(1, n + 1), rng.randint(2, min(8, n))))
    for _ in range(rng.randint(0, n // 2)):
        x, y, z = (rng.randint(1, n) for _ in range(3))
        clauses.append(rng.choice([(x,), (-x,), (x, -x), (x, x), (-x, -x), (x, y), (-x, -y),
                                   (-x, y, z), (x, x, -y), (x, -y, -x)]))
    rng.shuffle(clauses)
    return clauses


class TestMergedCycles:
    """Auto mode merges each cycle of binary implications of a part above
    ``_TABLE_VARS`` into its lowest variable before it counts the part."""

    def test_one_pass_merge_matches_the_reference(self):
        # Clause for clause, from the part's own cycles as ``count_minimal``
        # hands them over, whether or not a clause is longer than two.
        rng = random.Random(2503)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(2, 40)
            part = _ring_part(rng, n)
            cycles = strongly_connected_components(build_dependency_graph(part))
            expected, merged_vars = _merge_reference(part, n, cycles)
            stats = CountStats()
            assert counting._merge_equivalent(part, n, cycles, stats) == expected
            assert stats.merged_vars == merged_vars
            if expected is not None:
                seen["long" if max(map(len, part)) > 2 else "short"] += 1
                seen["new unit"] += (sum(len(clause) == 1 for clause in expected)
                                     > sum(len(clause) == 1 for clause in part))
                seen["dropped"] += len(expected) < len(part)
        assert seen["long"] >= 150 and seen["short"] >= 50
        assert seen["new unit"] >= 120 and seen["dropped"] >= 250

    # (clauses, number of variables the merge removes)
    CASES = [
        # A ring with a positive chord, and two rings joined by a positive clause.
        (_ring_clauses([1, 2, 3, 4, 5]) + [(1, 3)], 4),
        (_ring_clauses([1, 2, 3]) + _ring_clauses([4, 5, 6, 7]) + [(2, 6)], 5),
        # Rings that share variable 3 form one class.
        (_ring_clauses([1, 2, 3]) + _ring_clauses([3, 4, 5]) + [(5, 6), (-6, 7), (7, 1)], 4),
        # A ring closed by a ternary clause does not merge.
        ([(-1, 2), (-2, 3), (-3, 1, 4), (4, 2)], 0),
        # ``x <-> -y`` by ``(x, y), (-x, -y)`` does not merge; the ring does.
        ([(1, 2), (-1, -2)] + _ring_clauses([3, 4]) + [(3, 1)], 1),
        # A class that holds a unit.
        (_ring_clauses([1, 2, 3]) + [(2,), (1, 4), (-4, 5, 3)], 2),
        # ``(-1, 2, 3)`` becomes a tautology, which leaves 3 in no clause.
        (_ring_clauses([1, 2]) + [(-1, 2, 3), (1, 4)], 1),
    ]
    NAMES = ["ring", "two-rings", "shared-variable", "ternary-close", "negative-equivalence",
             "unit-in-class", "tautology-orphan"]

    @pytest.mark.parametrize("clauses, merged", CASES, ids=NAMES)
    def test_cases_match_oracle_and_general(self, monkeypatch, clauses, merged):
        n = max(abs(lit) for clause in clauses for lit in clause)
        formula = CnfFormula(tuple(clauses), n)
        expected = count_minimal_brute(formula).count
        by_pair = _by_pair(monkeypatch, formula)  # merged parts take the pair too
        assert (by_pair.count, by_pair.stats.merged_vars) == (expected, merged)
        assert by_pair.stats.mode == "general" and by_pair.stats.acyclic is False
        general = _by_pair(monkeypatch, formula, force_mode="general")
        assert (general.count, general.stats.merged_vars) == (expected, 0)
        # Parts of at most ``_TABLE_VARS`` variables are not merged.
        assert count_minimal(formula).stats.merged_vars == 0

    @pytest.mark.parametrize("clauses, merged", CASES, ids=NAMES)
    def test_long_cases_match_enumeration_and_general(self, clauses, merged):
        # Each variable of a case becomes a ring of eight: past the oracle
        # and the table, and seven more merged variables each.
        n = max(abs(lit) for clause in clauses for lit in clause)
        stretched = [tuple(8 * lit - 7 if lit > 0 else 8 * lit + 7 for lit in clause)
                     for clause in clauses]
        rings = [clause for var in range(1, n + 1)
                 for clause in _ring_clauses(list(range(8 * var - 7, 8 * var + 1)))]
        formula = CnfFormula(tuple(stretched + rings), 8 * n)
        result = count_minimal(formula)
        assert result.stats.merged_vars == 7 * n + merged
        assert result.count == count_by_enumeration(formula)
        assert count_minimal(formula, force_mode="general").count == result.count
        assert count_minimal(formula, use_decomposition=False).count == result.count
        with pytest.raises(ValueError, match="cycle"):
            count_minimal(formula, force_mode="acyclic")

    def test_small_random_formulas_match_oracle(self, monkeypatch):
        rng = random.Random(2401)
        merged = 0
        for _ in range(300):
            formula = _ring_heavy_formula(rng, rng.randint(2, 14))
            expected = count_minimal_brute(formula).count
            by_pair = _by_pair(monkeypatch, formula)
            assert by_pair.count == expected
            assert _by_pair(monkeypatch, formula, use_decomposition=False).count == expected
            assert count_minimal(formula, force_mode="general").count == expected
            assert count_minimal(formula).count == expected
            merged += by_pair.stats.merged_vars > 0
        assert merged > 200

    def test_large_random_formulas_match_enumeration(self):
        rng = random.Random(2402)
        merged = paired = 0
        for _ in range(40):
            formula = _ring_heavy_formula(rng, rng.randint(21, 60))
            result = count_minimal(formula)
            if result.count > 100:  # enumeration grows with the count
                continue
            expected = count_by_enumeration(formula)
            assert result.count == expected
            assert count_minimal(formula, force_mode="general").count == expected
            merged += result.stats.merged_vars > 0
            paired += result.stats.merged_vars > 0 and result.stats.general_parts > 0
        # Some merged parts stay above the table and take the pair.
        assert merged >= 25 and paired >= 10
