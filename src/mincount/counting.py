"""Minimal-model counting over the search/justification pair.

The engine walks one recursion: unit propagation, component
decomposition, branching on a decision variable, and a base case.  Only
the variables on a cycle of the dependency graph get a copy variable on
the justification side; an acyclic input gets none, and its pair is the
input strengthened with its forced implications.  Once the search side
is empty, a justification residual that is empty too counts one, one
whose clauses all hold a negative literal counts zero, and any other
asks whether some model of it leaves a live copy variable false.
Originals left unassigned there default to false, the minimal choice.

A run indexes its pair, ``build_pair``'s clause lists, bounds and
supports, once and as it is, in the clause database of ``sat``, whose
sets of clauses and of variables are Python ints used as bit masks, and
propagates with its ``_bcp``, the one propagator, which applies the
forced implications' support rule too: no auxiliary variable
(``sat._Database``).  It answers a justification query in that database
too, with ``sat._search``, the depth-first loop that ``solve`` runs for
the oracle.  A search node is four such ints: the assigned variables,
the satisfied clauses and supports, and its component's clauses and
variables; a support spoiled or no longer needed drops out of
propagation, the walk and the cache keys.  An unsatisfied clause's
assigned literals are all false, so no values are stored: a clause is a
unit when exactly one of its variables is unassigned.  Both children of
a decision start from their parent's ints, so nothing is copied or
undone, and propagation, the component walk and the branch heuristic do
their per-clause and per-variable work in integer operations.  The walk
grows a component one breadth-first level at a time: the live clauses
of the last level's variables, then those clauses' free variables.

A run caches the count of each component and base case it solves,
keyed by its clause and variable masks.  They fix the residual clauses
and supports, because the database of a run is fixed.

``count_minimal`` splits its input into variable-disjoint parts, each
renumbered to its own ids ``1..k`` (``sat._input_parts``), and counts
them in one loop.  In auto mode ``_table_count`` counts a part of at
most ``_TABLE_VARS`` variables from its truth table, and a larger cyclic
one is first merged by ``_merge_equivalent`` and split again.  Every
other part gets its own run and, as copies, its own graph's cyclic ids;
a part takes a graph only for those or while the input's cycle facts
can still change.

The recursion is realized with an explicit stack so that chain formulas
cannot exhaust the interpreter's recursion limit.  Each counting run owns
its mutable state; independent runs over the same immutable formula may
execute concurrently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import lru_cache

from .depgraph import build_dependency_graph, is_head_cycle_free, strongly_connected_components
from .formula import CnfFormula
from .sat import _CONFLICT, _Database, _bcp, _ids, _input_parts, _search
from .transform import build_pair

MIN_ID = "min-id"
MAX_OCCURRENCE = "max-occurrence"

MODE_ACYCLIC = "acyclic"
MODE_GENERAL = "general"

# Words the cache keys of one run may hold: each key costs one word plus
# the 30-bit digits of its two masks, so 0 turns the cache off.  The
# oldest entries go first.  It bounds digits, not bytes: with the slot,
# tuple and int headers (tracemalloc, CPython 3.11) a counted word costs
# about 65 bytes for masks under 30 bits, 23 at 120 bits, 5 at 3000 and
# 21 at the benchmark's seed-0 sizes, so a full cache takes 65 MiB at most.
_CACHE_WORD_BUDGET = 2**20

# The largest part auto mode counts by truth table (scripts/crossover.py).
_TABLE_VARS = 15


@dataclass
class CountStats:
    """Search statistics accumulated over one counting run.

    ``propagations`` counts the literals propagation asserts, none of them
    auxiliary.  ``components`` counts the sub-pairs produced by
    decomposition steps that actually split their node, the input's
    included.  ``cache_hits`` counts the components and base cases the
    cache answered; ``cache_entries`` is its final size, summed over the
    input's parts.
    ``table_parts`` of the ``parts`` were counted by truth table; of the
    pairs built for the others, ``general_parts`` had a copy variable and
    ``copy_vars`` is the number of copy variables built.  ``merged_vars``
    counts the variables ``_merge_equivalent`` merged away; a merged part
    counts there as the parts it splits into.  ``vars`` counts the input's
    occurring variables, the sum over its parts.  ``sat_calls``
    counts the base cases that run a justification search: one whose
    residual clauses all have a negative literal is answered without it.
    """

    decisions: int = 0
    propagations: int = 0
    components: int = 0
    sat_calls: int = 0
    base_cases: int = 0
    cache_hits: int = 0
    cache_entries: int = 0
    cache_evictions: int = 0
    parts: int = 0
    general_parts: int = 0
    copy_vars: int = 0
    table_parts: int = 0
    merged_vars: int = 0
    vars: int = 0
    mode: str = ""
    acyclic: bool | None = None
    head_cycle_free: bool | None = None

    def as_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.acyclic is not None:
            out["acyclic"] = self.acyclic
        if self.head_cycle_free is not None:
            out["head_cycle_free"] = self.head_cycle_free
        # The counters are the int fields, in declaration order.
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.type == "int")
        return out


@dataclass(frozen=True)
class CountResult:
    count: int
    stats: CountStats


@dataclass(frozen=True)
class BranchPolicy:
    """Decision-variable selection among the unassigned originals.

    Both pick among the free originals that occur in the component's live
    search clauses, so a free original occurring only in justification
    clauses is never picked.  ``max-occurrence`` picks the one occurring
    most often there; ``min-id`` picks the lowest.  Ties always break
    toward the lowest id.
    """

    heuristic: str = MAX_OCCURRENCE

    def __post_init__(self):
        if self.heuristic not in (MIN_ID, MAX_OCCURRENCE):
            raise ValueError(f"unknown branch heuristic {self.heuristic!r}")

    def pick(self, db: _Database, clauses: int, variables: int) -> int:
        """Choose among a component's free originals in its search clauses."""
        search, occurs, lits = clauses & db.search, db.occurs, db.lits
        # A tautology holding both polarities of a variable counts twice.
        tautologies = search & db.repeats
        best = most = 0
        for var in _ids(variables & db.originals):
            count = (occurs[var] & search).bit_count()
            if tautologies:
                count += (lits[var] & lits[-var] & tautologies).bit_count()
            if count > most:
                if self.heuristic == MIN_ID:
                    return var
                best, most = var, count
        if not best:
            raise ValueError("no original variable to branch on: the auxiliary "
                             "variables are not determined by the originals")
        return best


def _split_components(db: _Database, live: int, free: int, enabled: bool):
    """Group the ``live`` clauses by their ``free`` variables' connectivity.

    Returns ``(clauses, variables)`` mask pairs in the order of their
    lowest clauses, each found by a walk from that clause.  With
    decomposition disabled everything lands in a single group.

    The walk goes one level at a time: the live clauses the last level's
    variables occur in, then the free variables of those clauses.
    """
    if not enabled:
        return [(live, db.occurring(live) & free)]
    clause_vars, occurs = db.clause_vars, db.occurs
    components = []
    while live:
        # The walk moves what it reaches out of ``live`` and ``free``.
        start_live, start_free = live, free
        first = live & -live
        live ^= first
        new = clause_vars[first.bit_length() - 1] & free
        free ^= new
        while new and live:
            reached = 0
            while new:
                bit = new & -new
                new ^= bit
                reached |= occurs[bit.bit_length() - 1]
            reached &= live
            live ^= reached
            while reached:
                low = reached & -reached
                reached ^= low
                new |= clause_vars[low.bit_length() - 1]
            new &= free
            free ^= new
        components.append((start_live ^ live, start_free ^ free))
    return components


def _justification_base(db: _Database, assigned: int, satisfied: int,
                        clauses: int, variables: int, stats) -> int:
    """Base case for justification ``clauses`` over free ``variables``.

    The search side has no clause left there.  The originals among the
    free variables default to false (the minimal choice) and their effect
    propagates through the copy implications.  No clause left then means
    every true atom is already justified.  Otherwise the question is
    whether the residual admits a model falsifying some live copy
    variable: if it does, some true atom lacks justification and the
    branch contributes nothing.  When every residual clause has a negative
    literal, setting every copy false is such a model; only the other
    residuals take a search.  It tries false first, so a first model
    setting every live copy true is the only model.
    """
    queue = [-var for var in _ids(variables & db.originals)]
    seeded = len(queue)
    result = _bcp(db, assigned, satisfied, queue, db.search)
    stats.propagations += len(queue) - seeded
    if result is _CONFLICT:
        raise RuntimeError("search-free propagation reported a search conflict")
    assigned, satisfied = result
    stats.base_cases += 1
    left = clauses & ~satisfied
    if not left:
        return 1
    live = db.occurring(left) & ~assigned
    if live & db.below_copies:
        raise RuntimeError("non-copy variable alive at a justification base case")
    negative = 0
    for var in _ids(live):
        negative |= db.lits[-var]
    if not left & ~negative:
        return 0
    stats.sat_calls += 1
    model = _search(db, assigned, satisfied, left, live, [])
    return 1 if model is None or len(model) == live.bit_count() else 0


def _words(mask: int) -> int:
    return (mask.bit_length() + 29) // 30


def count_pair(pair, *, policy: BranchPolicy | None = None,
               use_decomposition: bool = True,
               stats: CountStats | None = None) -> CountResult:
    """Count minimal models by recursing over the search/justification pair.

    ``pair`` is what ``build_pair`` returns.  The recursion starts from the
    empty assignment on an explicit stack.  A ``"count"`` task holds a
    node's four masks and the literals it asserts: those of the unit
    clauses at the root, a decision below it.  ``stats``, when given,
    accumulates the run's counters.
    """
    stats = stats if stats is not None else CountStats()
    policy = policy or BranchPolicy()
    db = _Database(*pair)
    if db.empty:
        return CountResult(0, stats)
    cache, held = OrderedDict(), 0

    def remember(key, value):
        # No key comes twice: while a component's sum is pending, the nodes
        # in between see strictly fewer or disjoint variables.
        nonlocal held
        cache[key] = value
        held += 1 + _words(key[0]) + _words(key[1])
        while held > _CACHE_WORD_BUDGET:
            old, _ = cache.popitem(last=False)
            held -= 1 + _words(old[0]) + _words(old[1])
            stats.cache_evictions += 1
        return value

    def base(assigned, satisfied, clauses, variables):
        key = (clauses, variables)
        value = cache.get(key)
        if value is None:
            return remember(key, _justification_base(db, assigned, satisfied, *key, stats))
        stats.cache_hits += 1
        return value

    tasks = [("count", 0, 0, db.all, db.occurring_vars, list(db.units))]
    values = []
    while tasks:
        task = tasks.pop()
        op = task[0]
        if op == "count":
            _, assigned, satisfied, clauses, variables, queue = task
            seeded = len(queue)
            result = _bcp(db, assigned, satisfied, queue, db.search)
            stats.propagations += len(queue) - seeded
            if result is _CONFLICT:
                values.append(0)
                continue
            assigned, satisfied = result
            live, free = clauses & ~satisfied, variables & ~assigned
            if not live & db.search:
                values.append(
                    base(assigned, satisfied, live, db.occurring(live) & free) if live else 1
                )
                continue
            components = _split_components(db, live, free, use_decomposition)
            if len(components) > 1:
                stats.components += len(components)
                tasks.append(("combine", len(components)))
            for key in components:
                part_clauses, part_vars = key
                if not part_clauses & db.search:
                    # Justification-only component: straight to the base case.
                    values.append(base(assigned, satisfied, part_clauses, part_vars))
                    continue
                value = cache.get(key)
                if value is not None:
                    stats.cache_hits += 1
                    values.append(value)
                    continue
                var = policy.pick(db, part_clauses, part_vars)
                stats.decisions += 1
                tasks.append(("sum", key))
                tasks.append(("count", assigned, satisfied, part_clauses, part_vars, [var]))
                tasks.append(("count", assigned, satisfied, part_clauses, part_vars, [-var]))
        elif op == "sum":
            values.append(remember(task[1], values.pop() + values.pop()))
        else:  # combine
            product = 1
            for _ in range(task[1]):
                product *= values.pop()
            values.append(product)
    stats.cache_entries += len(cache)
    return CountResult(values[0], stats)


@lru_cache(maxsize=_TABLE_VARS + 1)
def _columns(num_vars: int):
    """The literal columns over ``1..num_vars`` and the all-ones table.

    Bit ``i`` is the assignment giving ``v`` bit ``v - 1`` of ``i``, and
    ``column[lit]`` holds those where ``lit`` is true, a negative ``lit``
    indexing from the end.  One entry per size asked for, at most 16 (all
    that ``count_minimal`` asks for): tuples of ints, about 0.25 MB in all.
    """
    size = 1 << num_vars
    full = (1 << size) - 1
    column = [0]
    for v in range(num_vars):
        half = (1 << v) >> 3  # a period: ``half`` zero bytes, ``half`` 0xff
        pattern = bytes(half) + b"\xff" * half if half else bytes((0xAA, 0xCC, 0xF0)[v:v + 1])
        column.append(int.from_bytes(pattern * (max(size >> 3, 1) // len(pattern)),
                                     "little") & full)
    column += [full ^ positive for positive in reversed(column[1:])]
    return tuple(column), full


def _table_count(clauses, num_vars: int) -> int:
    """Minimal models of ``clauses`` over ``1..num_vars``, by truth table.

    The models are the AND over the clauses of the OR of their literals'
    columns, which ``_columns`` caches for at most ``_TABLE_VARS + 1``
    sizes.  One shift per variable, the subset (zeta) transform, gathers
    those strictly above a model (Björklund et al., STOC 2007).
    """
    column, models = _columns(num_vars)
    for clause in clauses:
        either = 0
        for lit in clause:
            either |= column[lit]
        models &= either
        if not models:
            return 0
    above = 0
    for v in range(1, num_vars + 1):
        above |= ((models | above) & column[-v]) << (1 << (v - 1))
    return (models & ~above).bit_count()


def _merge_equivalent(part, num_vars: int, cycles, stats):
    """``part`` with each SCC of its binary clauses ``(-a, b)`` merged into
    its lowest variable, less tautologies and repeated literals; ``None`` if
    no SCC joins two.  With no longer clause they are the part's ``cycles``.

    The part entails ``x <-> r`` for each ``x`` in the SCC of ``r``, both
    positive, so ``M -> M \\ {x}`` maps its models one to one onto the
    merged clauses' models and keeps their order, as ``x`` is in ``M``
    exactly when ``r`` is: the minimal models correspond one to one.  A
    negative ``x <-> -y`` would break the order and is never merged.  A
    variable the merge leaves in no clause is false in every minimal model.
    """
    if max(map(len, part)) > 2:
        cycles = strongly_connected_components(
            build_dependency_graph([clause for clause in part if len(clause) <= 2]))
    lowest = {}
    for var, number in cycles.items():
        if var < lowest.setdefault(number, var):
            lowest[number] = var
    if len(lowest) == len(cycles):
        return None
    stats.merged_vars += len(cycles) - len(lowest)
    rename = [*range(num_vars + 1), *range(-num_vars, 0)]  # ``rename[lit]`` is ``lit``
    for var, number in cycles.items():
        rename[var], rename[-var] = lowest[number], -lowest[number]
    # One loop renames and filters; a two-literal clause needs no dedup pass.
    merged = []
    for clause in part:
        if len(clause) == 2:
            a, b = rename[clause[0]], rename[clause[1]]
            if a != -b:
                merged.append((a, b) if a != b else (a,))
        else:
            clause = tuple(dict.fromkeys(map(rename.__getitem__, clause)))
            if len(set(map(abs, clause))) == len(clause):
                merged.append(clause)
    return merged


def copied_variables(cycles, variables, force_mode: str | None = None):
    """The variables the pair of a mode gives a copy variable.

    Forced ``general`` copies all of ``variables``, the pair's occurring
    variables, and forced ``acyclic`` none.  Otherwise a variable is
    copied when it lies on a cycle: when it is a key of ``cycles``, the
    dict ``strongly_connected_components`` returns for the dependency
    graph of the pair's clauses.  The search side demands that every true
    variable be forced, so only a set of true variables that support one
    another in a cycle can lack justification.
    """
    if force_mode == MODE_GENERAL:
        return variables
    if force_mode == MODE_ACYCLIC:
        return ()
    return cycles


def count_minimal(formula: CnfFormula, *, policy: BranchPolicy | None = None,
                  use_decomposition: bool = True, force_mode: str | None = None) -> CountResult:
    """Count the minimal models of a CNF formula.

    A model is minimal exactly when its restriction to every
    variable-disjoint part is, so the parts, each in its own ids
    ``1..k``, are counted in turn and their counts multiply (unless
    ``use_decomposition`` is off, which makes the whole input one part).
    Unless ``force_mode`` is given, a part of at most ``_TABLE_VARS``
    variables is counted from its truth table, where ``policy`` and
    ``use_decomposition`` have no effect, and a larger cyclic one is
    merged (``_merge_equivalent``) and split again first, into parts that
    neither feed the facts ``mode``, ``acyclic`` and ``head_cycle_free``
    nor merge again.  Every other part goes through the pair recursion,
    with copies of the variables ``copied_variables`` names: those on a
    cycle of the dependency graph, so an acyclic part's count is the model
    count of the part strengthened with its forced implications.
    ``force_mode`` ``general`` copies every variable; ``acyclic`` none,
    and it raises ``ValueError`` at the first cyclic part, after counting
    the parts before it.  Every mode raises it on ids above
    ``num_original_vars``.  The facts are ANDs over the parts' own
    graphs, as a cycle never leaves its part; a part takes a graph only
    while they can change or for its copies and merge in auto mode.
    """
    formula.require_originals()
    if force_mode not in (None, MODE_ACYCLIC, MODE_GENERAL):
        raise ValueError(f"unknown mode {force_mode!r}")
    parts = _input_parts(formula.clauses, use_decomposition)
    stats = CountStats(parts=len(parts), components=len(parts) if len(parts) > 1 else 0,
                       vars=sum(len(variables) for variables, _ in parts))
    count, acyclic, head_cycle_free = 1, True, True
    # Re-split parts come flagged: they feed no fact and merge no further.
    todo = [(len(variables), part, False) for variables, part in parts]
    for num_vars, part, resplit in todo:
        auto_pair = force_mode is None and num_vars > _TABLE_VARS
        cycles = None
        # Acyclic implies head-cycle-free: once not, both facts are settled.
        if auto_pair or head_cycle_free and not resplit:
            cycles = strongly_connected_components(build_dependency_graph(part))
            if not resplit:
                if cycles and force_mode == MODE_ACYCLIC:
                    raise ValueError("acyclic mode requested but the dependency graph has a cycle")
                acyclic = acyclic and not cycles
                head_cycle_free = head_cycle_free and is_head_cycle_free(part, cycles)
        if force_mode is None:
            if not auto_pair:
                stats.table_parts += 1
                count *= _table_count(part, num_vars)
                continue
            if cycles and not resplit:
                merged = _merge_equivalent(part, num_vars, cycles, stats)
                if merged is not None:
                    todo += [(len(variables), clauses, True)
                             for variables, clauses in _input_parts(merged, use_decomposition)]
                    continue
        part_copied = copied_variables(cycles, range(1, num_vars + 1), force_mode)
        stats.copy_vars += len(part_copied)
        stats.general_parts += bool(part_copied)
        # The pair stays a temporary: a name bound to it would keep the
        # previous part's pair alive while the next one is built.
        count *= count_pair(build_pair(part, num_vars, part_copied),
                            policy=policy, use_decomposition=use_decomposition,
                            stats=stats).count
    stats.mode = force_mode or (MODE_ACYCLIC if acyclic else MODE_GENERAL)
    stats.acyclic, stats.head_cycle_free = acyclic, head_cycle_free
    return CountResult(count, stats)
