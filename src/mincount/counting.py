"""Minimal-model counting over the search/justification pair.

The engine walks one recursion: unit propagation, component
decomposition, branching on a decision variable, and a base case.  Only
the variables on a cycle of the dependency graph get a copy variable on
the justification side; an acyclic input gets none, and its pair is the
input strengthened with its forced implications.  Once the search side
is empty, a justification residual that is empty too counts one; any
other runs a SAT-backed justification check over the live copy
variables.  Originals left unassigned there default to false, the
minimal choice, and auxiliary variables, being functionally determined,
contribute nothing.

Each search node makes about one pass over its residual.  When a node
splits, every component gets an occurrence index (variable -> clause
positions on each side), and both children of the component's decision
propagate through that one index, starting from the decision alone.  A
child's assignment holds only the decision and what it propagates:
residual clauses never mention an assigned variable, so no assignment is
copied from node to node.  Untouched clauses are carried into the
residual as they are, and the branch heuristic reads its occurrence
counts from the index.

A run caches the count of each residual pair it solves, keyed by the
pair's clauses as they are, so a component or a base case that comes
back is not solved again.

``count_minimal`` splits its input into variable-disjoint parts before
any transform and counts them one after another, each renumbered and
with its own run and its own copy variables.

The recursion is realized with an explicit stack so that chain formulas
cannot exhaust the interpreter's recursion limit.  Each counting run owns
its mutable state; independent runs over the same immutable formula may
execute concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .depgraph import DepGraph, build_dependency_graph, is_acyclic, is_head_cycle_free
from .formula import CnfFormula
from .sat import solve
from .transform import PairState, build_pair

MIN_ID = "min-id"
MAX_OCCURRENCE = "max-occurrence"

MODE_ACYCLIC = "acyclic"
MODE_GENERAL = "general"

_CONFLICT = object()

# Clauses the cache keys of one run may hold, each key counted one clause
# more so that 0 turns the cache off.  The oldest entries go first.
_CACHE_CLAUSE_BUDGET = 2**20


@dataclass
class CountStats:
    """Search statistics accumulated over one counting run.

    ``components`` counts the sub-pairs produced by decomposition steps
    that actually split their node, the input's included.  ``cache_hits``
    counts the components and base cases the cache answered;
    ``cache_entries`` is its final size, summed over the input's parts.
    ``general_parts`` of the ``parts`` had at least one copy variable, and
    ``copy_vars`` is the number of copy variables built.
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

    ``max-occurrence`` picks the original variable occurring most often
    in the residual search clauses; ``min-id`` picks the smallest id.
    Ties always break toward the lowest id.
    """

    heuristic: str = MAX_OCCURRENCE

    def __post_init__(self):
        if self.heuristic not in (MIN_ID, MAX_OCCURRENCE):
            raise ValueError(f"unknown branch heuristic {self.heuristic!r}")

    def pick(self, occurrences, orig_limit: int) -> int:
        """Choose from a component's occurrence index (see ``_index``)."""
        candidates = [
            var for var, (in_search, _) in occurrences.items()
            if in_search and var <= orig_limit
        ]
        if not candidates:
            raise ValueError("no original variable to branch on: the auxiliary "
                             "variables are not determined by the originals")
        if self.heuristic == MIN_ID:
            return min(candidates)
        return min(candidates, key=lambda var: (-len(occurrences[var][0]), var))


_SEARCH = 0
_JUSTIFICATION = 1


def _index(search, justification):
    """Occurrence index of a residual pair, and its connected groups.

    The index maps every variable to two lists, its occurrences in the
    search clauses and in the justification clauses.  An occurrence is
    the clause's position ``i`` for a positive literal and ``~i`` for a
    negative one.  The keys are exactly the variables of the pair.

    The groups come from the same pass: ``group_of`` maps every variable
    to the list of variables it shares clauses with, transitively, and
    variables of one group share one list.  A clause joining two groups
    moves the smaller into the larger.
    """
    occurrences: dict[int, tuple[list, list]] = {}
    group_of: dict[int, list] = {}
    for side, clauses in enumerate((search, justification)):
        for index, clause in enumerate(clauses):
            group = None
            for lit in clause:
                var = abs(lit)
                entry = occurrences.get(var)
                if entry is None:
                    entry = occurrences[var] = ([], [])
                    if group is None:
                        group = [var]
                    else:
                        group.append(var)
                    group_of[var] = group
                else:
                    other = group_of[var]
                    if group is None:
                        group = other
                    elif other is not group:
                        if len(other) > len(group):
                            group, other = other, group
                        for moved in other:
                            group_of[moved] = group
                        group.extend(other)
                entry[side].append(index if lit > 0 else ~index)
    return occurrences, group_of


def _bcp(search, justification, assign, copy_lo, stats, occurrences=None):
    """Condition both sides on ``assign`` and propagate units to fixpoint.

    Mutates ``assign``.  Search-side units (original and auxiliary
    literals) are asserted and, through the shared dictionary, seen by
    the justification side.  On the justification side only units over
    copy variables propagate, and their values never feed back into the
    search side because copies do not occur there.  Units over original
    variables arising on the justification side are left in place; the
    search side derives the same assignment itself.

    Inside the search, ``occurrences`` is the index ``_split_components``
    built for this component, shared by both children of a decision; the
    clauses are already at fixpoint, so the queue starts from the
    decision alone and propagation reads only the occurrences of assigned
    variables.  Without it (the root and the base cases) the unit clauses
    are queued beside the assignment and the index is built here.

    Returns ``(search_residual, justification_residual)`` or the conflict
    sentinel when a search clause is emptied.  Residual clauses mention
    no assigned variable; a clause no assignment touched is kept as is.
    """
    sides = (search, justification)
    free = (list(map(len, search)), list(map(len, justification)))
    dead = (bytearray(len(search)), bytearray(len(justification)))
    queue = list(assign)
    seeded = len(queue)
    # A falsified justification clause mid-propagation is only an invariant
    # violation if the search side fails to conflict by the fixpoint.
    justification_violated = False
    conflict = False

    if occurrences is None:
        for side, clauses in enumerate(sides):
            for clause in clauses:
                if len(clause) > 1:
                    continue
                if clause:
                    var = abs(clause[0])
                    if side == _JUSTIFICATION and var < copy_lo:
                        continue
                    value = assign.get(var)
                    if value is None:
                        assign[var] = clause[0] > 0
                        queue.append(var)
                        continue
                    if value == (clause[0] > 0):
                        continue
                # The clause is empty or its only literal is false.
                if side == _SEARCH:
                    conflict = True
                else:
                    justification_violated = True
        if queue and not conflict:
            occurrences, _ = _index(search, justification)

    head = 0
    while head < len(queue) and not conflict:
        var = queue[head]
        head += 1
        entry = occurrences.get(var)
        if entry is None:
            continue
        positive = assign[var]
        for side in (_SEARCH, _JUSTIFICATION):
            side_dead = dead[side]
            side_free = free[side]
            for occurrence in entry[side]:
                index = occurrence if occurrence >= 0 else ~occurrence
                if side_dead[index]:
                    continue
                if (occurrence >= 0) == positive:
                    side_dead[index] = 1
                    continue
                remaining = side_free[index] - 1
                side_free[index] = remaining
                if remaining > 1:
                    continue
                if remaining == 0:
                    if side == _SEARCH:
                        conflict = True
                        break
                    justification_violated = True
                    continue
                for unit in sides[side][index]:
                    if abs(unit) not in assign:
                        break
                else:
                    # The last open literal was settled but its queue entry
                    # is still pending; that entry finishes the clause.
                    continue
                unit_var = abs(unit)
                if side == _SEARCH or unit_var >= copy_lo:
                    assign[unit_var] = unit > 0
                    queue.append(unit_var)
            if conflict:
                break

    stats.propagations += len(queue) - seeded
    if conflict:
        return _CONFLICT
    if justification_violated:
        raise RuntimeError(
            "justification clause falsified; the search side must conflict first"
        )

    residuals = []
    for clauses, side_dead, side_free in zip(sides, dead, free):
        residuals.append(tuple([
            clause if open_count == len(clause)
            else tuple([lit for lit in clause if abs(lit) not in assign])
            for clause, is_dead, open_count in zip(clauses, side_dead, side_free)
            if not is_dead
        ]))
    return residuals[0], residuals[1]


def _split_components(search, justification, enabled):
    """Group residual clauses by variable connectivity.

    Returns ``(search_clauses, justification_clauses, occurrences)``
    triples ordered by smallest variable, where ``occurrences`` is the
    group's index (see ``_index``); its keys are the group's variables.
    With decomposition disabled everything lands in a single group.
    """
    occurrences, group_of = _index(search, justification)
    if not enabled:
        return [(search, justification, occurrences)]
    if not occurrences:
        return []
    if len(next(iter(group_of.values()))) == len(occurrences):
        return [(search, justification, occurrences)]

    # Several groups: sort the clauses into them and index each group anew.
    groups = sorted({id(group): group for group in group_of.values()}.values(), key=min)
    slot = {id(group): number for number, group in enumerate(groups)}
    parts = [([], []) for _ in groups]
    for side, clauses in enumerate((search, justification)):
        for clause in clauses:
            parts[slot[id(group_of[abs(clause[0])])]][side].append(clause)
    del occurrences, group_of  # free the parent index before the groups' own
    return [
        (tuple(part_search), tuple(part_just), _index(part_search, part_just)[0])
        for part_search, part_just in parts
    ]


def _justification_base(justification, copy_lo, stats) -> int:
    """Base case once the search side has no clauses left.

    ``justification`` is a residual: it mentions no assigned variable.
    Its originals default to false (the minimal choice) and their effect
    propagates through the copy implications.  An empty residual then
    means every true atom is already justified.  Otherwise one SAT call
    asks whether the residual admits a model falsifying some live copy
    variable: if it does, some true atom lacks justification and the
    branch contributes nothing.
    """
    local = dict.fromkeys(
        sorted({abs(lit) for clause in justification for lit in clause if abs(lit) < copy_lo}),
        False,
    )
    result = _bcp((), justification, local, copy_lo, stats)
    if result is _CONFLICT:
        raise RuntimeError("search-free propagation reported a search conflict")
    _, residual = result
    stats.base_cases += 1
    if not residual:
        return 1
    live = sorted({abs(lit) for clause in residual for lit in clause})
    if live and live[0] < copy_lo:
        raise RuntimeError("non-copy variable alive at a justification base case")
    stats.sat_calls += 1
    return 0 if solve(residual + (tuple(-var for var in live),)).satisfiable else 1


def _run(search, justification, *, orig_limit, copy_lo, policy,
         use_decomposition, stats):
    """Explicit-stack evaluation of the counting recursion.

    A node's assignment holds only what the node assigns: nothing at the
    root, or a decision plus what it propagates.  Residual clauses
    never mention an assigned variable, so nothing above the node is
    needed and no assignment is copied.
    """
    cache, held = {}, 0

    def remember(key, value):
        # No key comes twice: while a component's sum is pending, the nodes
        # in between see strictly fewer or disjoint variables.
        nonlocal held
        cache[key] = value
        held += 1 + len(key[0]) + len(key[1])
        while held > _CACHE_CLAUSE_BUDGET:
            old = next(iter(cache))
            held -= 1 + len(old[0]) + len(old[1])
            del cache[old]
            stats.cache_evictions += 1
        return value

    def base(justification):
        if not justification:
            return 1
        key = ((), justification)
        value = cache.get(key)
        if value is None:
            return remember(key, _justification_base(justification, copy_lo, stats))
        stats.cache_hits += 1
        return value

    tasks = [("count", search, justification, None, {})]
    values = []
    while tasks:
        task = tasks.pop()
        op = task[0]
        if op == "count":
            _, search, justification, occurrences, assign = task
            result = _bcp(search, justification, assign, copy_lo, stats, occurrences)
            if result is _CONFLICT:
                values.append(0)
                continue
            search, justification = result
            if not search:
                values.append(base(justification))
                continue
            components = _split_components(search, justification, use_decomposition)
            if len(components) > 1:
                stats.components += len(components)
            tasks.append(("combine", len(components)))
            for part_search, part_just, occurrences in components:
                if not part_search:
                    # Justification-only component: straight to the base case.
                    values.append(base(part_just))
                    continue
                key = (part_search, part_just)
                value = cache.get(key)
                if value is not None:
                    stats.cache_hits += 1
                    values.append(value)
                    continue
                var = policy.pick(occurrences, orig_limit)
                stats.decisions += 1
                tasks.append(("sum", key))
                tasks.append(("count", part_search, part_just, occurrences, {var: True}))
                tasks.append(("count", part_search, part_just, occurrences, {var: False}))
        elif op == "sum":
            values.append(remember(task[1], values.pop() + values.pop()))
        else:  # combine
            product = 1
            for _ in range(task[1]):
                product *= values.pop()
            values.append(product)
    stats.cache_entries += len(cache)
    return values[0]


def count_pair(pair: PairState, *, policy: BranchPolicy | None = None,
               use_decomposition: bool = True,
               stats: CountStats | None = None) -> CountResult:
    """Count minimal models by recursing over the search/justification pair.

    The recursion starts from the empty assignment; ``stats``, when
    given, accumulates the run's counters.
    """
    stats = stats if stats is not None else CountStats()
    policy = policy or BranchPolicy()
    count = _run(
        pair.search.clauses, pair.justification.clauses,
        orig_limit=pair.search.num_original_vars,
        copy_lo=pair.copy_map.first_copy_id, policy=policy,
        use_decomposition=use_decomposition, stats=stats,
    )
    return CountResult(count, stats)


def _input_parts(clauses):
    """``(variables, formula)`` per variable-disjoint part, ``[]`` if connected.

    ``variables`` holds the part's input ids in increasing order, and
    ``formula`` its clauses in input order with ``variables[i - 1]``
    renumbered to ``i``.  An empty clause is a part of its own.
    """
    _, group_of = _index(clauses, ())
    grouped = {}
    for clause in clauses:
        key = id(group_of[abs(clause[0])]) if clause else None
        grouped.setdefault(key, []).append(clause)
    if len(grouped) < 2:
        return []
    parts = []
    for part_clauses in grouped.values():
        variables = sorted({abs(lit) for clause in part_clauses for lit in clause})
        number = {var: new for new, var in enumerate(variables, 1)}
        renumbered = tuple(
            tuple(number[lit] if lit > 0 else -number[-lit] for lit in clause)
            for clause in part_clauses
        )
        parts.append((variables, CnfFormula(renumbered, len(variables))))
    return parts


def copied_variables(formula: CnfFormula, graph: DepGraph, force_mode: str | None = None):
    """The variables the pair of a mode gives a copy variable.

    Forced ``general`` copies every variable and forced ``acyclic`` none.
    Otherwise a variable is copied when it lies on a cycle of ``graph``,
    the formula's dependency graph: in a non-trivial SCC or on a self-arc.
    The search side demands that every true variable be forced, so only
    a set of true variables that support one another in a cycle can lack
    justification.
    """
    if force_mode == MODE_GENERAL:
        return formula.variables()
    if force_mode == MODE_ACYCLIC:
        return set()
    cyclic = {var for scc in graph.sccs.components if len(scc) > 1 for var in scc}
    cyclic.update(a for a, b in graph.arcs if a == b)
    return cyclic


def _count_part(formula, copied, stats, **options) -> int:
    stats.parts += 1
    stats.copy_vars += len(copied)
    stats.general_parts += bool(copied)
    return count_pair(build_pair(formula, copied), stats=stats, **options).count


def count_minimal(formula: CnfFormula, *, policy: BranchPolicy | None = None,
                  use_decomposition: bool = True, force_mode: str | None = None,
                  graph: DepGraph | None = None) -> CountResult:
    """Count the minimal models of a CNF formula.

    A model is minimal exactly when its restriction to every
    variable-disjoint part is, so the parts are counted one by one and
    their counts multiply (unless ``use_decomposition`` is off).  Every
    part goes through the pair recursion, with copy variables for the
    variables ``copied_variables`` names: those on a cycle of the
    dependency graph, so an acyclic part has no justification side and
    its count is the model count of the part strengthened with its
    forced implications.  ``force_mode`` ``general`` copies every
    variable; ``acyclic`` copies none and raises ``ValueError`` on a
    cyclic formula.  ``graph`` is the formula's dependency graph, if the
    caller has built it.
    """
    graph = graph if graph is not None else build_dependency_graph(formula)
    acyclic = is_acyclic(graph)
    mode = force_mode if force_mode is not None else (
        MODE_ACYCLIC if acyclic else MODE_GENERAL
    )
    if mode == MODE_ACYCLIC and not acyclic:
        raise ValueError("acyclic mode requested but the dependency graph has a cycle")
    if mode not in (MODE_ACYCLIC, MODE_GENERAL):
        raise ValueError(f"unknown mode {mode!r}")
    stats = CountStats(
        mode=mode, acyclic=acyclic, head_cycle_free=is_head_cycle_free(formula, graph)
    )
    copied = copied_variables(formula, graph, force_mode)
    options = {"policy": policy, "use_decomposition": use_decomposition}
    parts = _input_parts(formula.clauses) if use_decomposition else []
    if not parts:
        return CountResult(_count_part(formula, copied, stats, **options), stats)

    # Each part is renumbered, so each gets its own run and cache.
    stats.components += len(parts)
    count = 1
    for variables, part in parts:
        part_copied = [new for new, var in enumerate(variables, 1) if var in copied]
        count *= _count_part(part, part_copied, stats, **options)
    return CountResult(count, stats)
