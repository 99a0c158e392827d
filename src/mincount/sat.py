"""The clause database, its propagator and a DPLL satisfiability kernel.

A clause database indexes fixed clauses by bit masks: Python ints whose
bits are clause or variable ids.  ``_bcp`` propagates units and supports
over it from two immutable masks, the assigned variables and the
satisfied clauses, so a search node needs no trail and nothing is
undone.  It is the only propagator, and ``_search`` the only depth-first
loop: the counting recursion asks it justification queries in the run's
own database, and ``solve``, the oracle's kernel, runs it over a
database of its clauses.

``_search`` branches on the lowest unassigned variable and tries false
first, so two runs on identical inputs return identical results.  Each
call is an independent search; there is no incremental state.

``_input_parts`` renumbers clauses to their own ids ``1..k``, so that
sparse ids do not widen the masks or the dependency graph's tables: for
``solve`` and the whole-input outputs of ``cli.run`` as one part, for
``counting.count_minimal`` per variable-disjoint part.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .formula import CnfFormula, evaluate

_CONFLICT = object()


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: frozenset | None = None


# ``_BITS[byte]``: the positions of the set bits of a byte, in increasing order.
_BITS = [tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)]


def _ids(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    ids, base = [], 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for bit in _BITS[byte]:
                ids.append(base + bit)
        base += 8
    return ids


class _Database:
    """The fixed clauses and supports of one counting run or ``solve``
    call, indexed by bit masks.

    Bit ids number the search clauses, the supports, the justification
    clauses, then one trigger per ``x`` with supports; ``all`` masks the
    clauses and supports, ``search`` the search side's and the triggers.
    ``lits[lit]`` masks the bits a true ``lit`` satisfies (a negative
    literal indexes from the end), ``checks[lit]`` those ``_bcp`` examines
    when ``lit`` is asserted, ``occurs[var]`` those holding ``var``, and
    ``clause_vars[id]`` a bit's variables.  ``clauses`` drops repeated
    literals; one that still repeats a variable is in ``repeats`` and
    never a unit.  ``units`` are the search unit clauses and the
    justification ones over copies.

    The ``i``-th ``x`` of ``build_pair``'s ``supports`` reserves the id
    ``orig_limit + 1 + i``, never assigned or picked.  An ``x`` with one
    co-literal set gets a search clause ``(-x, -c)`` per co-literal ``c``.
    Otherwise the id is a connector, and each set a support, the clause of
    its co-literals, ``-x`` and the connector: a true co-literal spoils it,
    a false ``x`` needs none, and a true ``x`` keeps its supports in one
    component.  ``settle[x]`` masks them and the trigger of ``x``, in
    ``checks`` of ``x`` and each co-literal; ``owner`` maps the ids of
    those bits to ``x``.
    """

    def __init__(self, search, justification, orig_limit, copy_lo, top, supports=()):
        self.variables = ((1 << (top + 1)) - 2) ^ ((1 << len(supports)) - 1) << (orig_limit + 1)
        search = [*search, *[(-x, -lit) for x, _, sets in supports if len(sets) == 1
                             for lit in sets[0]]]
        supports = [(connector, x, sets) for connector, (x, _, sets)
                    in enumerate(supports, orig_limit + 1) if len(sets) > 1]
        self.num_search = num_search = len(search)
        co_sets = [(*co, -x, connector) for connector, x, sets in supports for co in sets]
        self.all = (1 << (num_search + len(co_sets) + len(justification))) - 1
        triggers = ((1 << len(supports)) - 1) << self.all.bit_length()
        self.search = (1 << (num_search + len(co_sets))) - 1 | triggers
        self.originals = (1 << (orig_limit + 1)) - 2
        self.below_copies = (1 << copy_lo) - 1
        self.lits = lits = [0] * (2 * top + 1)
        var_bits = [1 << var for var in range(top + 1)]
        var_bits += var_bits[:0:-1]  # indexed by literal too
        self.clause_vars = clause_vars = []
        clauses, repeats = [*search, *co_sets, *justification] + [()] * len(supports), 0
        for index, clause in enumerate(clauses):
            bit, variables = 1 << index, 0
            for lit in clause:
                lits[lit] |= bit
                variables |= var_bits[lit]
            if variables.bit_count() < len(clause):
                clauses[index] = clause = tuple(dict.fromkeys(clause))
                if variables.bit_count() < len(clause):
                    repeats |= bit
            clause_vars.append(variables)
        self.clauses, self.repeats = tuple(clauses), repeats
        self.checks = checks = [0] + lits[:0:-1]  # ``checks[lit]`` is ``lits[-lit]``
        self.settle, first, trigger = {}, num_search, self.all + 1
        for _, x, sets in supports:
            self.settle[x] = ((1 << len(sets)) - 1) << first | trigger
            lits[-x] |= trigger
            for lit in (x, *[lit for co in sets for lit in co]):
                checks[lit] |= trigger
            first, trigger = first + len(sets), trigger << 1
        self.owner = {index: x for x, bits in self.settle.items() for index in _ids(bits)}
        self.occurs = occurs = [lits[var] | lits[-var] for var in range(top + 1)]
        self.occurring_vars = self.occurring(self.all)
        self.variables &= self.occurring_vars | self.below_copies  # no copy id in no clause
        self.units = [clause[0] for index, clause in enumerate(clauses) if len(clause) == 1
                      and (index < num_search or abs(clause[0]) >= copy_lo)]
        self.empty = not all(search)

    def occurring(self, clauses: int) -> int:
        """The mask of the variables the given clauses hold."""
        variables = 0
        for index in _ids(clauses):
            variables |= self.clause_vars[index]
        return variables


def _bcp(db: _Database, assigned: int, satisfied: int, queue: list, conflicts: int):
    """Assert the literals of ``queue`` and propagate to fixpoint.

    ``assigned`` and ``satisfied`` are the masks of the assigned variables
    and the satisfied bits; ``queue`` is extended with the propagated
    literals.  A queued literal over an assigned variable is skipped: it
    comes from a unit clause, which propagating that variable checks.

    Search-side units are asserted.  On the justification side only units
    over copy variables propagate, and their values never feed back into
    the search side because copies do not occur there.  Units over
    original variables arising on the justification side are left in
    place; the search side derives the same assignment itself.

    Support rule (Gebser, Kaufmann & Schaub, AIJ 2012), on bits with no
    free variable: all co-literals of a support false justify a true ``x``;
    else a free ``x`` with every support spoiled goes false, a true one
    conflicts, and a true one's lone support sets its co-literals false.

    Returns the new ``(assigned, satisfied)`` masks, or the conflict
    sentinel when a clause of the ``conflicts`` mask is emptied or the
    support rule fails.
    """
    lits, checks, clause_vars, all_bits = db.lits, db.checks, db.clause_vars, db.all
    repeats, num_search, below_copies = db.repeats, db.num_search, db.below_copies
    free = db.variables ^ assigned
    for lit in queue:
        bit = 1 << abs(lit)
        if free & bit:
            free ^= bit
            satisfied |= lits[lit]
    # Any other falsified clause mid-propagation is only an invariant
    # violation if no clause of ``conflicts`` is emptied by the fixpoint.
    violated = False
    for lit in queue:  # grows as units are found
        falsified = checks[lit] & ~satisfied
        while falsified:
            low = falsified & -falsified
            falsified ^= low
            if low & satisfied:
                continue
            index = low.bit_length() - 1
            if low > all_bits:  # the trigger: x is true or lost a support
                x = db.owner[index]
                left = db.settle[x] & ~satisfied ^ low
                if free >> x & 1:
                    negated = () if left else (x,)
                elif not left:
                    return _CONFLICT
                else:  # a lone support's co-literals go false
                    negated = () if left & (left - 1) else db.clauses[left.bit_length() - 1]
                for lit in negated:  # -x and the connector are not free
                    if free >> abs(lit) & 1:
                        free ^= 1 << abs(lit)
                        satisfied |= lits[-lit]
                        queue.append(-lit)
                continue
            open_vars = clause_vars[index] & free
            if open_vars & (open_vars - 1):
                continue
            if not open_vars:
                x = db.owner.get(index)
                if x:  # a support with every co-literal false, x true
                    satisfied |= db.settle[x]
                elif low & conflicts:
                    return _CONFLICT
                else:
                    violated = True
            elif not low & repeats and (index < num_search or open_vars > below_copies):
                free ^= open_vars
                unit = open_vars.bit_length() - 1
                if not lits[unit] & low:
                    unit = -unit
                satisfied |= lits[unit]
                queue.append(unit)
    if violated:
        raise RuntimeError(
            "justification clause falsified; the search side must conflict first"
        )
    return db.variables ^ free, satisfied


def _input_parts(clauses, split):
    """``(variables, clauses)`` per variable-disjoint part of the input.

    ``variables`` holds the input ids the part's clauses hold, in
    increasing order, and ``clauses`` those clauses in input order with
    ``variables[i - 1]`` renumbered to ``i``; a connected input already
    over ``1..k`` is ``clauses`` itself.  Unless ``split``, all clauses
    form one part; otherwise an empty clause is a part of its own.  No
    clause, no part.

    The grouping indexes a list by variable id and the renumbering one by
    literal, both sized by the largest id, or dicts when that id exceeds
    the input's number of literals, so no table outgrows the input.
    """
    top = max(map(abs, chain.from_iterable(clauses)), default=0)
    if top > sum(map(len, clauses)):
        group_of, number = dict.fromkeys(map(abs, chain.from_iterable(clauses))), {}
    else:
        group_of, number = [None] * (top + 1), [0] * (2 * top + 1)
    # Each variable maps to the list of those it shares clauses with,
    # transitively (one list unless ``split``); a join moves the smaller.
    whole = None if split else []
    for clause in clauses:
        group = whole
        for lit in clause:
            var = abs(lit)
            other = group_of[var]
            if other is None:
                if group is None:
                    group = []
                group.append(var)
                group_of[var] = group
            elif group is None:
                group = other
            elif other is not group:
                if len(other) > len(group):
                    group, other = other, group
                for moved in other:
                    group_of[moved] = group
                group.extend(other)
    # A part is numbered at its first clause; a short clause takes no ``map``.
    grouped = {}
    for clause in clauses:
        group = group_of[abs(clause[0])] if clause else whole
        part = grouped.get(id(group))
        if part is None:
            variables = sorted(group or ())
            for new, var in enumerate(variables, 1):
                number[var], number[-var] = new, -new
            part = grouped[id(group)] = (variables, [])
        size = len(clause)
        part[1].append((number[clause[0]], number[clause[1]]) if size == 2 else
                       (number[clause[0]], number[clause[1]], number[clause[2]]) if size == 3
                       else tuple(map(number.__getitem__, clause)))
    parts = list(grouped.values())
    if len(parts) == 1 and len(parts[0][0]) == top:  # connected, over ``1..k``
        return [(parts[0][0], clauses)]
    return parts


def _search(db: _Database, assigned: int, satisfied: int, clauses: int,
            variables: int, queue: list):
    """The true literals of the least model of the ``clauses`` mask in id
    order, or ``None``.  Depth first from the node of the masks asserting
    ``queue``, false first on the lowest unassigned of ``variables``; an
    emptied clause of ``clauses`` is a conflict.  A variable left
    unassigned can take either value.
    """
    # Depth first: a task is a node's masks, its true literals so far and
    # the literals it asserts.
    tasks = [(assigned, satisfied, (), queue)]
    while tasks:
        assigned, satisfied, path, queue = tasks.pop()
        result = _bcp(db, assigned, satisfied, queue, clauses)
        if result is _CONFLICT:
            continue
        assigned, satisfied = result
        path += tuple(lit for lit in queue if lit > 0)
        if not clauses & ~satisfied:
            return path
        free = variables & ~assigned
        var = (free & -free).bit_length() - 1
        tasks.append((assigned, satisfied, path, [var]))
        tasks.append((assigned, satisfied, path, [-var]))
    return None


def solve(clauses) -> SatResult:
    """Decide satisfiability of a sequence of clause tuples.

    The witness, when satisfiable, is the set of occurring variables the
    model sets true; every other occurring variable is false.
    """
    [(variables, renumbered)] = _input_parts(clauses, False) or [([], clauses)]
    top = len(variables)
    db = _Database(renumbered, (), top, top + 1, top)
    path = None if db.empty else _search(db, 0, 0, db.all, db.variables, list(db.units))
    if path is None:
        return SatResult(False)
    return SatResult(True, frozenset(variables[lit - 1] for lit in path))


def check_minimal(formula: CnfFormula, true_vars) -> bool:
    """Decide whether the model setting exactly ``true_vars`` true is minimal.

    Asks for a model of the formula that keeps every false variable
    false and flips at least one true variable; the input model is
    minimal exactly when there is none.  A true variable in no clause can
    always flip, so a model holding one, or no true variable at all, takes
    no solver call.  Raises ``ValueError`` when ``true_vars`` is not a
    model of the formula.
    """
    if not evaluate(formula, true_vars):
        raise ValueError("check_minimal requires a model of the formula")
    occurring = sorted(formula.variables())
    flip_some = tuple(-var for var in occurring if var in true_vars)
    if not flip_some or len(flip_some) < len(set(true_vars)):
        return not true_vars
    false_units = tuple((-var,) for var in occurring if var not in true_vars)
    return not solve(formula.clauses + false_units + (flip_some,)).satisfiable
