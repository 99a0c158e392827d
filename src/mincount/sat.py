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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    clauses, then one trigger per supported variable; ``all`` masks the
    clauses and supports, ``search`` the search side's and the triggers.
    ``lits[lit]`` masks the bits a true ``lit`` satisfies (a negative
    literal indexes from the end), ``checks[lit]`` those ``_bcp`` examines
    when ``lit`` is asserted, ``occurs[var]`` those holding ``var``, and
    ``clause_vars[id]`` a bit's variables.  ``clauses`` drops repeated
    literals; one that still repeats a variable is in ``repeats`` and
    never a unit.  ``units`` are the search unit clauses and the
    justification ones over copies.

    The ``i``-th ``x`` of ``build_pair``'s ``supports`` gets the connector
    ``orig_limit + 1 + i``, never assigned or picked.  Each co-literal set
    is a support, the clause of its co-literals, ``-x`` and the connector:
    a true co-literal spoils it, a false ``x`` needs none, and a true ``x``
    keeps its supports in one component.  ``settle[x]`` masks them and the
    trigger of ``x``, in ``checks`` of ``x`` and each co-literal; ``owner``
    maps the ids of those bits to ``x``.
    """

    def __init__(self, search, justification, orig_limit, copy_lo, top, supports=()):
        self.num_search = num_search = len(search)
        co_sets = [(*co, -x, connector) for connector, (x, _, sets)
                   in enumerate(supports, orig_limit + 1) for co in sets]
        self.all = (1 << (num_search + len(co_sets) + len(justification))) - 1
        one_each = (1 << len(supports)) - 1  # a trigger or connector per x
        self.search = (1 << (num_search + len(co_sets))) - 1 | one_each << self.all.bit_length()
        self.variables = ((1 << (top + 1)) - 2) ^ one_each << (orig_limit + 1)
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
        for x, _, sets in supports:
            self.settle[x] = ((1 << len(sets)) - 1) << first | trigger
            lits[-x] |= trigger
            for lit in (x, *[lit for co in sets for lit in co]):
                checks[lit] |= trigger
            first, trigger = first + len(sets), trigger << 1
        self.owner = {index: x for x, bits in self.settle.items() for index in _ids(bits)}
        self.occurs = occurs = [lits[var] | lits[-var] for var in range(top + 1)]
        # One bit per variable that occurs: cheaper than ORing every clause's mask.
        bits = ["1" if mask else "0" for mask in reversed(occurs)]
        self.occurring_vars = int("".join(bits), 2)
        self.units = [clause[0] for index, clause in enumerate(clauses) if len(clause) == 1
                      and (index < num_search or abs(clause[0]) >= copy_lo)]
        self.empty = () in search

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
    lits, checks, clause_vars = db.lits, db.checks, db.clause_vars
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
            open_vars = clause_vars[index] & free
            if open_vars & (open_vars - 1):
                continue
            if not open_vars:
                x = db.owner.get(index)
                if not x:
                    if low & conflicts:
                        return _CONFLICT
                    violated = True
                elif low & db.all:  # a support with every co-literal false, x true
                    satisfied |= db.settle[x]
                else:  # the trigger: x is true or lost a support
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


def _renumber(clauses, variables=None):
    """The occurring variables in increasing order, and ``clauses`` with
    ``variables[i - 1]`` renumbered to ``i``: ``clauses`` itself when they
    are already ``1..k``.  ``variables``, when given, are the occurring
    ones in increasing order."""
    if variables is None:
        variables = sorted({abs(lit) for clause in clauses for lit in clause})
    if not variables or variables[-1] == len(variables):
        return variables, clauses
    number = {var: new for new, var in enumerate(variables, 1)}
    number.update({-var: -new for var, new in number.items()})
    renumbered = tuple(tuple(map(number.__getitem__, clause)) for clause in clauses)
    return variables, renumbered


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
    # Renumbered, so that sparse ids do not widen the masks.
    variables, renumbered = _renumber(clauses)
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
    minimal exactly when there is none.  A model with no true variable
    is minimal without a solver call.  Raises ``ValueError`` when
    ``true_vars`` is not a model of the formula.
    """
    if not evaluate(formula, true_vars):
        raise ValueError("check_minimal requires a model of the formula")
    occurring = sorted(formula.variables())
    flip_some = tuple(-var for var in occurring if var in true_vars)
    if not flip_some:
        return True
    false_units = tuple((-var,) for var in occurring if var not in true_vars)
    return not solve(formula.clauses + false_units + (flip_some,)).satisfiable
