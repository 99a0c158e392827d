"""The clause database, its unit propagator and a DPLL satisfiability kernel.

A clause database indexes fixed clauses by bit masks: Python ints whose
bits are clause or variable ids.  ``_bcp`` propagates units over it from
two immutable masks, the assigned variables and the satisfied clauses,
so a search node needs no trail and nothing is undone.  It is the only
unit propagator, and ``_search`` the only depth-first loop: the counting
recursion asks it justification queries in the run's own database, and
``solve``, the oracle's kernel, runs it over a database of its clauses.

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
    """The fixed clauses of one counting run or ``solve`` call, indexed by
    bit masks.

    Clause ids number the search clauses first, then the justification
    clauses, and variable ids are at most ``top``.  ``lits[lit]`` is the
    mask of the clauses holding the literal ``lit`` (a negative literal
    indexes from the end), ``occurs[var]`` the mask of those holding
    ``var`` either way, ``clause_vars[id]`` a clause's variable mask and
    ``occurring_vars`` the mask of the variables some clause holds.
    ``clauses`` holds each clause with its repeated literals dropped; one
    that still repeats a variable is a tautology, is in ``repeats`` and
    never acts as a unit.  ``units`` are the literals of the unit clauses
    that propagate: all search ones, and justification ones over copy
    variables.

    ``uses`` and ``dead`` retire the definitions of auxiliary variables.
    Such a variable qualifies when it occurs in search clauses only,
    positively in exactly two, its definition ``D`` and then its use, and
    every clause holding its negation also holds ``-l`` for another literal
    ``l`` of ``D``.  Whatever the other variables hold, some value of it
    then satisfies ``D`` and its negative clauses: false when a literal of
    ``D`` is true, true otherwise.  So once its use holds it is a
    don't-care, and those clauses no longer constrain the others (removing
    defined variables: Lagniez & Marquis, AAAI 2014).  ``uses`` is the mask
    of the uses, and ``dead[u]`` the mask of the clauses the use with id
    ``u`` retires.
    """

    def __init__(self, search, justification, orig_limit, copy_lo, top):
        self.num_search = num_search = len(search)
        self.search = (1 << num_search) - 1
        self.all = (1 << (num_search + len(justification))) - 1
        self.variables = (1 << (top + 1)) - 2
        self.originals = (1 << (orig_limit + 1)) - 2
        self.below_copies = (1 << copy_lo) - 1
        self.lits = lits = [0] * (2 * top + 1)
        var_bits = [1 << var for var in range(top + 1)]
        var_bits += var_bits[:0:-1]  # indexed by literal too
        self.clause_vars = clause_vars = []
        clauses, repeats = [*search, *justification], 0
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
        self.occurs = occurs = [lits[var] | lits[-var] for var in range(top + 1)]
        # One bit per variable that occurs: cheaper than ORing every clause's mask.
        bits = ["1" if mask else "0" for mask in reversed(occurs)]
        self.occurring_vars = int("".join(bits), 2)
        self.units = [clause[0] for index, clause in enumerate(clauses) if len(clause) == 1
                      and (index < num_search or abs(clause[0]) >= copy_lo)]
        self.empty = () in search
        self.uses, self.dead = 0, {}
        for aux in range(orig_limit + 1, copy_lo):
            positive = lits[aux]
            if positive.bit_count() != 2 or occurs[aux] >> num_search:
                continue
            definition = positive & -positive
            covered = 0
            for lit in clauses[definition.bit_length() - 1]:
                if lit != aux:
                    covered |= lits[-lit]
            if lits[-aux] & ~covered:
                continue
            use = positive ^ definition
            index = use.bit_length() - 1
            self.uses |= use
            self.dead[index] = self.dead.get(index, 0) | definition | lits[-aux]

    def occurring(self, clauses: int) -> int:
        """The mask of the variables the given clauses hold."""
        variables = 0
        for index in _ids(clauses):
            variables |= self.clause_vars[index]
        return variables


def _bcp(db: _Database, assigned: int, satisfied: int, queue: list, conflicts: int):
    """Assert the literals of ``queue`` and propagate units to fixpoint.

    ``assigned`` and ``satisfied`` are the masks of the assigned variables
    and the satisfied clauses; ``queue`` is extended with the propagated
    literals.  A queued literal over an assigned variable is skipped: it
    comes from a unit clause, which propagating that variable checks.

    Search-side units (original and auxiliary literals) are asserted.
    On the justification side only units over copy variables propagate,
    and their values never feed back into the search side because copies
    do not occur there.  Units over original variables arising on the
    justification side are left in place; the search side derives the
    same assignment itself.

    Returns the new ``(assigned, satisfied)`` masks, or the conflict
    sentinel when a clause of the ``conflicts`` mask is emptied.
    """
    lits, clause_vars = db.lits, db.clause_vars
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
        falsified = lits[-lit] & ~satisfied
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
                if low & conflicts:
                    return _CONFLICT
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
