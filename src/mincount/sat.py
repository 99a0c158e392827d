"""Deterministic DPLL satisfiability kernel with watched-literal propagation.

Branching always picks the lowest unassigned variable id and tries false
first, so two runs on identical inputs return identical results.  Each
call is an independent solve; there is no incremental state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .formula import CnfFormula, evaluate


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: frozenset | None = None


def solve(clauses) -> SatResult:
    """Decide satisfiability of a sequence of clause tuples.

    The witness, when satisfiable, is the set of occurring variables the
    model sets true; every other occurring variable is false.
    """
    clauses = [tuple(dict.fromkeys(clause)) for clause in clauses]
    if any(len(clause) == 0 for clause in clauses):
        return SatResult(False)
    variables = sorted({abs(lit) for clause in clauses for lit in clause})

    assign: dict[int, bool] = {}
    trail: list[int] = []
    queue: deque[int] = deque()
    watched: dict[int, list[int]] = {}
    watch_pair: list[list[int]] = []
    root_units: list[int] = []

    for index, clause in enumerate(clauses):
        watch_pair.append(list(clause[:2]))
        if len(clause) == 1:
            root_units.append(clause[0])
        else:
            watched.setdefault(clause[0], []).append(index)
            watched.setdefault(clause[1], []).append(index)

    def enqueue(lit: int) -> bool:
        var = abs(lit)
        value = lit > 0
        current = assign.get(var)
        if current is not None:
            return current == value
        assign[var] = value
        trail.append(lit)
        queue.append(lit)
        return True

    def propagate() -> bool:
        while queue:
            lit = queue.popleft()
            falsified = -lit
            watchers = watched.get(falsified)
            if not watchers:
                continue
            pos = 0
            while pos < len(watchers):
                index = watchers[pos]
                pair = watch_pair[index]
                other = pair[1] if pair[0] == falsified else pair[0]
                other_value = assign.get(abs(other))
                if other_value == (other > 0):
                    pos += 1
                    continue
                moved = False
                for candidate in clauses[index]:
                    if candidate == falsified or candidate == other:
                        continue
                    value = assign.get(abs(candidate))
                    if value is None or value == (candidate > 0):
                        pair[0], pair[1] = other, candidate
                        watched.setdefault(candidate, []).append(index)
                        watchers[pos] = watchers[-1]
                        watchers.pop()
                        moved = True
                        break
                if moved:
                    continue
                if other_value is None:
                    enqueue(other)
                    pos += 1
                else:
                    return False
        return True

    for lit in root_units:
        if not enqueue(lit):
            return SatResult(False)
    if not propagate():
        return SatResult(False)

    # Chronological backtracking over an explicit decision stack: each
    # entry is (trail length before the decision, literal, flipped yet).
    decisions: list[list] = []

    def backtrack_to(length: int) -> None:
        while len(trail) > length:
            del assign[abs(trail.pop())]
        queue.clear()

    while True:
        chosen = None
        for var in variables:
            if var not in assign:
                chosen = var
                break
        if chosen is None:
            return SatResult(True, frozenset(lit for lit in trail if lit > 0))
        decisions.append([len(trail), -chosen, False])
        enqueue(-chosen)
        while not propagate():
            while decisions and decisions[-1][2]:
                length, _, _ = decisions.pop()
                backtrack_to(length)
            if not decisions:
                return SatResult(False)
            length, lit, _ = decisions[-1]
            backtrack_to(length)
            decisions[-1] = [length, -lit, True]
            enqueue(-lit)


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
