"""Constructions for the counting pair.

The search side strengthens the input so that every true variable is
forced by one of its clauses; the justification side introduces copy
variables and implications that let a SAT check detect true atoms whose
truth is not justified.  As every true atom is forced, only the variables
on a cycle of the dependency graph need a copy; the full pair copies
every variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .formula import AUX, COPY, ORIG, CnfFormula, VarRange, write_dimacs


@dataclass(frozen=True)
class CopyVarMap:
    """Bijection between original variables and their copy variables.

    Copy ids occupy the contiguous block right above ``offset``, which is
    chosen past the auxiliary range so the three ranges stay disjoint.
    The id of a variable that gets no copy stays unused.
    """

    offset: int
    num_original_vars: int

    def copy_of(self, var: int) -> int:
        return var + self.offset

    def original_of(self, copy_var: int) -> int:
        return copy_var - self.offset

    def is_copy(self, var: int) -> bool:
        return self.offset < var <= self.offset + self.num_original_vars

    @property
    def first_copy_id(self) -> int:
        return self.offset + 1


@dataclass
class PairState:
    """The two formulas the counting recursion walks.

    ``search`` holds the input clauses strengthened with the forced
    implications (original + auxiliary variables); ``justification``
    holds the copy implications (original + copy variables).  The
    recursion starts from the empty assignment.
    """

    search: CnfFormula
    justification: CnfFormula
    copy_map: CopyVarMap


def with_forced_clauses(formula: CnfFormula) -> CnfFormula:
    """The input formula conjoined with the CNF of its forced implications.

    Each implication says: if x is true, some clause containing x
    positively has all its other literals false.  Those other literals
    form the clause's co-literal set for x.  Co-literal sets of size one
    are inlined as single negated literals; larger sets get a fresh
    auxiliary variable, numbered upward from n + 1, defined by a full
    biconditional, so auxiliary values are functionally determined and
    the model count over original variables is unchanged.  A variable
    that can never be forced gets the unit clause requiring it false; a
    variable forced by a unit clause of the input yields no implication
    at all.
    """
    n = formula.num_original_vars
    forcing = {x: [] for x in range(1, n + 1)}
    for clause in formula.clauses:
        for lit in clause:
            if lit > 0:
                forcing[lit].append(tuple(other for other in clause if other != lit))
    clauses = list(formula.clauses)
    next_id = n + 1
    for x, co_sets in forcing.items():
        if not co_sets:
            clauses.append((-x,))
            continue
        if any(len(co) == 0 for co in co_sets):
            # x occurs as a unit clause; flipping it always falsifies that
            # clause, so the implication is vacuously true.
            continue
        implication = [-x]
        # A repeated input clause repeats its co-literal set; one is enough.
        for co in dict.fromkeys(co_sets):
            if len(co) == 1:
                implication.append(-co[0])
            else:
                aux = next_id
                next_id += 1
                for lit in co:
                    clauses.append((-aux, -lit))
                clauses.append((aux,) + co)
                implication.append(aux)
        clauses.append(tuple(implication))
    ranges = [VarRange(ORIG, 1, n)]
    if next_id > n + 1:
        ranges.append(VarRange(AUX, n + 1, next_id - 1))
    return CnfFormula(tuple(clauses), n, tuple(ranges))


def copy_formula(formula: CnfFormula, copy_map: CopyVarMap, copied=None) -> CnfFormula:
    """Copy-variable implications used for justification checking.

    Only the variables in ``copied`` (default: every occurring variable)
    get a copy; any other variable stands for itself.  Three clause
    groups: one implication copy(x) -> x per copied variable; per input
    clause with a positive literal and a copied variable, the clause's
    image, each copied variable replaced by its copy; and a unit
    requiring x false for every copied variable that never occurs
    positively.  The other clauses produce no image: one without a
    positive literal holds in every subset of a model, and one without a
    copied variable is already on the search side.
    """
    copy_of = {
        x: copy_map.copy_of(x)
        for x in sorted(formula.variables() if copied is None else copied)
    }
    positive = {lit for clause in formula.clauses for lit in clause if lit > 0}
    clauses: list[tuple[int, ...]] = [(-copy, x) for x, copy in copy_of.items()]
    for clause in formula.clauses:
        positives = [copy_of.get(lit, lit) for lit in clause if lit > 0]
        if positives and any(abs(lit) in copy_of for lit in clause):
            clauses.append(
                tuple([-copy_of.get(-lit, -lit) for lit in clause if lit < 0] + positives)
            )
    clauses.extend((-x,) for x in copy_of if x not in positive)
    ranges = (
        VarRange(ORIG, 1, formula.num_original_vars),
        VarRange(COPY, copy_map.first_copy_id, copy_map.offset + copy_map.num_original_vars),
    )
    return CnfFormula(tuple(clauses), formula.num_original_vars, ranges)


def build_pair(formula: CnfFormula, copied=None) -> PairState:
    """Assemble the search/justification pair for an input formula.

    ``copied`` names the variables that get a copy (default: every one that
    occurs); with none the justification side is empty.
    """
    search = with_forced_clauses(formula)
    offset = max(vr.hi for vr in search.var_ranges)
    copy_map = CopyVarMap(offset=offset, num_original_vars=formula.num_original_vars)
    return PairState(search, copy_formula(formula, copy_map, copied), copy_map)


def write_pair_files(pair: PairState, directory: str) -> tuple[str, str]:
    """Write the pair as DIMACS files ``forced.cnf`` and ``copy.cnf``.

    Both files carry ``c vr`` range comments; the copy file additionally
    records one ``c copy <orig> <copy>`` comment per copied variable.
    """
    os.makedirs(directory, exist_ok=True)
    search_path = os.path.join(directory, "forced.cnf")
    copy_path = os.path.join(directory, "copy.cnf")
    with open(search_path, "w") as handle:
        handle.write(write_dimacs(pair.search))
    copy_map = pair.copy_map
    copy_comments = [
        f"c copy {copy_map.original_of(var)} {var}"
        for var in sorted(pair.justification.variables())
        if copy_map.is_copy(var)
    ]
    with open(copy_path, "w") as handle:
        handle.write(write_dimacs(pair.justification, extra_comments=copy_comments))
    return search_path, copy_path
