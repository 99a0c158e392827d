"""Constructions for the counting pair.

The search side strengthens the input so that every true variable is
forced by one of its clauses; the justification side introduces copy
variables and implications that let a SAT check detect true atoms whose
truth is not justified.  As every true atom is forced, only the variables
on a cycle of the dependency graph need a copy; the full pair copies
every variable.

A pair is plain data: ``(search, justification, orig_limit, copy_lo,
top, supports)``, two clause lists, three bounds and the supports of the
forced implications.  The originals are ``1..orig_limit``, a connector
per supported variable follows up to ``copy_lo - 1``, and the copy of
original ``x`` is ``x + copy_lo - 1``.  ``top`` is the largest copy, or
``copy_lo - 1`` without one; the id of a variable that gets no copy
stays unused.
"""

from __future__ import annotations

import os

from .formula import CnfFormula, write_dimacs


def build_pair(clauses, num_vars: int, copied):
    """The search/justification pair of the clauses over ``1..num_vars``.

    One walk over the clauses collects, per variable x, the co-literal
    sets of the clauses holding x positively (a clause's other literals),
    and the clauses that need a justification image.

    The search side is the input strengthened with the forced
    implications: if x is true, some clause holding x positively has all
    its other literals false.  If every co-literal set of x is one
    literal, the implication is one clause; otherwise ``supports`` gets
    ``(x, at, co_sets)``: its distinct co-literal sets, which the clause
    database propagates as supports (one set, as binary clauses), and
    ``at``, where ``auxiliary_cnf`` puts the implication's clauses.  A
    variable never positive gets the unit clause requiring it false; one
    forced by an input unit clause yields no implication at all.

    Only the variables in ``copied`` get a copy on the justification
    side; any other variable stands for itself.  Three clause groups: one
    implication copy(x) -> x per copied variable; per input clause with a
    positive literal and a copied variable, the clause's image, each
    copied variable replaced by its copy; and a unit requiring x false
    for every copied variable that never occurs positively.  The other
    clauses produce no image: one without a positive literal holds in
    every subset of a model, and one without a copied variable is already
    on the search side.  With no copied variable the justification side
    is empty.
    """
    n = num_vars
    is_copied = [False] * (n + 1)
    for var in copied:
        is_copied[var] = True
    forcing = [[] for _ in range(n + 1)]
    imaged = []
    for clause in clauses:
        positive = False
        for i, lit in enumerate(clause):
            if lit > 0:
                positive = True
                co = clause[:i] + clause[i + 1:]
                if lit in co:  # a repeated literal
                    co = tuple([other for other in co if other != lit])
                forcing[lit].append(co)
        if positive and copied and any([is_copied[abs(lit)] for lit in clause]):
            imaged.append(clause)
    search, supports = list(clauses), []
    for x in range(1, n + 1):
        co_sets = forcing[x]
        if not co_sets:
            search.append((-x,))
            continue
        if () in co_sets:
            # x occurs as a unit clause; flipping it always falsifies that
            # clause, so the implication is vacuously true.
            continue
        # A repeated input clause repeats its co-literal set; one is enough.
        co_sets = dict.fromkeys(co_sets)
        implication = [-x]
        for co in co_sets:
            if len(co) > 1:
                supports.append((x, len(search), list(co_sets)))
                break
            implication.append(-co[0])
        else:
            search.append(tuple(implication))
    offset = n + len(supports)  # the copies sit above the connectors
    copies = sorted(copied)
    justification = [(-(x + offset), x) for x in copies]
    for clause in imaged:
        justification.append(tuple(
            [lit - offset if is_copied[-lit] else lit for lit in clause if lit < 0]
            + [lit + offset if is_copied[lit] else lit for lit in clause if lit > 0]
        ))
    justification.extend([(-x,) for x in copies if not forcing[x]])
    return search, justification, n, offset + 1, offset + max(copies, default=0), supports


def auxiliary_cnf(pair):
    """The pair as ``--emit-pair`` writes it, ``(search, justification,
    orig_limit, copy_lo, top)``: each co-literal set of two or more
    literals becomes an auxiliary variable from ``orig_limit + 1`` up, true
    exactly when its literals are false, and the copies move above them,
    ``top`` being the copy id of ``orig_limit``."""
    search, justification, n, copy_lo, _, supports = pair
    written, start, aux = [], 0, n
    for x, at, co_sets in supports:
        written += search[start:at]
        start, implication = at, [-x]
        for co in co_sets:
            if len(co) > 1:
                aux += 1
                written += [(-aux, -lit) for lit in co] + [(aux, *co)]
            implication.append(aux if len(co) > 1 else -co[0])
        written.append(tuple(implication))
    shift = aux + 1 - copy_lo
    justification = [tuple([lit + shift if lit >= copy_lo else lit - shift if -lit >= copy_lo
                            else lit for lit in clause]) for clause in justification]
    return written + search[start:], justification, n, aux + 1, aux + n


def write_pair_files(pair, directory: str) -> tuple[str, str]:
    """Write ``auxiliary_cnf(pair)`` as DIMACS files ``forced.cnf`` and ``copy.cnf``.

    Both files open with ``c vr <orig|aux|copy> <lo> <hi>`` comments naming
    their id ranges; the copy file additionally records one
    ``c copy <orig> <copy>`` comment per copied variable.  Read back, each
    is a plain CNF over its header's ``n``.
    """
    search, justification, n, copy_lo, top = auxiliary_cnf(pair)
    offset = copy_lo - 1
    orig = [f"c vr orig 1 {n}"] if n else []
    aux = [f"c vr aux {n + 1} {offset}"] if offset > n else []
    # Each copy occurs negated in its implication copy(x) -> x.
    copies = sorted({-lit for clause in justification for lit in clause if -lit >= copy_lo})
    copy = [f"c vr copy {copy_lo} {top}"] if top >= copy_lo else []
    copy += [f"c copy {var - offset} {var}" for var in copies]
    os.makedirs(directory, exist_ok=True)
    search_path = os.path.join(directory, "forced.cnf")
    copy_path = os.path.join(directory, "copy.cnf")
    with open(search_path, "w") as handle:
        handle.write(write_dimacs(CnfFormula(search, offset), orig + aux))
    with open(copy_path, "w") as handle:
        handle.write(write_dimacs(CnfFormula(justification, top), orig + copy))
    return search_path, copy_path
