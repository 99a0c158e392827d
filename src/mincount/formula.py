"""CNF clause database, DIMACS reading and writing, and evaluation.

Variables are positive integers and a literal is a signed integer: ``v``
for the positive literal, ``-v`` for the negated one.  A clause is a tuple
of literals and a formula is an immutable collection of clauses over
the ids ``1..num_original_vars``, the header's ``n``.  A total
assignment is the set of its true variables; every other variable is
false.  Formulas are safe to share between concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice


class ParseError(ValueError):
    """Malformed DIMACS input; the message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ParseStats:
    tautologies_dropped: int = 0


@dataclass(frozen=True)
class CnfFormula:
    """Immutable clause database over the ids ``1..num_original_vars``.

    Clauses given as other sequences are stored as a tuple of tuples.
    """

    clauses: tuple[tuple[int, ...], ...]
    num_original_vars: int
    parse_stats: ParseStats = ParseStats()

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(map(tuple, self.clauses)))
        top = self.num_original_vars
        lits = list(chain.from_iterable(self.clauses))
        if not lits or max(lits) <= top and min(lits) >= -top and 0 not in lits:
            return
        for lit in lits:
            if lit == 0 or abs(lit) > top:
                raise ValueError(f"literal {lit} outside declared variable ranges")

    def variables(self) -> set[int]:
        """Ids occurring in at least one clause."""
        return {abs(lit) for clause in self.clauses for lit in clause}


def _parse_plain(source: str) -> CnfFormula | None:
    """The formula of a plain text, or ``None``."""
    start = 0
    while source.startswith("c", start):  # the leading comment lines
        start = source.find("\n", start) + 1 or len(source)
    head = source[:source.find("\n", start) + 1 or len(source)]
    header = head[start:].split()
    # "\n" and "\r\n" are the only line breaks the head may hold.
    if len(head.splitlines()) != head.count("\n") + (head[-1:] != "\n") \
            or len(header) != 4 or header[:2] != ["p", "cnf"]:
        return None
    try:
        num_vars, num_clauses = int(header[2]), int(header[3])
        ints = list(map(int, islice(source.split(), len(head.split()), None)))
    except ValueError:
        return None
    if min(num_vars, num_clauses) < 0 or ints and ints[-1]:
        return None
    step = iter(ints).__next__
    clauses = tuple([tuple(iter(step, 0)) for _ in range(ints.count(0))])
    for clause in clauses:  # a repeated variable: a duplicate or a tautology
        if len(clause) == 2 and abs(clause[0]) == abs(clause[1]) or (
                len(clause) > 2 and len(set(map(abs, clause))) < len(clause)):
            return None
    try:  # ``CnfFormula`` checks the range; the line scan names the line
        return CnfFormula(clauses, num_vars)
    except ValueError:
        return None


def parse_dimacs(source: str) -> CnfFormula:
    """Parse DIMACS CNF text into a :class:`CnfFormula`.

    Lines starting with ``c`` are comments.  The formula is over the
    header's ``n``.  Duplicate literals within a clause are dropped (first
    occurrence kept) and tautological clauses are removed; the formula's
    parse stats count the tautologies.

    A plain text is read from its whole token stream at once: comment
    lines, the header line ``p cnf <n> <m>``, then integers only, none
    beyond ``n``, the last a 0, and no clause that repeats a variable.
    Any other text is read line by line, and that scan owns every error
    message.
    """
    formula = _parse_plain(source)
    if formula is not None:
        return formula
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    tautologies = 0
    current: list[int] = []
    current_line: int | None = None
    last_line = 0

    def finish_clause() -> None:
        nonlocal tautologies
        deduped = dict.fromkeys(current)
        if any(-lit in deduped for lit in deduped):
            tautologies += 1
        else:
            clauses.append(tuple(deduped))

    for line_no, raw in enumerate(source.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate 'p cnf' header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", line_no)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", line_no) from None
            if num_vars < 0 or num_clauses < 0:
                raise ParseError(f"malformed header {line!r}", line_no)
            header = (num_vars, num_clauses)
            continue
        if header is None:
            raise ParseError("clause data before 'p cnf' header", line_no)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"unexpected token {token!r}", line_no) from None
            if lit == 0:
                finish_clause()
                current = []
                current_line = None
            else:
                if abs(lit) > header[0]:
                    raise ParseError(
                        f"literal {lit} exceeds declared variable count {header[0]}",
                        line_no,
                    )
                if not current:
                    current_line = line_no
                current.append(lit)

    if header is None:
        raise ParseError("missing 'p cnf' header", last_line or 1)
    if current:
        raise ParseError("clause not terminated by 0", current_line or last_line)
    return CnfFormula(tuple(clauses), header[0], ParseStats(tautologies))


def write_dimacs(formula: CnfFormula, comments=()) -> str:
    """Serialize a formula to DIMACS text, after the given comment lines."""
    lines = [*comments, f"p cnf {formula.num_original_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, true_vars) -> bool:
    """Truth value of the formula when exactly ``true_vars`` are true."""
    return all(
        any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
        for clause in formula.clauses
    )
