"""CNF clause database, DIMACS reading and writing, and evaluation.

Variables are positive integers and a literal is a signed integer: ``v``
for the positive literal, ``-v`` for the negated one.  A clause is a tuple
of literals and a formula is an immutable collection of clauses plus
metadata describing which id ranges hold original, auxiliary and copy
variables.  A total assignment is the set of its true variables; every
other variable is false.  Formulas are safe to share between concurrent
tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

ORIG = "orig"
AUX = "aux"
COPY = "copy"


class ParseError(ValueError):
    """Malformed DIMACS input; the message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class VarRange:
    """Inclusive variable-id range tagged as original, auxiliary or copy."""

    kind: str
    lo: int
    hi: int

    def __contains__(self, var: int) -> bool:
        return self.lo <= var <= self.hi

    def __len__(self) -> int:
        return max(0, self.hi - self.lo + 1)


@dataclass(frozen=True)
class ParseStats:
    tautologies_dropped: int = 0
    duplicate_literals_dropped: int = 0


@dataclass(frozen=True)
class CnfFormula:
    """Immutable clause database.

    ``num_original_vars`` is the size of the original id range 1..n.
    Auxiliary and copy variables, when present, occupy disjoint ranges
    above n recorded in ``var_ranges``.
    """

    clauses: tuple[tuple[int, ...], ...]
    num_original_vars: int
    var_ranges: tuple[VarRange, ...] = ()
    parse_stats: ParseStats = ParseStats()

    def __post_init__(self):
        if not self.var_ranges:
            object.__setattr__(
                self, "var_ranges", (VarRange(ORIG, 1, self.num_original_vars),)
            )
        top, gaps = 0, []  # the ids below ``top`` that no range covers
        for lo, hi in sorted((r.lo, r.hi) for r in self.var_ranges if len(r)):
            if lo > top + 1:
                gaps.append(range(top + 1, lo))
            top = max(top, hi)
        lits = list(chain.from_iterable(self.clauses))
        if not gaps and (not lits or max(lits) <= top and min(lits) >= -top and 0 not in lits):
            return
        for index, clause in enumerate(self.clauses):
            for lit in clause:
                if lit == 0 or abs(lit) > top or gaps and any(abs(lit) in gap for gap in gaps):
                    error = ValueError(f"literal {lit} outside declared variable ranges")
                    error.clause = index  # ``parse_dimacs`` names the clause's line
                    raise error

    def variables(self) -> set[int]:
        """Ids occurring in at least one clause."""
        return {abs(lit) for clause in self.clauses for lit in clause}

    def kind_of(self, var: int) -> str:
        for vr in self.var_ranges:
            if var in vr:
                return vr.kind
        raise ValueError(f"variable {var} not in any declared range")


def _parse_plain(source: str) -> CnfFormula | None:
    """The formula of a plain text, or ``None``."""
    start = 0
    while source.startswith("c", start):  # the leading comment lines
        start = source.find("\n", start) + 1 or len(source)
    head = source[:source.find("\n", start) + 1 or len(source)]
    header = head[start:].split()
    # "\n" and "\r\n" are the only line breaks the head may hold.
    if "vr" in head or len(head.splitlines()) != head.count("\n") + (head[-1:] != "\n") \
            or len(header) != 4 or header[:2] != ["p", "cnf"]:
        return None
    try:
        num_vars, num_clauses = int(header[2]), int(header[3])
        ints = list(map(int, islice(source.split(), len(head.split()), None)))
    except ValueError:
        return None
    if min(num_vars, num_clauses) < 0 or ints and (
            ints[-1] or max(ints) > num_vars or min(ints) < -num_vars):
        return None
    step = iter(ints).__next__
    clauses = tuple([tuple(iter(step, 0)) for _ in range(ints.count(0))])
    for clause in clauses:  # a repeated variable: a duplicate or a tautology
        if len(clause) == 2 and abs(clause[0]) == abs(clause[1]) or (
                len(clause) > 2 and len(set(map(abs, clause))) < len(clause)):
            return None
    return CnfFormula(clauses, num_vars, (VarRange(ORIG, 1, num_vars),))


def parse_dimacs(source: str) -> CnfFormula:
    """Parse DIMACS CNF text into a :class:`CnfFormula`.

    Comment lines starting with ``c`` are ignored, except ``c vr <kind> <lo> <hi>``
    (kind one of orig/aux/copy) which restores variable-range metadata
    written by :func:`write_dimacs`; an inverted range, one that overlaps
    an earlier range, a second ``orig`` range, or ranges that leave a
    literal uncovered are a :class:`ParseError`.  Duplicate literals
    within a clause are dropped (first occurrence kept) and tautological
    clauses are removed; both events are counted in the formula's parse
    stats.

    A plain text is read from its whole token stream at once: comment
    lines without ``vr``, the header line ``p cnf <n> <m>``, then integers
    only, none beyond ``n``, the last a 0, and no clause that repeats a
    variable.  Any other text is read line by line, and that scan owns
    every error message and every ``c vr`` rule.
    """
    formula = _parse_plain(source)
    if formula is not None:
        return formula
    header: tuple[int, int] | None = None
    ranges: list[VarRange] = []
    range_lines: list[int] = []
    clauses: list[tuple[int, ...]] = []
    clause_lines: list[int] = []
    tautologies = 0
    duplicates = 0
    current: list[int] = []
    current_line: int | None = None
    last_line = 0

    def finish_clause(line_no: int) -> None:
        nonlocal tautologies, duplicates
        seen: set[int] = set()
        deduped: list[int] = []
        for lit in current:
            if lit in seen:
                continue
            seen.add(lit)
            deduped.append(lit)
        duplicates += len(current) - len(deduped)
        if any(-lit in seen for lit in deduped):
            tautologies += 1
            return
        clauses.append(tuple(deduped))
        clause_lines.append(line_no)

    for line_no, raw in enumerate(source.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 5 and parts[1] == "vr" and parts[2] in (ORIG, AUX, COPY):
                try:
                    lo, hi = int(parts[3]), int(parts[4])
                except ValueError:
                    continue
                if lo > hi:
                    raise ParseError(f"inverted variable range {line!r}", line_no)
                for other, other_line in zip(ranges, range_lines):
                    if lo <= other.hi and other.lo <= hi:
                        raise ParseError(
                            f"variable range {line!r} overlaps the range on line {other_line}",
                            line_no,
                        )
                ranges.append(VarRange(parts[2], lo, hi))
                range_lines.append(line_no)
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
                finish_clause(current_line or line_no)
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

    if ranges:
        orig = [(vr, line) for vr, line in zip(ranges, range_lines) if vr.kind == ORIG]
        if not orig:
            raise ParseError("'c vr' ranges declared without an 'orig' range", range_lines[0])
        if len(orig) > 1:
            raise ParseError(
                f"second 'orig' range; the original range is on line {orig[0][1]}", orig[1][1]
            )
        num_original = orig[0][0].hi
        var_ranges = tuple(ranges)
    else:
        num_original = header[0]
        var_ranges = (VarRange(ORIG, 1, header[0]),)
    try:
        return CnfFormula(
            tuple(clauses),
            num_original,
            var_ranges,
            ParseStats(tautologies, duplicates),
        )
    except ValueError as exc:
        # Declared ranges that leave a literal uncovered.
        raise ParseError(str(exc), clause_lines[exc.clause]) from None


def write_dimacs(formula: CnfFormula, extra_comments=()) -> str:
    """Serialize a formula to DIMACS text, with ``c vr`` range comments."""
    lines = []
    for vr in formula.var_ranges:
        if len(vr):
            lines.append(f"c vr {vr.kind} {vr.lo} {vr.hi}")
    lines.extend(extra_comments)
    top = max(
        (vr.hi for vr in formula.var_ranges if len(vr)),
        default=formula.num_original_vars,
    )
    lines.append(f"p cnf {top} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, true_vars) -> bool:
    """Truth value of the formula when exactly ``true_vars`` are true."""
    return all(
        any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
        for clause in formula.clauses
    )
