"""CNF clause database, DIMACS reading and writing, and evaluation.

Variables are positive integers and a literal is a signed integer: ``v``
for the positive literal, ``-v`` for the negated one.  A clause is a tuple
of literals and a formula is an immutable collection of clauses over
ids up to ``num_vars``, the first ``num_original_vars`` of them original.
A total assignment is the set of its true variables; every other
variable is false.  Formulas are safe to share between concurrent
tasks.
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
    duplicate_literals_dropped: int = 0


@dataclass(frozen=True)
class CnfFormula:
    """Immutable clause database.

    The originals are ``1..num_original_vars``.  Clauses may hold ids up
    to ``num_vars`` (by default ``num_original_vars``); the ids above the
    originals are auxiliary or copy variables.  Clauses given as other
    sequences are stored as a tuple of tuples.
    """

    clauses: tuple[tuple[int, ...], ...]
    num_original_vars: int
    num_vars: int | None = None
    parse_stats: ParseStats = ParseStats()

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(map(tuple, self.clauses)))
        if self.num_vars is None:
            object.__setattr__(self, "num_vars", self.num_original_vars)
        top = self.num_vars
        lits = list(chain.from_iterable(self.clauses))
        if not lits or max(lits) <= top and min(lits) >= -top and 0 not in lits:
            return
        for lit in lits:
            if lit == 0 or abs(lit) > top:
                raise ValueError(f"literal {lit} outside declared variable ranges")

    def variables(self) -> set[int]:
        """Ids occurring in at least one clause."""
        return {abs(lit) for clause in self.clauses for lit in clause}

    def require_originals(self) -> None:
        """Raise ``ValueError``, naming the smallest, on an id above the originals."""
        top = self.num_original_vars  # nothing to test unless ``num_vars`` is larger
        above = self.num_vars > top and min([v for v in self.variables() if v > top], default=0)
        if above:
            raise ValueError(f"dependency graph requires original variables only, got {above}")


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

    Comment lines starting with ``c`` are ignored, except ``c vr <kind> <lo> <hi>``
    (kind one of orig/aux/copy), which declares an id range as written by
    :func:`write_dimacs`; the originals then end at the ``orig`` range's
    ``hi`` and ``num_vars`` is the largest ``hi`` (both are the header's
    ``n`` without ranges).  An inverted range, one that overlaps an
    earlier range, no or a second ``orig`` range, ranges that leave a
    literal uncovered, or a range below the ``orig`` range are a
    :class:`ParseError`.  Duplicate literals within a clause are dropped
    (first occurrence kept) and tautological clauses are removed; both
    events are counted in the formula's parse stats.

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
    ranges: list[tuple[str, int, int, int]] = []  # kind, lo, hi and line
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
            if len(parts) == 5 and parts[1] == "vr" and parts[2] in ("orig", "aux", "copy"):
                try:
                    lo, hi = int(parts[3]), int(parts[4])
                except ValueError:
                    continue
                if lo > hi:
                    raise ParseError(f"inverted variable range {line!r}", line_no)
                for _, other_lo, other_hi, other_line in ranges:
                    if lo <= other_hi and other_lo <= hi:
                        raise ParseError(
                            f"variable range {line!r} overlaps the range on line {other_line}",
                            line_no,
                        )
                ranges.append((parts[2], lo, hi, line_no))
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

    num_original = num_vars = header[0]
    if ranges:
        origs = [vr for vr in ranges if vr[0] == "orig"]
        if not origs:
            raise ParseError("'c vr' ranges declared without an 'orig' range", ranges[0][3])
        if len(origs) > 1:
            raise ParseError(
                f"second 'orig' range; the original range is on line {origs[0][3]}", origs[1][3]
            )
        _, orig_lo, num_original, orig_line = origs[0]
        for clause, line_no in zip(clauses, clause_lines):
            for lit in clause:
                if not any(lo <= abs(lit) <= hi for _, lo, hi, _ in ranges):
                    raise ParseError(f"literal {lit} outside declared variable ranges", line_no)
        for kind, _, hi, line_no in ranges:
            if hi < orig_lo:
                raise ParseError(f"'{kind}' range below the 'orig' range on line {orig_line}",
                                 line_no)
        num_vars = max(hi for _, _, hi, _ in ranges)
    return CnfFormula(tuple(clauses), num_original, num_vars, ParseStats(tautologies, duplicates))


def write_dimacs(formula: CnfFormula, extra_comments=()) -> str:
    """Serialize a formula to DIMACS text, declaring ``c vr orig 1 n``.

    A caller whose clauses hold ids above ``num_original_vars`` declares
    their ranges in ``extra_comments``, written after that line.
    """
    n = formula.num_original_vars
    lines = [f"c vr orig 1 {n}"] if n >= 1 else []
    lines.extend(extra_comments)
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, true_vars) -> bool:
    """Truth value of the formula when exactly ``true_vars`` are true."""
    return all(
        any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
        for clause in formula.clauses
    )
