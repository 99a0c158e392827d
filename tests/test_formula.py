import hashlib
import random

import pytest

import mincount.formula as formula
from mincount import CnfFormula, ParseError, evaluate, parse_dimacs, write_dimacs

from conftest import EX1_TEXT, random_formula


class TestParse:
    def test_three_clause_fixture(self):
        f = parse_dimacs(EX1_TEXT)
        assert f.clauses == ((1, 2), (2, 3), (3, 1))
        assert f.num_original_vars == 3
        assert f.variables() == {1, 2, 3}

    def test_empty_formula(self):
        f = parse_dimacs("p cnf 0 0\n")
        assert f.clauses == ()
        assert f.num_original_vars == 0

    def test_tautology_dropped_and_counted(self):
        f = parse_dimacs("p cnf 2 1\n1 -1 0\n")
        assert f.clauses == ()
        assert f.parse_stats.tautologies_dropped == 1

    def test_duplicate_literals_deduplicated(self):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert f.clauses == ((1, 2),)

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_comments_ignored(self):
        f = parse_dimacs("c hello\np cnf 1 1\nc mid\n1 0\n")
        assert f.clauses == ((1,),)

    def test_empty_clause_kept(self):
        f = parse_dimacs("p cnf 1 1\n0\n")
        assert f.clauses == ((),)

    def test_malformed_header_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("c x\np cnf nope 1\n")

    def test_literal_exceeding_declared_count(self):
        with pytest.raises(ParseError, match="line 2.*exceeds"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="not terminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_before_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_dimacs("1 2 0\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")

    def test_var_range_comments_round_trip(self):
        # ``c vr`` lines are comments: the formula is over the header's ``n``.
        f = CnfFormula(((1, 4), (-4, 2)), 4)
        text = write_dimacs(f, ["c vr orig 1 2", "c vr aux 3 4"])
        assert text == "c vr orig 1 2\nc vr aux 3 4\np cnf 4 2\n1 4 0\n-4 2 0\n"
        assert parse_dimacs(text) == f

    def test_literal_outside_var_ranges(self):
        # Ranges bound nothing: a literal up to the header's ``n`` is read,
        # and the line scan names one above it.
        assert parse_dimacs("c vr orig 1 2\nc vr aux 5 6\np cnf 6 1\n3 0\n").clauses == ((3,),)
        with pytest.raises(ParseError, match="^line 5: literal 3 exceeds declared variable "
                                             "count 2$"):
            parse_dimacs("c vr orig 1 1\nc vr aux 3 3\np cnf 2 2\n1 0\n3 0\n")

    def test_adjacent_var_ranges_accepted(self):
        f = parse_dimacs("c vr orig 1 2\nc vr aux 3 4\nc vr copy 5 6\np cnf 6 1\n1 2 0\n")
        assert (f.clauses, f.num_original_vars) == (((1, 2),), 6)

    # Malformed ``c vr`` ranges, once errors naming their line, are comments
    # now: each text reads as plain CNF, and an error names its own line.
    def test_inverted_var_range_names_line(self):
        _assert_ranges_are_comments("c vr orig 1 2\nc vr aux 5 3\np cnf 5 1\n1 2 0\n")

    @pytest.mark.parametrize("second", ["c vr aux 2 4", "c vr copy 1 1", "c vr aux 0 9"])
    def test_overlapping_var_ranges_name_line(self, second):
        _assert_ranges_are_comments(f"c vr orig 1 2\n{second}\np cnf 9 1\n1 2 0\n")

    @pytest.mark.parametrize("ranges", ["c vr aux 1 2\n", "c vr copy 3 4\nc vr aux 1 2\n"])
    def test_var_ranges_without_orig_range_name_line(self, ranges):
        _assert_ranges_are_comments(f"{ranges}p cnf 4 1\n1 2 0\n")

    @pytest.mark.parametrize("ranges", [
        "c vr orig 1 2\nc vr orig 3 4\n",
        "c vr orig 3 4\nc vr aux 5 6\nc vr orig 1 2\n",
    ])
    def test_second_orig_range_names_line(self, ranges):
        _assert_ranges_are_comments(f"{ranges}p cnf 6 2\n1 3 0\n-3 4 0\n")

    @pytest.mark.parametrize("kind", ["aux", "copy"])
    @pytest.mark.parametrize("clause", ["1 3 0", "3 4 0"])
    def test_var_range_below_orig_range_names_line(self, kind, clause):
        _assert_ranges_are_comments(f"c vr orig 3 5\nc vr {kind} 1 2\np cnf 5 1\n{clause}\n")


def _assert_ranges_are_comments(text):
    """``text`` reads, by the whole-stream path, as the CNF of its lines that
    are not comments; with its last clause made ``n + 1 0`` the line scan's
    error names that clause's line, the ``c vr`` lines counted."""
    bare = "".join(line for line in text.splitlines(True) if not line.startswith("c"))
    f = parse_dimacs(text)
    assert formula._parse_plain(text) == parse_dimacs(bare) == f
    *head, _ = text.splitlines(True)
    n = f.num_original_vars
    with pytest.raises(ParseError, match=rf"^line {len(head) + 1}: literal {n + 1} exceeds "
                                         rf"declared variable count {n}$"):
        parse_dimacs("".join(head) + f"{n + 1} 0\n")


def test_written_text_reads_back_by_the_whole_stream_path():
    rng = random.Random(33)
    for _ in range(200):
        f = random_formula(rng, min_vars=0, max_vars=8, min_clauses=0, max_clauses=12,
                           min_len=0)
        text = write_dimacs(f, [f"c vr orig 1 {f.num_original_vars}"])
        assert formula._parse_plain(text) == f == parse_dimacs(text)


class TestEvaluate:
    def test_model(self, ex1):
        assert evaluate(ex1, {1, 2})

    def test_non_model(self, ex1):
        assert not evaluate(ex1, {1})

    def test_empty_formula_true(self):
        assert evaluate(parse_dimacs("p cnf 0 0\n"), frozenset())


# The parse outcomes below are pinned: a rewrite of ``parse_dimacs`` must
# reproduce every clause list, id bound, statistic and error message exactly.
_STRAY = ("x", "1.5", "%", "-", "c", "p", "0x1", "--1", "1-")
_BAD_HEADERS = ("p cnf", "p dnf {n} {m}", "p cnf -1 {m}", "p cnf {n} -2", "p cnf a {m}",
                "p cnf {n} {m} 1", "pcnf {n} {m}", "p  cnf  {n}  {m}")
_COMMENTS = ("c", "c hello", "c p cnf 1 1", "cx", "  c indented", "c vr", "c vr orig x 2",
             "c vr tag 1 2", "")


def _corpus_text(rng: random.Random) -> str:
    """One small DIMACS text, valid or not, drawn from ``rng``."""
    n, head, body = rng.randint(0, 8), [], []
    head.extend(rng.choice(_COMMENTS) for _ in range(rng.choice((0, 0, 1, 3))))
    if rng.random() < 0.25:
        # ``c vr`` comments as ``write_pair_files`` writes them, a partition
        # of 1..n, sometimes broken: the parser takes them as comments.
        cut = rng.randint(1, max(n, 1))
        ranges = [("orig", 1, cut), ("aux", cut + 1, max(n, cut + 1) + rng.randint(0, 2))]
        broken = rng.choice(("", "", "inverted", "overlap", "no-orig", "second-orig", "gap"))
        if broken == "inverted":
            ranges[1] = ("aux", n + 2, cut)
        elif broken == "overlap":
            ranges.append(("copy", max(1, cut), n + 3))
        elif broken == "no-orig":
            ranges[0] = ("copy", 1, cut)
        elif broken == "second-orig":
            ranges.append(("orig", n + 4, n + 5))
        elif broken == "gap":
            ranges[1] = ("aux", cut + 2, n + 1)
        rng.shuffle(ranges)
        head.extend(f"c vr {kind} {lo} {hi}" for kind, lo, hi in ranges)
    clauses = []
    for _ in range(rng.randint(0, 7)):
        clause = [rng.choice((1, -1)) * var
                  for var in rng.sample(range(1, n + 1), min(n, rng.randint(0, 4)))]
        if clause and rng.random() < 0.15:
            clause.append(rng.choice((clause[0], -clause[0])))  # duplicate or tautology
        clauses.append(clause)
    tokens = [str(lit) for clause in clauses for lit in clause + [0]]
    fault = rng.choice(("",) * 12 + ("stray", "bound", "no-zero", "before", "no-header",
                                    "dup-header", "bad-header", "mid-comment", "empty"))
    if fault == "stray" or fault == "bound" and not tokens:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_STRAY))
    elif fault == "bound":
        at = rng.randrange(len(tokens))
        tokens[at] = str(rng.choice((1, -1)) * (n + rng.randint(1, 3)))
    elif fault == "no-zero" and tokens:
        tokens[-1:] = [str(n or 1)]
    # Cut the tokens into lines: clauses span lines and share them.
    while tokens:
        take = rng.randint(1, 6)
        sep = rng.choice((" ", " ", "  ", "\t"))
        body.append(rng.choice(("", "", " ")) + sep.join(tokens[:take]))
        tokens = tokens[take:]
    header = f"p cnf {n} {len(clauses)}"
    if fault == "bad-header":
        header = rng.choice(_BAD_HEADERS).format(n=n, m=len(clauses))
    elif fault == "before":
        head.append("1 0")
    elif fault == "dup-header":
        body.insert(rng.randint(0, len(body)), header)
    elif fault == "mid-comment":
        body.insert(rng.randint(0, len(body)), rng.choice(("c mid", "c vr orig 1 1", "")))
    lines = head + ([] if fault == "no-header" else [header]) + body
    if fault == "empty":
        lines = rng.choice(([], [""], ["c only"]))
    end = rng.choice(("\n", "\n", "\r\n"))
    return end.join(lines) + rng.choice((end, end, ""))


def _parse_outcome(text: str):
    try:
        f = parse_dimacs(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)
    return (f.clauses, f.num_original_vars, f.parse_stats)


PARSE_CORPUS = [_corpus_text(random.Random(seed)) for seed in range(500)]
# sha256 of the outcomes' reprs, one a line.  Recorded once ``c vr`` lines
# became comments; each text without one gives the clauses, ``n``,
# tautology count or error that the parser reading them as ranges gave.
PARSE_CORPUS_DIGEST = "4a3080274d2de1038e291523a0d8051df4542e775adf817e375c01dd85583bb6"


def test_parse_corpus_outcomes_are_pinned():
    outcomes = [_parse_outcome(text) for text in PARSE_CORPUS]
    errors = [outcome for outcome in outcomes if outcome[0] == "ParseError"]
    # Both sides of the corpus are well represented.
    assert 100 <= len(errors) <= 400
    assert sum(outcome[2].tautologies_dropped > 0 for outcome in outcomes
               if outcome[0] != "ParseError") >= 10
    digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
    assert digest == PARSE_CORPUS_DIGEST


def test_whole_stream_path_matches_the_line_scanner(monkeypatch):
    # Every corpus text parses as the line scan alone parses it, and
    # enough of them take the whole-stream path.
    outcomes = [_parse_outcome(text) for text in PARSE_CORPUS]
    plain = [text for text in PARSE_CORPUS if formula._parse_plain(text) is not None]
    monkeypatch.setattr(formula, "_parse_plain", lambda source: None)
    assert [_parse_outcome(text) for text in PARSE_CORPUS] == outcomes
    assert len(plain) >= 80
    assert sum(text.startswith("c") for text in plain) >= 10
    assert sum("\r\n" in text for text in plain) >= 20


@pytest.mark.parametrize("text", [
    "c a\rp cnf 9 9\np cnf 2 1\n1 0\n",  # a line break other than "\n" in a comment
    "p cnf 2\x0b1\n1 0\n",  # and in the header
    "p cnf 2 1\n1 2 0\nc late\n",
    "p cnf 2 1\n1 2\n",
    "p cnf 2 1\n1 -3 0\n",
    "p cnf 2 1\n2 -2 0\n",
    "p cnf 3 1\n1 3 1 0\n",
    "\np cnf 1 1\n1 0\n",
])
def test_texts_that_are_not_plain_are_read_line_by_line(text):
    assert formula._parse_plain(text) is None


@pytest.mark.parametrize("text, line, lit", [
    ("p cnf 3 2\n1 -2 0\n2 4 0\n", 3, 4),
    ("c one\np cnf 3 3\n1 0\n-2\n-4 3 0\n1 2 0\n", 5, -4),  # a clause over two lines
    ("p cnf 2 2\r\n1 2 0\r\n-2 -3 3 0\r\n", 3, -3),
])
def test_plain_text_out_of_range_is_named_by_the_line_scan(text, line, lit):
    # ``CnfFormula`` alone checks the range of a plain text; its error sends
    # the text to the line scan, which names the literal and its line.
    assert formula._parse_plain(text) is None
    with pytest.raises(ParseError, match=rf"^line {line}: literal {lit} exceeds declared "
                                         rf"variable count") as info:
        parse_dimacs(text)
    assert info.value.line == line


def test_directly_built_formula_rejects_literals_outside_its_ranges():
    for clauses, n in [(((1, 0),), 1), (((1,), (-3,)), 2), (((2,),), 1)]:
        with pytest.raises(ValueError, match="outside declared variable ranges"):
            CnfFormula(clauses, n)
    assert CnfFormula(((1, -2), ()), 2).clauses == ((1, -2), ())
