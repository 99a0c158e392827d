import hashlib
import random

import pytest

import mincount.formula as formula
from mincount import CnfFormula, ParseError, evaluate, parse_dimacs, write_dimacs

from conftest import EX1_TEXT


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
        assert f.parse_stats.duplicate_literals_dropped == 1

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
        f = CnfFormula(((1, 4), (-4, 2)), num_original_vars=2, num_vars=4)
        text = write_dimacs(f, ["c vr aux 3 4"])
        assert text.startswith("c vr orig 1 2\nc vr aux 3 4\np cnf 4 2\n")
        back = parse_dimacs(text)
        assert (back.num_original_vars, back.num_vars) == (2, 4)
        assert back.clauses == f.clauses

    def test_inverted_var_range_names_line(self):
        with pytest.raises(ParseError, match=r"line 2: inverted variable range"):
            parse_dimacs("c vr orig 1 2\nc vr aux 5 3\np cnf 5 1\n1 2 0\n")

    @pytest.mark.parametrize("second", ["c vr aux 2 4", "c vr copy 1 1", "c vr aux 0 9"])
    def test_overlapping_var_ranges_name_line(self, second):
        text = f"c vr orig 1 2\n{second}\np cnf 9 1\n1 2 0\n"
        with pytest.raises(ParseError, match=r"line 2: .*overlaps the range on line 1"):
            parse_dimacs(text)

    @pytest.mark.parametrize("ranges", ["c vr aux 1 2\n", "c vr copy 3 4\nc vr aux 1 2\n"])
    def test_var_ranges_without_orig_range_name_line(self, ranges):
        with pytest.raises(ParseError, match=r"line 1: .*without an 'orig' range"):
            parse_dimacs(f"{ranges}p cnf 4 1\n1 2 0\n")

    @pytest.mark.parametrize("ranges", [
        "c vr orig 1 2\nc vr orig 3 4\n",
        "c vr orig 3 4\nc vr aux 5 6\nc vr orig 1 2\n",
    ])
    def test_second_orig_range_names_line(self, ranges):
        second = ranges.count("\n")
        with pytest.raises(
            ParseError, match=rf"line {second}: second 'orig' range; .* on line 1"
        ):
            parse_dimacs(f"{ranges}p cnf 6 2\n1 3 0\n-3 4 0\n")

    def test_literal_outside_var_ranges(self):
        # The error names the line of the clause holding the literal.
        with pytest.raises(ParseError, match="line 4: literal 2 outside declared variable ranges"):
            parse_dimacs("c vr orig 1 1\np cnf 2 2\n1 0\n1\n2 0\n")
        # Between the ranges, not above them.
        with pytest.raises(ParseError, match="line 4: literal 3 outside declared variable ranges"):
            parse_dimacs("c vr orig 1 2\nc vr aux 5 6\np cnf 6 1\n3 0\n")
        # Before a range below the ``orig`` range is reported.
        with pytest.raises(ParseError, match="line 4: literal 2 outside declared variable ranges"):
            parse_dimacs("c vr orig 3 5\nc vr aux 1 1\np cnf 5 1\n2 0\n")

    def test_adjacent_var_ranges_accepted(self):
        f = parse_dimacs("c vr orig 1 2\nc vr aux 3 4\nc vr copy 5 6\np cnf 6 1\n1 2 0\n")
        assert (f.num_original_vars, f.num_vars) == (2, 6)

    @pytest.mark.parametrize("kind", ["aux", "copy"])
    @pytest.mark.parametrize("clause", ["1 3 0", "3 4 0"])
    def test_var_range_below_orig_range_names_line(self, kind, clause):
        # The originals are 1..5, so ids 1 and 2 would count as originals
        # whether or not a clause holds one.
        text = f"c vr orig 3 5\nc vr {kind} 1 2\np cnf 5 1\n{clause}\n"
        with pytest.raises(
            ParseError, match=rf"^line 2: '{kind}' range below the 'orig' range on line 1$"
        ):
            parse_dimacs(text)


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
        # ``c vr`` ranges: a partition of 1..n, sometimes broken.
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
    return (f.clauses, f.num_original_vars, f.num_vars, f.parse_stats)


PARSE_CORPUS = [_corpus_text(random.Random(seed)) for seed in range(500)]
# sha256 of the outcomes' reprs, one a line.  Recorded from the parser
# that still kept ``c vr`` ranges in the formula, reading ``num_vars`` as
# the largest upper end of a non-empty range, else ``num_original_vars``.
PARSE_CORPUS_DIGEST = "103a9ab8c775b623dfb24a0aacbf483dd6d2fa8455de7bf2f32dfa5794857394"


def test_parse_corpus_outcomes_are_pinned():
    outcomes = [_parse_outcome(text) for text in PARSE_CORPUS]
    errors = [outcome for outcome in outcomes if outcome[0] == "ParseError"]
    # Both sides of the corpus are well represented.
    assert 100 <= len(errors) <= 400
    assert sum(outcome[3].duplicate_literals_dropped > 0 for outcome in outcomes
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
    "c vr orig 1 2\np cnf 2 1\n1 2 0\n",
    "p cnf 2 1\n1 2\n",
    "p cnf 2 1\n1 -3 0\n",
    "p cnf 2 1\n2 -2 0\n",
    "p cnf 3 1\n1 3 1 0\n",
    "\np cnf 1 1\n1 0\n",
])
def test_texts_that_are_not_plain_are_read_line_by_line(text):
    assert formula._parse_plain(text) is None


def test_directly_built_formula_rejects_literals_outside_its_ranges():
    for clauses, n in [(((1, 0),), 1), (((1,), (-3,)), 2), (((2,),), 1)]:
        with pytest.raises(ValueError, match="outside declared variable ranges") as info:
            CnfFormula(clauses, n)
        assert info.value.clause == len(clauses) - 1
    assert CnfFormula(((1, -2), ()), 2).clauses == ((1, -2), ())
