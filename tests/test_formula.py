import pytest

from mincount import (
    AUX,
    CnfFormula,
    ORIG,
    ParseError,
    VarRange,
    evaluate,
    parse_dimacs,
    write_dimacs,
)

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
        f = CnfFormula(
            ((1, 4), (-4, 2)),
            num_original_vars=2,
            var_ranges=(VarRange(ORIG, 1, 2), VarRange(AUX, 3, 4)),
        )
        text = write_dimacs(f)
        assert "c vr orig 1 2" in text
        assert "c vr aux 3 4" in text
        back = parse_dimacs(text)
        assert back.num_original_vars == 2
        assert back.var_ranges == f.var_ranges
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

    def test_adjacent_var_ranges_accepted(self):
        f = parse_dimacs("c vr orig 1 2\nc vr aux 3 4\nc vr copy 5 6\np cnf 6 1\n1 2 0\n")
        assert [(vr.lo, vr.hi) for vr in f.var_ranges] == [(1, 2), (3, 4), (5, 6)]


class TestEvaluate:
    def test_model(self, ex1):
        assert evaluate(ex1, {1, 2})

    def test_non_model(self, ex1):
        assert not evaluate(ex1, {1})

    def test_empty_formula_true(self):
        assert evaluate(parse_dimacs("p cnf 0 0\n"), frozenset())
