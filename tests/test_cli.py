import io
import tracemalloc

import pytest

import mincount.cli as cli
import mincount.counting as counting
from mincount import parse_dimacs
from mincount.cli import EXIT_CHECK_FAILED, EXIT_MODE, EXIT_OK, EXIT_USAGE, RunConfig, main, run

from conftest import EX1_TEXT, EX2_TEXT


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.cnf"
    path.write_text(EX1_TEXT)
    return str(path)


@pytest.fixture
def ex2_path(tmp_path):
    path = tmp_path / "ex2.cnf"
    path.write_text(EX2_TEXT)
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_mode_counts(ex1_path, capsys):
    code, out, _ = run_main(capsys, [ex1_path])
    assert code == EXIT_OK
    assert out == "s mc 3\n"


def test_brute_mode(ex2_path, capsys):
    code, out, _ = run_main(capsys, ["--mode", "brute", ex2_path])
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1] == "s mc 1"


def test_acyclic_mode_rejected_on_cyclic_input(ex2_path, capsys):
    code, out, err = run_main(capsys, ["--mode", "acyclic", ex2_path])
    assert code == EXIT_MODE
    assert "cycle" in err
    assert "s mc" not in out


def test_general_mode_forced(ex1_path, capsys):
    code, out, _ = run_main(capsys, ["--mode", "general", ex1_path])
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1] == "s mc 3"


def test_stats_lines_precede_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(counting, "_TABLE_VARS", 0)  # count the ring by its pair
    # ex2's ring closed by a ternary clause, so no merge takes it apart.
    path = tmp_path / "ring.cnf"
    path.write_text(EX2_TEXT.replace("-3 1 0", "-3 -2 1 0"))
    code, out, _ = run_main(capsys, ["--stats", str(path)])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "s mc 1"
    assert all(line.startswith("c stat ") for line in lines[:-1])
    keys = [line.split()[2] for line in lines[:-1]]
    assert {"mode", "decisions", "propagations", "components",
            "sat_calls", "base_cases", "acyclic", "head_cycle_free"} <= set(keys)
    start = keys.index("base_cases") + 1
    assert keys[start:start + 6] == [
        "cache_hits", "cache_entries", "cache_evictions", "parts", "general_parts",
        "copy_vars",
    ]
    assert "c stat mode general" in lines
    assert "c stat parts 1" in lines and "c stat general_parts 1" in lines
    assert "c stat copy_vars 3" in lines


def test_table_part_stats(ex2_path, capsys):
    # ex2's three variables are counted from their truth table: no pair,
    # so no copy variable and no search.
    code, out, _ = run_main(capsys, ["--stats", ex2_path])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "s mc 1"
    keys = [line.split()[2] for line in lines[:-1]]
    assert keys[keys.index("copy_vars") + 1:keys.index("copy_vars") + 3] == [
        "table_parts", "merged_vars"]
    for line in ("c stat mode general", "c stat parts 1", "c stat general_parts 0",
                 "c stat copy_vars 0", "c stat table_parts 1", "c stat decisions 0",
                 "c stat merged_vars 0"):
        assert line in lines


# A 20-variable implication ring with a chord: one part above the table.
RING_TEXT = "p cnf 20 21\n" + "".join(f"-{i} {i % 20 + 1} 0\n" for i in range(1, 21)) + "1 3 0\n"


@pytest.mark.parametrize("mode, merged", [("auto", 19), ("general", 0)])
def test_merged_ring_stats(mode, merged, tmp_path, capsys):
    # Auto merges the ring into one variable; the facts describe the ring.
    path = tmp_path / "ring.cnf"
    path.write_text(RING_TEXT)
    code, out, _ = run_main(capsys, ["--stats", "--check", "--mode", mode, str(path)])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    for line in ("c stat mode general", "c stat acyclic false", "c stat head_cycle_free false",
                 "c stat parts 1", f"c stat merged_vars {merged}", "c check OK", "s mc 1"):
        assert line in lines
    # The merged ring is one variable, counted by its truth table.
    assert ("c stat copy_vars 0" in lines) == ("c stat table_parts 1" in lines) == (mode == "auto")


def test_acyclic_mode_rejected_on_a_ring_auto_merges(tmp_path, capsys):
    path = tmp_path / "ring.cnf"
    path.write_text(RING_TEXT)
    code, out, err = run_main(capsys, ["--mode", "acyclic", str(path)])
    assert (code, out) == (EXIT_MODE, "")
    assert "cycle" in err


# ex2's implication 3-cycle beside an acyclic part over variables 4-6.
SPLIT_TEXT = "p cnf 6 5\n-1 2 0\n-2 3 0\n-3 1 0\n4 5 0\n-5 6 0\n"


def test_split_input_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(counting, "_TABLE_VARS", 0)
    path = tmp_path / "split.cnf"
    path.write_text(SPLIT_TEXT.replace("-3 1 0", "-3 -2 1 0"))  # a ring no merge takes apart
    code, out, _ = run_main(capsys, ["--stats", "--check", str(path)])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert "c stat mode general" in lines
    assert "c stat parts 2" in lines and "c stat general_parts 1" in lines
    assert "c stat copy_vars 3" in lines
    assert "c check OK" in lines
    assert lines[-1] == "s mc 2"


def test_acyclic_mode_rejected_on_input_with_a_cyclic_part(tmp_path, capsys):
    path = tmp_path / "split.cnf"
    path.write_text(SPLIT_TEXT)
    code, out, err = run_main(capsys, ["--mode", "acyclic", str(path)])
    assert code == EXIT_MODE
    assert "cycle" in err
    assert "s mc" not in out


@pytest.mark.parametrize("first", [True, False])
def test_acyclic_mode_stops_at_the_first_cyclic_part(first, tmp_path, monkeypatch):
    # Four acyclic parts over 4-15 and ex2's 3-cycle over 1-3, its only
    # cycle, given first or last: Tarjan runs up to the cyclic part.
    acyclic = "".join(f"-{v} {v + 1} 0\n{v + 1} {v + 2} 0\n" for v in range(4, 16, 3))
    ring = "-1 2 0\n-2 3 0\n-3 1 0\n"
    path = tmp_path / "split.cnf"
    path.write_text("p cnf 15 11\n" + (ring + acyclic if first else acyclic + ring))
    passes = []
    scc = counting.strongly_connected_components
    monkeypatch.setattr(counting, "strongly_connected_components",
                        lambda graph: passes.append(1) or scc(graph))
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig(str(path), mode="acyclic", stats=True), out=out, err=err) == EXIT_MODE
    assert (out.getvalue(), err.getvalue()) == (
        "", "error: acyclic mode requested but the dependency graph has a cycle\n")
    assert len(passes) == (1 if first else 5)


def test_acyclic_mode_counts_an_acyclic_part_before_a_cyclic_one(tmp_path, monkeypatch):
    # One loop takes each part's facts and count in turn: the acyclic part
    # over 4-6 is counted before ex2's 3-cycle after it stops the run.
    path = tmp_path / "split.cnf"
    path.write_text("p cnf 6 5\n4 5 0\n-5 6 0\n-1 2 0\n-2 3 0\n-3 1 0\n")
    counted = []
    count_pair = counting.count_pair
    monkeypatch.setattr(counting, "count_pair",
                        lambda *args, **options: counted.append(1) or count_pair(*args, **options))
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig(str(path), mode="acyclic", stats=True), out=out, err=err) == EXIT_MODE
    assert (out.getvalue(), err.getvalue()) == (
        "", "error: acyclic mode requested but the dependency graph has a cycle\n")
    assert len(counted) == 1


@pytest.mark.parametrize("mode", ["auto", "general"])
def test_empty_clause_in_one_part_counts_zero(mode, tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_text(SPLIT_TEXT.replace("p cnf 6 5", "p cnf 6 6") + "0\n")
    code, out, _ = run_main(capsys, ["--mode", mode, str(path)])
    assert code == EXIT_OK
    assert out == "s mc 0\n"


def test_check_passes(ex1_path, capsys):
    code, out, _ = run_main(capsys, ["--check", ex1_path])
    assert code == EXIT_OK
    assert "c check OK" in out
    assert out.strip().splitlines()[-1] == "s mc 3"


def test_check_failure_exit_code(ex1_path, capsys, monkeypatch):
    import mincount.cli as cli_module
    from mincount import CountResult, CountStats

    monkeypatch.setattr(
        cli_module, "count_minimal_brute",
        lambda formula, limit: CountResult(99, CountStats(mode="brute")),
    )
    code, out, _ = run_main(capsys, ["--check", ex1_path])
    assert code == EXIT_CHECK_FAILED
    assert "c check FAIL expected 99 got 3" in out
    assert out.strip().splitlines()[-1] == "s mc 3"


def test_check_respects_oracle_limit(ex1_path, capsys):
    code, _, err = run_main(capsys, ["--check", "--oracle-limit", "2", ex1_path])
    assert code == EXIT_MODE
    assert "limit" in err


@pytest.mark.parametrize("stats", [[], ["--stats"]])
def test_brute_check_enumerates_once(stats, ex2_path, capsys, monkeypatch):
    # The oracle's count is its own check: one enumeration, same output.
    import mincount.cli as cli_module

    calls = []
    original = cli_module.count_minimal_brute

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_module, "count_minimal_brute", counted)
    code, out, _ = run_main(capsys, ["--mode", "brute", "--check"] + stats + [ex2_path])
    assert code == EXIT_OK
    assert len(calls) == 1
    assert out.splitlines()[-2:] == ["c check OK", "s mc 1"]


def test_brute_mode_respects_oracle_limit(ex1_path, capsys):
    code, _, err = run_main(capsys, ["--mode", "brute", "--oracle-limit", "2", ex1_path])
    assert code == EXIT_MODE


@pytest.mark.parametrize("limit, expected", [
    ("-5", (EXIT_USAGE, "", "error: argument --oracle-limit: must be at least 0, got -5\n")),
    ("0", (EXIT_OK, "s mc 1\n", "")),
])
def test_oracle_limit_below_zero_is_a_usage_error(limit, expected, tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 0 0\n")
    assert run_main(capsys, ["--mode", "brute", "--oracle-limit", limit, str(path)]) == expected


@pytest.mark.parametrize("mode", ["auto", "brute"])
def test_run_rejects_a_negative_oracle_limit(mode, tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 0 0\n")
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig(str(path), mode=mode, oracle_limit=-5), out=out, err=err) == EXIT_USAGE
    assert (out.getvalue(), err.getvalue()) == (
        "", "error: argument --oracle-limit: must be at least 0, got -5\n")


def test_emit_pair_round_trips(ex2_path, tmp_path, capsys):
    outdir = tmp_path / "pair"
    code, out, _ = run_main(capsys, ["--emit-pair", str(outdir), ex2_path])
    assert code == EXIT_OK
    search = parse_dimacs((outdir / "forced.cnf").read_text())
    assert search.num_original_vars == 3
    assert search.clauses == ((-1, 2), (-2, 3), (-3, 1), (-1, 3), (-2, 1), (-3, 2))
    copy_text = (outdir / "copy.cnf").read_text()
    assert "c copy 1 4" in copy_text
    assert "c vr copy 4 6" in copy_text
    justification = parse_dimacs(copy_text)
    assert len(justification.clauses) == 6


@pytest.mark.parametrize("mode, copied", [
    ("auto", [1, 2, 3]), ("general", [1, 2, 3, 4, 5, 6]), ("brute", [1, 2, 3])])
def test_emit_pair_copies_what_the_mode_counts(mode, copied, tmp_path, capsys):
    # Copies only for the implication cycle in auto; brute writes the auto pair.
    path = tmp_path / "split.cnf"
    path.write_text(SPLIT_TEXT)
    outdir = tmp_path / "pair"
    code, out, _ = run_main(capsys, ["--mode", mode, "--emit-pair", str(outdir), str(path)])
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1] == "s mc 2"
    copy_text = (outdir / "copy.cnf").read_text()
    comments = [line.split()[2:] for line in copy_text.splitlines()
                if line.startswith("c copy ")]
    assert comments == [[str(x), str(x + 6)] for x in copied]
    justification = parse_dimacs(copy_text)
    copies = {abs(lit) for clause in justification.clauses for lit in clause if abs(lit) > 6}
    assert copies == {x + 6 for x in copied}


# Variable 5 occurs only negatively and 6 not at all; the three-literal
# clause gives auxiliary variables.
AUX_TEXT = "p cnf 6 4\n1 2 3 0\n-1 2 0\n-2 1 4 0\n-5 -1 0\n"
ACYCLIC_AUX_TEXT = "p cnf 4 2\n1 2 3 0\n-3 4 0\n"

# (mode, input, forced.cnf, copy.cnf) as ``--emit-pair`` writes them.
EMITTED_PAIRS = [
    ("auto", EX2_TEXT, (
        "c vr orig 1 3\np cnf 3 6\n-1 2 0\n-2 3 0\n-3 1 0\n-1 3 0\n-2 1 0\n"
        "-3 2 0\n"
    ), (
        "c vr orig 1 3\nc vr copy 4 6\nc copy 1 4\nc copy 2 5\nc copy 3 6\n"
        "p cnf 6 6\n-4 1 0\n-5 2 0\n-6 3 0\n-4 5 0\n-5 6 0\n-6 4 0\n"
    )),
    ("auto", AUX_TEXT, (
        "c vr orig 1 6\nc vr aux 7 11\np cnf 11 25\n1 2 3 0\n-1 2 0\n-2 1 4 0\n"
        "-5 -1 0\n-7 -2 0\n-7 -3 0\n7 2 3 0\n-8 2 0\n-8 -4 0\n8 -2 4 0\n"
        "-1 7 8 0\n-9 -1 0\n-9 -3 0\n9 1 3 0\n-2 9 1 0\n-10 -1 0\n-10 -2 0\n"
        "10 1 2 0\n-3 10 0\n-11 2 0\n-11 -1 0\n11 -2 1 0\n-4 11 0\n-5 0\n-6 0\n"
    ), (
        "c vr orig 1 6\nc vr copy 12 17\nc copy 1 12\nc copy 2 13\np cnf 17 5\n"
        "-12 1 0\n-13 2 0\n12 13 3 0\n-12 13 0\n-13 12 4 0\n"
    )),
    ("general", AUX_TEXT, (
        "c vr orig 1 6\nc vr aux 7 11\np cnf 11 25\n1 2 3 0\n-1 2 0\n-2 1 4 0\n"
        "-5 -1 0\n-7 -2 0\n-7 -3 0\n7 2 3 0\n-8 2 0\n-8 -4 0\n8 -2 4 0\n"
        "-1 7 8 0\n-9 -1 0\n-9 -3 0\n9 1 3 0\n-2 9 1 0\n-10 -1 0\n-10 -2 0\n"
        "10 1 2 0\n-3 10 0\n-11 2 0\n-11 -1 0\n11 -2 1 0\n-4 11 0\n-5 0\n-6 0\n"
    ), (
        "c vr orig 1 6\nc vr copy 12 17\nc copy 1 12\nc copy 2 13\n"
        "c copy 3 14\nc copy 4 15\nc copy 5 16\np cnf 17 9\n-12 1 0\n-13 2 0\n"
        "-14 3 0\n-15 4 0\n-16 5 0\n12 13 14 0\n-12 13 0\n-13 12 15 0\n-5 0\n"
    )),
    ("acyclic", ACYCLIC_AUX_TEXT, (
        "c vr orig 1 4\nc vr aux 5 7\np cnf 7 15\n1 2 3 0\n-3 4 0\n-5 -2 0\n"
        "-5 -3 0\n5 2 3 0\n-1 5 0\n-6 -1 0\n-6 -3 0\n6 1 3 0\n-2 6 0\n-7 -1 0\n"
        "-7 -2 0\n7 1 2 0\n-3 7 0\n-4 3 0\n"
    ), (
        "c vr orig 1 4\nc vr copy 8 11\np cnf 11 0\n"
    )),
    # No variable, so no range at all.  No clause, and only an empty one:
    # every variable is forced false, and the copy range is declared
    # although no variable is copied.
    ("auto", "p cnf 0 0\n", "p cnf 0 0\n", "p cnf 0 0\n"),
    ("auto", "p cnf 3 0\n", (
        "c vr orig 1 3\np cnf 3 3\n-1 0\n-2 0\n-3 0\n"
    ), (
        "c vr orig 1 3\nc vr copy 4 6\np cnf 6 0\n"
    )),
    ("auto", "p cnf 2 1\n0\n", (
        "c vr orig 1 2\np cnf 2 3\n 0\n-1 0\n-2 0\n"
    ), (
        "c vr orig 1 2\nc vr copy 3 4\np cnf 4 0\n"
    )),
]


@pytest.mark.parametrize("mode, text, forced, copy", EMITTED_PAIRS)
def test_emit_pair_bytes_are_pinned(mode, text, forced, copy, tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text(text)
    outdir = tmp_path / "pair"
    assert run_main(capsys, ["--mode", mode, "--emit-pair", str(outdir), str(path)])[0] == EXIT_OK
    assert (outdir / "forced.cnf").read_bytes() == forced.encode()
    assert (outdir / "copy.cnf").read_bytes() == copy.encode()


def test_emit_pair_acyclic_mode_has_no_copies(ex1_path, tmp_path, capsys):
    outdir = tmp_path / "pair"
    code, out, _ = run_main(capsys, ["--mode", "acyclic", "--emit-pair", str(outdir), ex1_path])
    assert (code, out) == (EXIT_OK, "s mc 3\n")
    copy_text = (outdir / "copy.cnf").read_text()
    assert "c copy " not in copy_text
    assert parse_dimacs(copy_text).clauses == ()


@pytest.mark.parametrize("mode", ["auto", "acyclic", "general", "brute"])
def test_one_graph_and_one_scc_pass_per_run(mode, ex1_path, capsys, monkeypatch):
    # A connected input is one part: the counting modes build that part's
    # graph, and the oracle's stats the input's.
    calls, out = _graph_and_scc_calls(capsys, monkeypatch, ["--stats", "--mode", mode, ex1_path])
    assert calls == ["input graph" if mode == "brute" else "part graph", "scc"]
    assert "c stat acyclic true" in out and "c stat head_cycle_free true" in out


@pytest.mark.parametrize("mode", ["auto", "acyclic", "general"])
def test_one_graph_and_one_scc_pass_per_part_on_split_input(mode, tmp_path, capsys,
                                                             monkeypatch):
    # Each part gets its own graph and Tarjan pass, the input none.  The
    # second part's cycle makes the input cyclic and not head-cycle-free.
    path = tmp_path / "split.cnf"
    path.write_text("p cnf 5 4\n1 2 0\n3 4 5 0\n-3 4 0\n-4 3 0\n")
    calls, out = _graph_and_scc_calls(capsys, monkeypatch, ["--stats", "--mode", mode, str(path)],
                                      code=EXIT_MODE if mode == "acyclic" else EXIT_OK)
    if mode == "acyclic":
        assert out == ""
    else:
        assert "c stat acyclic false" in out and "c stat head_cycle_free false" in out
        assert "c stat parts 2" in out
    assert calls == ["part graph", "scc"] * 2


EMITS = ["--emit-depgraph", "{dir}/g.dot", "--emit-pair", "{dir}/pair"]


@pytest.mark.parametrize("argv, expected", [
    # Tarjan runs on the input's graph for the auto pair's copies and the
    # oracle's stats; the DOT text and the general pair need no SCCs.
    (EMITS, ["input graph", "scc", "part graph", "scc"]),
    (["--mode", "general"] + EMITS, ["input graph", "part graph", "scc"]),
    (["--mode", "brute", "--stats"], ["input graph", "scc"]),
    (["--mode", "brute", "--stats"] + EMITS, ["input graph", "scc"]),
])
def test_outputs_that_read_the_input_graph_build_it_once(argv, expected, ex2_path, tmp_path,
                                                        capsys, monkeypatch):
    argv = [arg.format(dir=tmp_path) for arg in argv] + [ex2_path]
    calls, out = _graph_and_scc_calls(capsys, monkeypatch, argv)
    assert calls == expected
    if "--stats" in argv:
        assert "c stat acyclic false" in out and "c stat head_cycle_free true" in out
    if "--emit-depgraph" in argv:
        assert (tmp_path / "g.dot").read_text().count(" -> ") == 3
        assert (tmp_path / "pair" / "copy.cnf").is_file()


@pytest.mark.parametrize("mode", ["auto", "acyclic", "general", "brute"])
def test_counting_alone_builds_no_input_graph(mode, ex2_path, capsys, monkeypatch):
    calls, _ = _graph_and_scc_calls(capsys, monkeypatch, ["--mode", mode, ex2_path],
                                    code=EXIT_MODE if mode == "acyclic" else EXIT_OK)
    assert calls == ([] if mode == "brute" else ["part graph", "scc"])


def _graph_and_scc_calls(capsys, monkeypatch, argv, code=EXIT_OK):
    """The graphs a run builds, by the module that builds them, and its
    Tarjan passes, in order; and its standard output."""
    import mincount.cli as cli_module

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((cli_module, "input graph"), (counting, "part graph")):
        monkeypatch.setattr(module, "build_dependency_graph",
                            counted(name, module.build_dependency_graph))
        monkeypatch.setattr(module, "strongly_connected_components",
                            counted("scc", module.strongly_connected_components))
    got, out, _ = run_main(capsys, argv)
    assert got == code
    return calls, out


def test_auxiliary_ids_in_input_exit_code(tmp_path, capsys):
    # The forced formula of a three-literal clause declares auxiliary ids;
    # fed back in, it is a plain CNF over its header's ``n``, and the
    # oracle agrees with its count in every mode.
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    outdir = tmp_path / "pair"
    assert run_main(capsys, ["--emit-pair", str(outdir), str(path)])[0] == EXIT_OK
    assert "c vr aux" in (outdir / "forced.cnf").read_text()
    for mode in ("auto", "acyclic", "general", "brute"):
        code, out, err = run_main(capsys, ["--mode", mode, "--check", str(outdir / "forced.cnf")])
        assert (code, out, err) == (EXIT_OK, "c check OK\ns mc 3\n", ""), mode


def _counts_as_plain(capsys, path, count):
    """Every mode counts ``path``, ``c vr`` lines and all, as a plain CNF."""
    for mode in ("auto", "acyclic", "general", "brute"):
        code, out, err = run_main(capsys, ["--mode", mode, "--check", str(path)])
        assert (code, out, err) == (EXIT_OK, f"c check OK\ns mc {count}\n", ""), mode


def test_var_ranges_without_orig_range_exit_code(tmp_path, capsys):
    path = tmp_path / "aux.cnf"
    path.write_text("c vr aux 1 2\np cnf 2 1\n1 2 0\n")
    _counts_as_plain(capsys, path, 2)


def test_var_range_below_orig_range_exit_code(tmp_path, capsys):
    path = tmp_path / "below.cnf"
    path.write_text("c vr aux 1 2\nc vr orig 3 5\np cnf 5 1\n1 3 0\n")
    _counts_as_plain(capsys, path, 2)


def test_second_orig_range_exit_code(tmp_path, capsys):
    path = tmp_path / "orig.cnf"
    path.write_text("c vr orig 1 2\nc vr orig 3 4\np cnf 4 2\n1 3 0\n-3 4 0\n")
    _counts_as_plain(capsys, path, 2)


def test_emit_depgraph(ex2_path, tmp_path, capsys):
    dot_path = tmp_path / "graph.dot"
    code, _, _ = run_main(capsys, ["--emit-depgraph", str(dot_path), ex2_path])
    assert code == EXIT_OK
    dot = dot_path.read_text()
    assert "1 -> 2;" in dot


# (input, the DOT file ``--emit-depgraph`` writes).  In the second, the arc
# 1 -> 2 comes from two clauses, 5 has no arc and 4, 7 and 8 occur nowhere.
EMITTED_DEPGRAPHS = [
    (EX2_TEXT, "digraph dependencies {\n  1;\n  2;\n  3;\n  1 -> 2;\n  2 -> 3;\n  3 -> 1;\n}\n"),
    ("p cnf 8 5\n3 2 -1 0\n-1 2 0\n5 0\n-6 -1 0\n-3 1 0\n",
     "digraph dependencies {\n  1;\n  2;\n  3;\n  5;\n  6;\n  1 -> 2;\n  1 -> 3;\n"
     "  3 -> 1;\n}\n"),
]


@pytest.mark.parametrize("text, dot", EMITTED_DEPGRAPHS)
def test_emit_depgraph_bytes_are_pinned(text, dot, tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text(text)
    dot_path = tmp_path / "graph.dot"
    assert run_main(capsys, ["--emit-depgraph", str(dot_path), str(path)])[0] == EXIT_OK
    assert dot_path.read_bytes() == dot.encode()


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(EX1_TEXT))
    code, out, _ = run_main(capsys, ["-"])
    assert code == EXIT_OK
    assert out == "s mc 3\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf nope\n")
    code, _, err = run_main(capsys, [str(path)])
    assert code == EXIT_USAGE
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_main(capsys, ["/nonexistent/file.cnf"])
    assert code == EXIT_USAGE


def test_bad_flag_exit_code(capsys):
    code, _, err = run_main(capsys, ["--nope", "x.cnf"])
    assert code == EXIT_USAGE


def test_non_utf8_input_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c caf\xe9\np cnf 1 1\n1 0\n")
    code, out, err = run_main(capsys, [str(path)])
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "s mc" not in out


@pytest.mark.parametrize("flag", ["--emit-depgraph", "--emit-pair"])
def test_unwritable_emit_path_exit_code(flag, ex2_path, tmp_path, capsys):
    # A path below a regular file cannot be created, whoever runs the test.
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_main(capsys, [flag, str(blocker / "out"), ex2_path])
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "s mc" not in out


def test_emit_pair_with_an_unindexable_header_count(tmp_path, capsys):
    # The pair holds a unit for every id up to the header's count; this one
    # fits no list, so the run fails before anything is allocated or written.
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 99999999999999999999 1\n1 2 0\n")
    code, out, err = run_main(capsys, ["--emit-pair", str(tmp_path / "pair"), str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert not (tmp_path / "pair").exists()


def test_emit_pair_out_of_memory(tmp_path, capsys, monkeypatch):
    # A header count that fits an index but not memory fails in
    # ``build_pair``; the stand-in raises as it would, allocating nothing.
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_pair", out_of_memory)
    path = tmp_path / "big.cnf"
    path.write_text("p cnf 1000000000 1\n1 2 0\n")
    code, out, err = run_main(capsys, ["--emit-pair", str(tmp_path / "pair"), str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: cannot write output: out of memory\n"
    assert not (tmp_path / "pair").exists()


def _ring_text(n, extra=""):
    """A plain text: the ring of binary implications over ``1..n``, then
    the clause lines ``extra``."""
    lines = [f"-{v} {v % n + 1} 0" for v in range(1, n + 1)] + extra.splitlines()
    return f"p cnf {n + 20} {len(lines)}\n" + "\n".join(lines) + "\n"


# Texts whose occurring variables a run must count, not the header's ``n``.
VARS_TEXTS = {
    "sparse ids": "p cnf 3000000 3\n-3000000 1 0\n-1 3000000 0\n5 2999999 0\n",
    "sparse acyclic": "p cnf 3000000 2\n-3000000 1 0\n7 -1 0\n",
    "empty clause": "p cnf 3 2\n1 -2 0\n0\n",
    "no clauses": "p cnf 5 0\n",
    "unused ids": "p cnf 9 2\n1 -2 0\n2 4 0\n",
    "declared ranges": "c vr orig 1 4\nc vr aux 5 6\np cnf 6 2\n1 -2 0\n-4 2 0\n",
    "tautology dropped": "p cnf 4 2\n1 -1 0\n-2 3 0\n",
    # Parts above the table, merged into one variable and split again.
    "merged ring": _ring_text(18, "1 19 0\n-19 20 -3 0\n"),
    "two rings": _ring_text(17, "18 -19 0\n-18 19 0\n"),
}


@pytest.mark.parametrize("mode", ["auto", "general", "acyclic", "brute"])
def test_vars_stat_counts_the_occurring_variables(mode, tmp_path, capsys):
    ran = 0
    for name, text in VARS_TEXTS.items():
        path = tmp_path / "in.cnf"
        path.write_text(text)
        code, out, _ = run_main(capsys, ["--stats", "--mode", mode, "--oracle-limit", "12",
                                         str(path)])
        if code == EXIT_MODE:  # a cycle in acyclic mode, or past the oracle's limit
            assert mode in ("acyclic", "brute") and "s mc" not in out
            continue
        assert code == EXIT_OK, name
        ran += 1
        assert f"c stat vars {len(parse_dimacs(text).variables())}\n" in out, name
        keys = [line.split()[2] for line in out.splitlines()[:-1]]
        tail = ["acyclic", "head_cycle_free"] if mode == "brute" else []
        assert keys[keys.index("merged_vars") + 1:] == tail + [
            "vars", "clauses", "tautologies_dropped"]
    assert ran >= {"acyclic": 5, "brute": 6}.get(mode, len(VARS_TEXTS))


def test_counting_with_stats_never_lists_the_input_variables(tmp_path, capsys, monkeypatch):
    # ``c stat vars`` comes from the parts; only the oracle's stats, the
    # DOT file and the pair files read the input's variables, from the one
    # renumbering of the whole input in ``cli``.
    from mincount import CnfFormula

    calls = []
    listed, renumber = CnfFormula.variables, cli._input_parts
    monkeypatch.setattr(CnfFormula, "variables",
                        lambda self: calls.append("variables") or listed(self))
    monkeypatch.setattr(cli, "_input_parts",
                        lambda *args: calls.append("renumber") or renumber(*args))
    path = tmp_path / "in.cnf"
    for text in (VARS_TEXTS["sparse ids"], EX2_TEXT, VARS_TEXTS["merged ring"]):
        path.write_text(text)
        code, out, _ = run_main(capsys, ["--stats", str(path)])
        assert code == EXIT_OK and "c stat vars " in out
    assert calls == []
    for flags in (["--mode", "brute"], ["--emit-depgraph", str(tmp_path / "g.dot")],
                  ["--emit-pair", str(tmp_path / "pair")]):
        code, _, _ = run_main(capsys, ["--stats", *flags, str(path)])
        assert code == EXIT_OK and calls.count("renumber") == 1
        calls.clear()


def _traced_peak(path, **options):
    """The exit code, output and tracemalloc peak of one in-process run,
    after a first run has imported and cached what it needs."""
    run(RunConfig(str(path), **options), out=io.StringIO(), err=io.StringIO())
    out = io.StringIO()
    tracemalloc.start()
    try:
        code = run(RunConfig(str(path), **options), out=out, err=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), peak


def test_paths_reading_the_input_graph_cost_what_the_text_costs(tmp_path):
    # The DOT file and the oracle's stats renumber the input to its four
    # occurring ids, so a header ``n`` of 3000000 allocates no table per
    # id (one list slot each would be 24 MB).  ``--emit-pair`` is left
    # out: its pair still holds a unit for every id up to ``n``.
    text = VARS_TEXTS["sparse ids"]
    path, dot_path = tmp_path / "in.cnf", tmp_path / "g.dot"
    path.write_text(text)
    for options in ({"emit_depgraph": str(dot_path)}, {"mode": "brute", "stats": True}):
        code, out, peak = _traced_peak(path, **options)
        assert code == EXIT_OK and out.endswith("s mc 2\n"), options
        assert peak < 600 * len(text), options
    assert "c stat vars 4\n" in out and "c stat acyclic false\n" in out
    assert dot_path.read_bytes() == (b"digraph dependencies {\n  1;\n  5;\n  2999999;\n"
                                     b"  3000000;\n  1 -> 3000000;\n  3000000 -> 1;\n}\n")
