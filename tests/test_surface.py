"""Guards on the package's public surface and on how it checks invariants."""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import mincount
import mincount.counting as counting
import mincount.sat as sat
from mincount import BranchPolicy, build_pair, check_minimal, count_minimal, parse_dimacs, solve
from mincount.counting import count_pair

from conftest import pair_of

SOURCE = Path(mincount.__file__).parent


def test_every_exported_name_resolves_once():
    names = mincount.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mincount, name), name


def test_at_most_forty_exported_names():
    # Tightened as the surface shrinks; the name keeps its first bound.
    assert len(mincount.__all__) <= 26


def test_var_range_comments_stay_with_their_reader_and_writers():
    # ``c vr`` comments are DIMACS text: ``parse_dimacs`` reads them,
    # ``write_dimacs`` and ``write_pair_files`` write them, and the rest of
    # the package sees only ``num_original_vars`` and ``num_vars``.
    holders = sorted(path.name for path in SOURCE.glob("*.py") if "c vr" in path.read_text())
    assert holders == ["formula.py", "transform.py"]


def _sibling_imports(path):
    """The package modules a module imports relatively."""
    return {
        node.module
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_module_layering():
    # The formula layer stands alone, the graph, the transform and the SAT
    # kernel stand on it only, and the command line sits on top.
    imports = {path.stem: _sibling_imports(path) for path in SOURCE.glob("*.py")}
    assert imports["formula"] == set()
    for name in ("depgraph", "transform", "sat"):
        assert imports[name] <= {"formula"}, name
    assert sorted(name for name, used in imports.items() if "cli" in used) == []


# The module attributes the benchmark's span tracer replaces, kept here by
# hand: renaming or deleting one silently drops its layer from the trace.
TRACED_SITES = (
    ("mincount.cli", "parse_dimacs"),
    ("mincount.cli", "build_dependency_graph"),
    ("mincount.cli", "strongly_connected_components"),
    ("mincount.cli", "is_head_cycle_free"),
    ("mincount.cli", "count_minimal"),
    ("mincount.depgraph", "strongly_connected_components"),
    ("mincount.counting", "build_dependency_graph"),
    ("mincount.counting", "strongly_connected_components"),
    ("mincount.counting", "is_head_cycle_free"),
    ("mincount.counting", "build_pair"),
    ("mincount.counting", "count_pair"),
    ("mincount.counting", "_bcp"),
    ("mincount.counting", "_split_components"),
    ("mincount.counting", "BranchPolicy.pick"),
    ("mincount.counting", "_justification_base"),
    ("mincount.sat", "solve"),
)


def test_traced_sites_resolve():
    missing = []
    for module_name, path in TRACED_SITES:
        target = importlib.import_module(module_name)
        for attribute in path.split("."):
            target = getattr(target, attribute, None)
        if not callable(target):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_traced_layers_are_called_through_their_sites(monkeypatch, ex2):
    # The tracer times a layer only while the engine calls it through its
    # module or class attribute; inlining one would zero its metrics.
    results = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            results.setdefault(name, []).append(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(counting, "_TABLE_VARS", 0)
    for name in ("_bcp", "_split_components", "_justification_base", "build_dependency_graph",
                 "strongly_connected_components", "is_head_cycle_free"):
        spy(counting, name)
    spy(BranchPolicy, "pick")
    assert count_minimal(ex2).count == 1
    # Connected, so its untouched root is not walked; deciding 2 false
    # splits (1, 4) from (5, 3).
    split = pair_of(parse_dimacs("p cnf 5 2\n1 4 2 0\n2 5 3 0\n"))
    assert count_pair(split).count == 5
    assert count_minimal(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")).count == 0
    assert sorted(results) == ["_bcp", "_justification_base", "_split_components",
                               "build_dependency_graph", "is_head_cycle_free", "pick",
                               "strongly_connected_components"]
    # One graph and one Tarjan pass per part of the two ``count_minimal``
    # inputs: ex2's ring and the contradictory units.
    assert results["build_dependency_graph"] == [{1: [2], 2: [3], 3: [1]}, {}]
    assert [set(cycles) for cycles in results["strongly_connected_components"]] == [
        {1, 2, 3}, set()]
    assert all(type(result) is list for result in results["_split_components"])
    assert any(len(result) > 1 for result in results["_split_components"])
    assert results["_bcp"][-1] is counting._CONFLICT


def test_one_propagator(monkeypatch):
    # ``solve`` and the justification queries propagate with the engine's
    # ``_bcp`` through its own module, so the tracer's counting site sees
    # the search's calls and no others.
    monkeypatch.setattr(counting, "_TABLE_VARS", 0)
    calls = []
    for module in (counting, sat):
        original = module._bcp

        def wrapper(*args, _name=module.__name__, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, "_bcp", wrapper)
    assert solve(((1, 2), (-1, 2), (-2, 3))).satisfiable
    assert check_minimal(parse_dimacs("p cnf 2 1\n1 2 0\n"), {1})
    assert set(calls) == {"mincount.sat"}
    calls.clear()
    # With 1 and 2 true the residual image (3, 4) has no negative literal,
    # so the base case searches the run's own database, without ``solve``.
    solved = []
    monkeypatch.setattr(sat, "solve", lambda clauses: solved.append(clauses))
    result = count_minimal(parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n-2 1 0\n"))
    assert (result.count, result.stats.sat_calls) == (1, 1)
    assert set(calls) == {"mincount.counting", "mincount.sat"}
    assert solved == [] and not hasattr(counting, "solve")
    source = (SOURCE / "sat.py").read_text()
    names = [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
             if token.type == tokenize.NAME]
    assert [name for name in names if "watch" in name or "deque" in name] == []


def test_traced_result_shapes():
    # The tracer counts SAT calls by ``.satisfiable``.  ``build_pair``, which
    # it times as ``transform.pair``, returns the plain pair: two lists of
    # clause tuples, the bounds ``orig_limit``, ``copy_lo`` and ``top``, and
    # the list of supports.
    assert solve(((1,),)).satisfiable is True
    assert solve(((1,), (-1,))).satisfiable is False
    pair = build_pair(((-1, 2), (-2, 1)), 2, {1, 2})
    assert type(pair) is tuple
    assert pair == ([(-1, 2), (-2, 1), (-1, 2), (-2, 1)],
                    [(-3, 1), (-4, 2), (-3, 4), (-4, 3)], 2, 3, 4, [])
    assert [type(side) for side in pair[:2]] == [list, list]


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so an invariant checked by
    # one would silently stop being checked.
    paths = sorted(SOURCE.glob("*.py"))
    assert "counting.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
