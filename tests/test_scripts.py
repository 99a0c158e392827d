"""Smoke runs of the measuring scripts, so an API change that breaks one
fails here rather than at its next use."""

import importlib.util
import os
import shutil
import sys

import pytest

from conftest import recurrence_count

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crossover_times_one_size(capsys):
    # It checks that the table and the pair agree on every formula.
    assert _load("crossover").main(["8", "--instances", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split()[:2] for line in lines[1:-1]]
    assert rows == [["8", "3cnf"], ["8", "acyclic"], ["8", "ring"]]
    assert lines[-1].startswith("largest size with the table")


def test_scaling_counts_one_ring(capsys):
    # The chord (1, 10) needs a true ring variable, and the ring then
    # forces all twenty: one minimal model.
    assert _load("scaling").main(["--one", "--family", "ring", "20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ring n=20 decisions=")
    assert out.endswith(" count=1\n")
    assert out.split()[3] == "components=0"  # one part, never split


def test_scaling_counts_blocks(capsys):
    # Three copies of the block and two unused ids; the unit forces each
    # block's one minimal model.
    assert _load("scaling").main(["--one", "--family", "blocks", "38"]) == 0
    out = capsys.readouterr().out.split()
    assert out[:4] == ["blocks", "n=38", "decisions=0", "components=3"]
    assert out[-1] == "count=1"


def test_scaling_counts_follow_the_recurrence(capfd):
    # ``--one`` counts in this process; without it each run is a fresh
    # interpreter writing to the shared stdout.
    assert _load("scaling").main(["--one", "--family", "chain", "40"]) == 0
    out = capfd.readouterr().out.split()
    assert out[:2] == ["chain", "n=40"]
    assert out[-1] == f"count={recurrence_count('chain', 40)}"
    assert _load("scaling").main(["--family", "path", "40"]) == 0
    out = capfd.readouterr().out.split()
    assert out[:2] == ["path", "n=40"]
    assert out[-1] == f"count={recurrence_count('path', 40)}"


def _paired(monkeypatch, *argv):
    """``paired.py``'s exit status on ``argv``.  The run imports
    ``bench/workloads.py`` and two package copies; drop them and its
    ``sys.path`` entry afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        return _load("paired").main(list(argv))
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


def test_paired_runs_this_checkout_against_itself(capsys, monkeypatch):
    # The checkout as its own parent: the same output and ``c stat`` lines.
    root = os.path.join(SCRIPTS, os.pardir)
    for options, timed in ((("--reps", "1"), True),
                           (("--mode", "general", "--seed", "1", "--reps", "0"), False)):
        assert _paired(monkeypatch, "--parent", root, "--workload", "union-mixed",
                       *options) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "c_stat_differs"
        assert row.split()[0] == "union-mixed" and row.split()[-1] == "0/22"
        assert (row.split()[2] != "-") == timed


def test_paired_refuses_a_parent_without_the_package(capsys, monkeypatch, tmp_path):
    with pytest.raises(SystemExit) as info:
        _paired(monkeypatch, "--parent", str(tmp_path / "missing"), "--reps", "0")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no src/mincount package under" in captured.err


def test_paired_fails_on_a_changed_error_message(capsys, monkeypatch, tmp_path):
    # A parent that differs only in the text forced ``acyclic`` writes to
    # stderr on a cyclic instance: the same exit codes and ``s mc`` lines.
    shutil.copytree(os.path.join(SCRIPTS, os.pardir, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    counting = tmp_path / "src" / "mincount" / "counting.py"
    text = counting.read_text()
    assert "acyclic mode requested" in text
    counting.write_text(text.replace("acyclic mode requested", "acyclic mode asked for"))
    assert _paired(monkeypatch, "--parent", str(tmp_path), "--mode", "acyclic",
                   "--workload", "general-3cnf", "--reps", "0") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("stderr differ on general-3cnf")


def test_paired_sums_the_search_size():
    # The line ``paired.py`` prints when ``c stat`` lines differ.
    stats = [["c stat mode general", "c stat decisions 3", "c stat propagations 40"],
             ["c stat decisions 4", "c stat propagations 2", "c stat components 9"]]
    assert _load("paired").search_size(stats) == {"decisions": 7, "propagations": 42}


def test_paired_tells_added_keys_from_changed_values():
    # A key one side alone prints is not a value that differs.
    parent = [["c stat mode general", "c stat decisions 3", "c stat vars 9"],
              ["c stat mode acyclic", "c stat decisions 4", "c stat vars 2"]]
    change = [["c stat mode general", "c stat decisions 3", "c stat merged_vars 0",
               "c stat vars 9"],
              ["c stat mode acyclic", "c stat decisions 5", "c stat merged_vars 1"]]
    assert _load("paired").stat_keys(parent, change) == (
        ["vars"], ["merged_vars"], ["decisions"])
    assert _load("paired").stat_keys(parent, parent) == ([], [], [])
