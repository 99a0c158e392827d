"""Smoke runs of the measuring scripts, so an API change that breaks one
fails here rather than at its next use."""

import importlib.util
import os
import sys

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


def test_paired_runs_this_checkout_against_itself(capsys, monkeypatch):
    # The checkout as its own parent: the same counts and ``c stat`` lines.
    # The run imports ``bench/workloads.py`` and two package copies; drop
    # them and its ``sys.path`` entry afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    root = os.path.join(SCRIPTS, os.pardir)
    argv = ["--parent", root, "--workload", "union-mixed", "--reps", "1"]
    try:
        assert _load("paired").main(argv) == 0
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "c_stat_differs"
    assert row.split()[0] == "union-mixed" and row.split()[-1] == "0/22"


def test_paired_sums_the_search_size():
    # The line ``paired.py`` prints when ``c stat`` lines differ.
    stats = [["c stat mode general", "c stat decisions 3", "c stat propagations 40"],
             ["c stat decisions 4", "c stat propagations 2", "c stat components 9"]]
    assert _load("paired").search_size(stats) == {"decisions": 7, "propagations": 42}
