"""The counts check of ``scripts/bench_json.py``."""

import importlib.util
import json
import os
import shutil
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PATH = os.path.join(ROOT, "scripts", "bench_json.py")
spec = importlib.util.spec_from_file_location("bench_json", PATH)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def workloads(**counts):
    return {name: {"counts": dict(pairs), "counters": {}} for name, pairs in counts.items()}


class Reached(Exception):
    """Raised in place of the benchmark runs: the counts check passed."""


def test_compare_names_changed_counts_only():
    before = workloads(a={"a-0": 1, "a-1": 2})
    assert bench_json.compare(before, workloads(a={"a-0": 1, "a-1": 3})) == (["a/a-1"], [])
    assert bench_json.compare(before, before) == ([], [])


def test_compare_lists_what_the_earlier_file_lacks():
    before = workloads(a={"a-0": 1})
    after = workloads(a={"a-0": 1, "a-1": 5}, b={"b-0": 7})
    assert bench_json.compare(before, after) == ([], ["a/a-1", "b"])
    # A workload the new run no longer has is not a change either.
    assert bench_json.compare(after, before) == ([], [])


@pytest.fixture
def driver(tmp_path, monkeypatch):
    """``main`` with the earlier file at ``tmp_path`` and stubbed runs."""
    earlier = tmp_path / "BENCH_19.json"
    earlier.write_text(json.dumps({"workloads": workloads(a={"a-0": 1})}))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_json, "earlier", lambda number: str(earlier))

    def runs(workload, seconds):
        raise Reached(workload)

    monkeypatch.setattr(bench_json, "bench_runs", runs)

    def main(data):
        monkeypatch.setattr(bench_json, "outputs", lambda *args: data)
        return bench_json.main(["20"])

    return main


def test_a_new_workload_passes_the_counts_check(driver, capsys):
    with pytest.raises(Reached):
        driver(workloads(a={"a-0": 1}, b={"b-0": 7}))
    assert "not in BENCH_19.json: b" in capsys.readouterr().err


def test_a_changed_count_stops_the_driver(driver, capsys):
    assert driver(workloads(a={"a-0": 2}, b={"b-0": 7})) == 1
    err = capsys.readouterr().err
    assert "counts differ from BENCH_19.json: a/a-0" in err
    assert "running" not in err


def test_only_n_is_accepted(capsys):
    for argv in ([], ["20", "--seconds", "1"], ["x"]):
        assert bench_json.main(argv) == 2
    assert "usage" in capsys.readouterr().err


def measured(**values):
    """``end_to_end`` metrics of one workload, by name."""
    return {"metrics": {name: {"value": value, "unit": ""} for name, value in values.items()},
            "failed": 0, "correct": True}


def test_moves_beyond_the_bounds_are_reported_not_enforced(tmp_path, monkeypatch, capsys):
    # The earlier file at a root of its own; the run's counts match it, and
    # ``wall_s`` rose 50% where its bound is 20%.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    earlier = workloads(a={"a-0": 1}, b={"b-0": 7})
    earlier["a"]["end_to_end"] = measured(wall_s=1.0, peak_rss_mib=10.0, setup_s=0.2)
    (tmp_path / "BENCH_19.json").write_text(json.dumps({"workloads": earlier}))
    monkeypatch.setattr(bench_json, "ROOT", str(tmp_path))
    monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "bench")] + sys.path)
    monkeypatch.setattr(bench_json, "outputs", lambda *args: workloads(a={"a-0": 1}, b={"b-0": 7}))
    runs = {"a": measured(wall_s=1.5, peak_rss_mib=10.05, setup_s=0.1), "b": measured(wall_s=2.0)}
    monkeypatch.setattr(bench_json, "bench_runs", lambda workload, seconds: runs[workload])
    assert bench_json.main(["20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["a wall_s 1.500 worse beyond the 0.2 bound", "a peak_rss_mib 1.005",
                         "a setup_s 0.500 better beyond the 0.25 bound"]
    assert lines[3:] == [str(tmp_path / "BENCH_20.json")]
    written = json.loads((tmp_path / "BENCH_20.json").read_text())
    assert written["previous"] == "BENCH_19.json"
    assert written["workloads"]["a"]["end_to_end"] == runs["a"]
