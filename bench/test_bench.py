"""Tests of the benchmark itself: generators, gate, tracer and result shape.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import generate
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from mincount import CnfFormula, count_minimal, count_minimal_brute  # noqa: E402

SMALL = {
    "general-3cnf": {"num_vars": 12, "num_clauses": 24},
    "acyclic-random": {"num_vars": 16, "num_clauses": 20},
    "union-mixed": {"num_blocks": 6},
    "long-rings": {"num_rings": 6, "ring_vars": 8},
}


def small(workload, seed):
    return workloads.generate(workload, seed, **SMALL[workload])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    first, again, other = small(workload, 7), small(workload, 7), small(workload, 8)
    assert first == again
    assert [i.dimacs() for i in first] != [i.dimacs() for i in other]
    assert len(first) == workloads.WORKLOADS[workload].instances


def test_default_sizes_are_deterministic():
    assert workloads.generate("long-rings", 3) == workloads.generate("long-rings", 3)


def test_acyclic_random_points_forward_in_its_own_order():
    for instance in small("acyclic-random", 3):
        rank = {v: i for i, v in enumerate(instance.meta["order"])}
        assert sorted(rank) == list(range(1, instance.num_vars + 1))
        for clause in instance.clauses:
            negatives = [rank[-x] for x in clause if x < 0]
            positives = [rank[x] for x in clause if x > 0]
            assert not negatives or not positives or max(negatives) < min(positives)
        assert not workloads.has_cycle(instance.num_vars, instance.clauses)


def test_union_mixed_blocks_are_disjoint_with_positive_clauses():
    for instance in small("union-mixed", 3):
        blocks = instance.meta["blocks"]
        block_of = {v: b for b, block in enumerate(blocks) for v in block}
        assert len(block_of) == instance.num_vars == sum(len(b) for b in blocks)
        for clause in instance.clauses:
            assert len({block_of[abs(x)] for x in clause}) == 1
            assert any(x > 0 for x in clause)
        assert workloads.has_cycle(instance.num_vars, instance.clauses)


def test_long_rings_count_is_two_to_the_pairs():
    for instance in small("long-rings", 3)[:6]:
        formula = CnfFormula(instance.clauses, instance.num_vars)
        assert count_minimal(formula).count == 2 ** instance.meta["pairs"]
    # Small enough for the oracle: one pair and two chord-closed rings.
    for instance in workloads.generate("long-rings", 5, num_rings=4, ring_vars=4)[:4]:
        formula = CnfFormula(instance.clauses, instance.num_vars)
        assert count_minimal_brute(formula).count == 2 ** instance.meta["pairs"]


def test_has_cycle():
    assert workloads.has_cycle(2, [(-1, 2), (-2, 1)])
    assert workloads.has_cycle(1, [(-1, 1)])
    assert not workloads.has_cycle(3, [(-1, 2), (-2, 3), (1, 3)])


def test_self_times_on_a_nested_trace():
    trace = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("leaf", 6.0, 8.0, 3, 0),
        ("leaf", 7.0, 9.5, 3, 0),  # overlaps its sibling and outlasts its parent
        ("root", 20.0, 21.0, -1, 1),
    ]
    totals = spans.self_times(trace)
    assert totals["root"] == pytest.approx(3.0 + 1.0)
    assert totals["a"] == pytest.approx(2.0)
    assert totals["b"] == pytest.approx(1.0)
    assert totals["leaf"] == pytest.approx(1.0 + 2.0 + 2.5)


def test_tracer_restores_sites_and_reports_absent_names(monkeypatch):
    from mincount import counting

    original = counting._bcp
    monkeypatch.setattr(spans, "SITES", spans.SITES + (("x", "mincount.counting", "gone"),))
    tracer = spans.Tracer()
    tracer.install()
    assert counting._bcp is not original
    tracer.uninstall()
    assert counting._bcp is original
    assert tracer.absent == ["mincount.counting.gone"]


def write_instances(workload, seed, directory):
    entries = []
    for instance in small(workload, seed)[:6]:
        path = directory / f"{instance.name}.cnf"
        path.write_text(instance.dimacs())
        expected = generate.expected_count(workload, instance)
        entries.append({"name": instance.name, "path": str(path), "expected": expected})
    return entries


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_agree(workload, tmp_path):
    instances = write_instances(workload, 2, tmp_path)
    passes, absent, first_spans = run.measure(instances, 0.0, traced=True)
    assert [p.traced for p in passes] == [False, True]
    assert {span[4] for span in first_spans} == set(range(len(instances)))
    failed, problems, deterministic = run.check(instances, passes, None)
    assert (failed, problems, deterministic) == (0, [], True)
    assert absent == []
    metrics, extra = run.per_layer(instances, passes)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["depgraph.scc_calls"] > 0
    assert metrics["counting.decisions"] == extra["stats"]["decisions"]
    if workload == "acyclic-random":
        assert metrics["sat.calls"] == 0
    else:
        assert metrics["sat.calls"] == extra["stats"]["sat_calls"]


def test_gate_counts_a_wrong_count_as_failed(tmp_path):
    instances = write_instances("general-3cnf", 2, tmp_path)
    passes, _, _ = run.measure(instances, 0.0, traced=False)
    instances[0]["expected"] += 1
    failed, problems, _ = run.check(instances, passes, None)
    assert failed == 1 and "expected" in problems[0]
    pins = [i["expected"] for i in instances]
    failed, problems, _ = run.check(instances[:1] + instances[1:], passes, pins[:-1])
    assert "pinned counts" in problems[0]


def test_tail_has_ten_samples_beyond():
    value, percentile = run.tail(list(range(40)))
    assert value == 29 and percentile == 75.0
    assert sum(v > value for v in range(40)) == run.TAIL_BEYOND


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        units = run.END_TO_END if group == "end_to_end" else run.PER_LAYER
        assert all(m["unit"] == units[m["name"]] for m in spec[group])


def test_pinned_counts_cover_every_workload():
    pinned = json.loads((run.HERE / "pinned.json").read_text())
    assert {w: len(c) for w, c in pinned.items()} == {
        w.name: w.instances for w in workloads.WORKLOADS.values()
    }


def test_pinned_long_rings_counts_are_powers_of_two():
    pinned = json.loads((run.HERE / "pinned.json").read_text())["long-rings"]
    instances = workloads.generate("long-rings", run.PINNED_SEED)
    assert pinned == [2 ** i.meta["pairs"] for i in instances]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-rings", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_counter_on_a_changed_result_is_reported_not_raised():
    tracer = spans.Tracer()
    traced = tracer._wrap("sat.solve", lambda: object())
    traced()
    assert tracer.absent == ["sat.solve counters"]
    assert [span[0] for span in tracer.spans] == ["sat.solve"]


def test_setup_sampler_spreads_launches_and_fills_up(tmp_path):
    sampler = run.SetupSampler(tmp_path, seconds=1000.0)
    sampler.tick()
    sampler.tick()  # the second launch is not due yet
    assert len(sampler.times) == 1
    assert sampler.median() > 0
    assert len(sampler.times) == run.SETUP_LAUNCHES
