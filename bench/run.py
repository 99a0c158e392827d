"""Benchmark of the mincount counting pipeline on one seeded workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.  A
child process writes the workload's DIMACS files and their independently
recomputed counts (``generate.py``).  This process then counts every
instance through ``mincount.cli.run``, one pass over the batch after
another, for ``--seconds`` seconds.  It is a closed loop: one instance at
a time, no threads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the
traced ones.  Times are scaled to a fixed host speed (``PROBE_REF_S``).
Every run checks the counts outside the timed region: an attempt fails
on a wrong count, an exception, a non-zero exit, a missing ``s mc`` last
line, or a time over ``INSTANCE_BUDGET_S``.  Counts and
search counters must also repeat exactly across passes, traced or not.

The last stdout line is the result object; the line before it holds the
details (environment, fail ratio, tail percentile, absent trace sites).
Both go to ``.bench_work/results/``, with the spans of one traced pass.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PINNED_SEED = 0
INSTANCE_BUDGET_S = 30.0
TAIL_BEYOND = 10
SETUP_LAUNCHES = 11
SETUP_INPUT = "p cnf 3 3\n1 2 0\n2 3 0\n3 1 0\n"
SETUP_EXPECTED = "s mc 3"
# The installed ``mincount`` console script runs exactly this.
SETUP_PROGRAM = "import sys; from mincount.cli import main; sys.exit(main(sys.argv[1:]))"
STATS = ("decisions", "propagations", "components", "sat_calls", "base_cases")

# On a shared host the CPU speed can drift by 1.7x within minutes
# (README.md, "Host noise"), far more than a change worth measuring.  So
# a fixed probe is timed after every instance, and every time a pass
# yields is scaled by PROBE_REF_S over the pass's median probe time.  No
# change to mincount touches the probe; changing it rescales every time.
PROBE_REF_S = 0.005
PROBE_VARS = 1500

END_TO_END = {
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Times are self times summed over one traced pass, median over passes;
# counts are per pass unless the unit says otherwise.
PER_LAYER = {
    "formula.parse_s": "s",
    "depgraph.graph_s": "s",
    "depgraph.scc_s": "s",
    "depgraph.scc_calls": "calls/instance",
    "depgraph.checks_s": "s",
    "transform.pair_s": "s",
    "transform.justification_clauses": "count",
    "transform.copy_vars": "count",
    "counting.loop_s": "s",
    "counting.bcp_s": "s",
    "counting.bcp_calls": "count",
    "counting.bcp_conflict_ratio": "ratio",
    "counting.split_s": "s",
    "counting.split_calls": "count",
    "counting.split_useful_ratio": "ratio",
    "counting.pick_s": "s",
    "counting.base_s": "s",
    "counting.base_cases": "count",
    "counting.decisions": "count",
    "counting.components": "count",
    "counting.propagations": "count",
    "sat.solve_s": "s",
    "sat.calls": "count",
    "sat.sat_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Time metrics read the span named like the metric without ``_s``, except:
SPAN_OF = {"cli.self_s": "cli.run"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "instances": {name: w.instances for name, w in workloads.WORKLOADS.items()},
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=150,
    )
    with open(out / "manifest.json") as handle:
        return json.load(handle)["instances"]


class SetupSampler:
    """Fresh-interpreter CLI launches on a tiny input, for ``setup_s``.

    The launches are spread evenly over the measuring window, between
    instances: a burst of launches samples one moment of a drifting host,
    and its median spread twice as much over ten runs.
    """

    def __init__(self, work: Path, seconds: float):
        path = work / "setup.cnf"
        path.write_text(SETUP_INPUT)
        self.command = [sys.executable, "-c", SETUP_PROGRAM, str(path)]
        self.every = seconds / SETUP_LAUNCHES
        self.due = time.perf_counter()
        self.times: list[float] = []

    def launch(self) -> None:
        start = time.perf_counter()
        done = subprocess.run(
            self.command, capture_output=True, text=True, timeout=60, env=child_env()
        )
        self.times.append(time.perf_counter() - start)
        if done.returncode != 0 or done.stdout.splitlines()[-1:] != [SETUP_EXPECTED]:
            raise RuntimeError(f"setup launch failed: {done.returncode} {done.stderr.strip()}")

    def tick(self) -> None:
        """Launch once if one is due."""
        if len(self.times) < SETUP_LAUNCHES and time.perf_counter() >= self.due:
            self.launch()
            self.due += self.every

    def median(self) -> float:
        """Median launch time, after launching any that are still missing."""
        while len(self.times) < SETUP_LAUNCHES:
            self.launch()
        return statistics.median(self.times)


def count_once(call, config_type, path):
    """One CLI run; returns ``(seconds, count, stats, problem)``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = call(config_type(path, stats=True), out=out, err=err)
    except Exception as exc:  # an instance failure, not a benchmark failure
        return time.perf_counter() - start, None, None, f"exception {exc!r}"
    seconds = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    if code != 0:
        return seconds, None, None, f"exit code {code}: {err.getvalue().strip()}"
    if not lines or not lines[-1].startswith("s mc "):
        return seconds, None, None, "no 's mc' last line"
    stats = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[:2] == ["c", "stat"] and fields[2] in STATS:
            stats[fields[2]] = int(fields[3])
    return seconds, int(lines[-1][5:]), stats, None


def make_probe():
    """Time Kahn's algorithm over a fixed random 3-CNF; returns seconds."""
    rng = random.Random("host-probe")
    clauses = [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, PROBE_VARS + 1), 3))
        for _ in range(PROBE_VARS)
    ]

    def probe() -> float:
        start = time.perf_counter()
        workloads.has_cycle(PROBE_VARS, clauses)
        return time.perf_counter() - start

    return probe


@dataclass
class Pass:
    traced: bool
    wall: float  # sum of the instances' times, as measured
    scale: float  # PROBE_REF_S / median probe time in this pass
    attempts: list  # per instance: (seconds, count, stats, problem)
    self_s: dict | None = None  # traced only: self time per span name
    counters: dict | None = None  # traced only: layer counters


def run_pass(instances, probe, tracer=None, between=None) -> Pass:
    """Count every instance once, timing the probe after each.

    ``between``, if given, is called after each instance, untimed.
    """
    from mincount import cli

    call = cli.run
    if tracer is not None:
        def call(*args, **kwargs):
            return tracer.span("cli.run", cli.run, *args, **kwargs)
    attempts = []
    probes = []
    for index, instance in enumerate(instances):
        if tracer is not None:
            tracer.instance = index
        attempts.append(count_once(call, cli.RunConfig, instance["path"]))
        probes.append(probe())
        if between is not None:
            between()
    wall = sum(attempt[0] for attempt in attempts)
    return Pass(tracer is not None, wall, PROBE_REF_S / statistics.median(probes), attempts)


def measure(instances, seconds: float, traced: bool, between=None):
    """Passes until ``seconds`` is used up; at least one of each kind.

    A pass starts only if a pass of its kind is expected to end in time.
    ``between`` goes to ``run_pass``.
    Returns the passes, the absent trace sites and the spans of the
    first traced pass.
    """
    probe = make_probe()
    tracer = spans.Tracer() if traced else None
    kinds = (False, True) if traced else (False,)
    last = {}
    passes = []
    first_spans = []
    deadline = time.perf_counter() + seconds
    while True:
        kind = kinds[len(passes) % len(kinds)]
        start = time.perf_counter()
        if len(passes) >= len(kinds) and start + last[kind] > deadline:
            break
        if kind:
            tracer.install()
            try:
                one = run_pass(instances, probe, tracer, between)
            finally:
                tracer.uninstall()
            recorded, one.counters = tracer.take()
            one.self_s = spans.self_times(recorded)
            first_spans = first_spans or recorded
        else:
            one = run_pass(instances, probe, between=between)
        passes.append(one)
        last[kind] = time.perf_counter() - start
    return passes, (tracer.absent if tracer else []), first_spans


def check(instances, passes, pins):
    """Correctness gate over every attempt; returns ``(failed, problems, deterministic)``.

    ``pins`` are the counts pinned for this input, or None.
    """
    failed = 0
    problems = []
    if pins is not None and len(pins) != len(instances):
        problems.append(f"{len(pins)} pinned counts for {len(instances)} instances")
        pins = None
    for index, instance in enumerate(instances):
        expected = instance["expected"]
        if pins is not None and pins[index] != expected:
            problems.append(f"{instance['name']}: pinned {pins[index]} != recomputed {expected}")
        for one in passes:
            seconds, count, _, problem = one.attempts[index]
            if problem is None and count != expected:
                problem = f"count {count} != expected {expected}"
            if problem is None and pins is not None and count != pins[index]:
                problem = f"count {count} != pinned {pins[index]}"
            if problem is None and seconds > INSTANCE_BUDGET_S:
                problem = f"{seconds:.1f} s over the {INSTANCE_BUDGET_S} s budget"
            if problem is not None:
                failed += 1
                problems.append(f"{instance['name']}: {problem}")
    outcomes = {
        tuple((count, tuple(sorted((stats or {}).items()))) for _, count, stats, _ in p.attempts)
        for p in passes
    }
    layer_counts = {tuple(sorted(p.counters.items())) for p in passes if p.traced}
    return failed, problems, len(outcomes) == 1 and len(layer_counts) <= 1


def tail(values):
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and that percentile."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(instances, passes, setup_s):
    """Metrics over each instance's median scaled time across passes.

    ``wall_s``, the batch time, is the sum of those medians.
    """
    per_instance = [
        statistics.median(p.attempts[i][0] * p.scale for p in passes)
        for i in range(len(instances))
    ]
    tail_s, percentile = tail(per_instance)
    metrics = {
        "wall_s": sum(per_instance),
        "instance_p50_s": statistics.median(per_instance),
        "instance_tail_s": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return metrics, {"tail_percentile": percentile, "tail_samples": len(per_instance)}


def ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(instances, passes):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    self_s = {
        name: statistics.median(p.self_s.get(name, 0.0) * p.scale for p in traced)
        for name in traced[0].self_s
    }
    counters = traced[-1].counters
    stats = {
        key: sum((stats or {}).get(key, 0) for _, _, stats, _ in traced[-1].attempts)
        for key in STATS
    }
    metrics = {
        "counting.decisions": stats["decisions"],
        "counting.components": stats["components"],
        "counting.propagations": stats["propagations"],
        "counting.base_cases": stats["base_cases"],
        "counting.bcp_calls": counters["counting.bcp_calls"],
        "counting.bcp_conflict_ratio": ratio(
            counters["counting.bcp_conflicts"], counters["counting.bcp_calls"]),
        "counting.split_calls": counters["counting.split_calls"],
        "counting.split_useful_ratio": ratio(
            counters["counting.split_useful"], counters["counting.split_calls"]),
        "sat.calls": counters["sat.calls"],
        "sat.sat_ratio": ratio(counters["sat.satisfiable"], counters["sat.calls"]),
        "depgraph.scc_calls": counters["depgraph.scc_calls"] / len(instances),
        "transform.justification_clauses": counters["transform.justification_clauses"],
        "transform.copy_vars": counters["transform.copy_vars"],
        "trace.overhead_ratio": statistics.median(p.wall * p.scale for p in traced)
        / statistics.median(p.wall * p.scale for p in untraced),
    }
    for metric in PER_LAYER:
        if metric.endswith("_s"):
            metrics[metric] = self_s.get(SPAN_OF.get(metric, metric[:-2]), 0.0)
    return metrics, {"self_s": self_s, "stats": stats}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mincount" / "cli.py").is_file():
        print(f"error: no mincount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Pinned counts are for PINNED_SEED; a renaming keeps every count, so
    # they hold for any seed when the base formulas do not depend on it.
    pins = None
    if args.seed == PINNED_SEED or workloads.WORKLOADS[args.workload].fixed_base:
        with open(HERE / "pinned.json") as handle:
            pins = json.load(handle)[args.workload]

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        instances = generate(args.workload, args.seed, work)
        setup = None if args.trace else SetupSampler(work, args.seconds)
        passes, absent, first_spans = measure(
            instances, args.seconds, bool(args.trace), setup.tick if setup else None
        )
        setup_s = setup.median() if setup else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, problems, deterministic = check(instances, passes, pins)
    if args.trace:
        metrics, extra = per_layer(instances, passes)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(instances, passes, setup_s)
        units = END_TO_END
    attempted = sum(len(p.attempts) for p in passes)
    details = {
        "env": environment(args.workload, args.seed),
        "trace": args.trace,
        "passes": {"untraced": sum(not p.traced for p in passes),
                   "traced": sum(p.traced for p in passes)},
        "fail_ratio": failed / attempted,
        "deterministic": deterministic,
        "pinned": pins is not None,
        "problems": problems[:20],
        "absent": absent,
        "counts": [i["expected"] for i in instances],
        "passes_raw_wall_scale": [[p.traced, p.wall, p.scale] for p in passes],
        **extra,
    }
    result = {
        "correct": deterministic and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    if first_spans:
        with open(results / f"{stem}-spans.jsonl", "w") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in first_spans)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
