"""Write one point of the benchmark trajectory as ``BENCH_<N>.json``.

    python3 scripts/bench_json.py N

For every workload of ``bench/workloads.py`` it records:

* ``counts``: the ``s mc`` count of each seed-0 instance, by name;
* ``counters``: the ``CountStats`` counters (the int fields, as
  ``--stats`` prints them) summed over those instances, read from
  ``mincount.cli.run`` with ``--stats`` in ``auto`` mode, as
  ``scripts/same_outputs.py`` runs it;
* ``end_to_end``: the median over ``RUNS`` (3) runs of each end-to-end
  metric of ``bench/run.py --seed 0 --seconds S --trace 0``, with ``S``
  the ``run_seconds`` of ``BENCHMARK.json``, and the runs' medians of
  untraced passes and attempts, their summed failures, and whether every
  run was correct.

The file goes to the repository root.  The counts come first.  When the
root already holds a ``BENCH_<M>.json`` with ``M < N``, the one with
the largest ``M`` must carry the same count for every instance that
both files name: if any differs, the script names the instances and
exits with status 1 before it measures or writes anything.  Workloads
and instances that file lacks are listed on stderr, not compared.  The
script also exits with status 1, writing nothing, when a benchmark run
fails an attempt or is not correct.  After measuring, it prints each
end-to-end metric's ratio to that file's value, and flags a move beyond
the metric's ``BENCHMARK.json`` bound as worse or better; the flags are a
report only and leave the exit status as it is.

Two rules for reading the numbers, both measured on this benchmark:

* Compare two checkouts only in the same bytecode-cache state.  With
  ``PYTHONDONTWRITEBYTECODE`` set, no ``__pycache__`` is written, so every
  launch compiles ``src/``: ``setup_s`` and ``peak_rss_mib`` then grow
  with the length of the source, not with working memory.  The file
  records the state as ``bytecode_cache``.
* ``peak_rss_mib`` is the whole process's peak, and ``bench/run.py``
  keeps every pass's attempts until it ends, so a faster program that
  completes more passes in the same ``--seconds`` reads more memory.
  Compare it at equal ``passes`` (runs with a matching ``--seconds``
  for each side), and treat about 0.1 MiB as noise on unchanged code.
  On Linux the peak also counts the launching process, whose size a
  child inherits through fork and exec, so this script starts each
  ``bench/run.py`` from a fresh, small interpreter, not from itself.

Standard library only; run it from anywhere.
"""

from __future__ import annotations

import glob
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from dataclasses import fields

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SEED = 0
RUNS = 3
# Runs its arguments as a command: a launcher of the size of a bare
# interpreter, so that the command's peak RSS is not this process's.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def outputs(workloads, cli, counters):
    """Per workload, the seed-0 counts by instance and the summed counters."""
    result = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            counts, sums = {}, dict.fromkeys(counters, 0)
            for instance in workloads.generate(name, SEED):
                path = os.path.join(scratch, instance.name + ".cnf")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(instance.dimacs())
                out, err = io.StringIO(), io.StringIO()
                code = cli.run(cli.RunConfig(path, stats=True), out, err)
                lines = out.getvalue().splitlines()
                if code != 0 or not lines or not lines[-1].startswith("s mc "):
                    raise SystemExit(f"{instance.name}: exit {code}: {err.getvalue().strip()}")
                counts[instance.name] = int(lines[-1].split()[2])
                for words in map(str.split, lines):
                    if words[:2] == ["c", "stat"] and words[2] in sums:
                        sums[words[2]] += int(words[3])
            result[name] = {"counts": counts, "counters": sums}
    return result


def earlier(number: int):
    """The path of the ``BENCH_<M>.json`` at the root with the largest
    ``M`` below ``number``, or ``None``."""
    found = {}
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and int(match.group(1)) < number:
            found[int(match.group(1))] = path
    return found[max(found)] if found else None


def compare(before: dict, data: dict):
    """The ``workload/instance`` names whose counts in ``data`` differ
    from ``before`` (an earlier file's ``workloads``), and those that
    ``before`` lacks, whole workloads by their name alone."""
    differ, new = [], []
    for name, result in data.items():
        if name not in before:
            new.append(name)
            continue
        counts = before[name]["counts"]
        for instance, count in result["counts"].items():
            if instance not in counts:
                new.append(f"{name}/{instance}")
            elif counts[instance] != count:
                differ.append(f"{name}/{instance}")
    return differ, new


def moves(before: dict, data: dict, bounds: dict) -> list:
    """One line per workload and end-to-end metric that both ``before`` (an
    earlier file's ``workloads``) and ``data`` measured: the ratio of the
    new value to the earlier one, flagged when it moved by more than the
    metric's bound.  ``bounds`` maps a metric's name to its
    ``BENCHMARK.json`` entry."""
    lines = []
    for name, result in data.items():
        earlier = before.get(name, {}).get("end_to_end", {}).get("metrics", {})
        for metric, value in result["end_to_end"]["metrics"].items():
            if metric not in bounds or not earlier.get(metric, {}).get("value"):
                continue
            ratio = value["value"] / earlier[metric]["value"]
            line = f"{name} {metric} {ratio:.3f}"
            bound = bounds[metric]["bound"]
            if abs(ratio - 1) > bound:
                worse = (ratio > 1) == (bounds[metric]["better"] == "lower")
                line += f" {'worse' if worse else 'better'} beyond the {bound} bound"
            lines.append(line)
    return lines


def bench_runs(workload: str, seconds: float) -> dict:
    """Medians of ``bench/run.py --trace 0`` over ``RUNS`` runs."""
    results, passes = [], []
    for _ in range(RUNS):
        done = subprocess.run(
            [sys.executable, "-c", LAUNCHER,
             sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"bench/run.py {workload} exited {done.returncode}:\n{done.stderr}")
        passes.append(json.loads(lines[-2])["passes"]["untraced"])
        results.append(json.loads(lines[-1]))
    metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                      "unit": metric["unit"]}
               for name, metric in results[0]["metrics"].items()}
    return {"metrics": metrics, "runs": RUNS,
            "passes": statistics.median(passes),
            "attempted": statistics.median(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 scripts/bench_json.py N", file=sys.stderr)
        return 2
    number = int(argv[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from mincount import CountStats, cli

    counters = [f.name for f in fields(CountStats) if f.type == "int"]
    data = outputs(workloads, cli, counters)
    previous, before = earlier(number), {}
    if previous:
        with open(previous, encoding="utf-8") as handle:
            before = json.load(handle)["workloads"]
        differ, new = compare(before, data)
        if new:
            print(f"not in {os.path.basename(previous)}: {', '.join(new)}", file=sys.stderr)
        if differ:
            print(f"counts differ from {os.path.basename(previous)}: {', '.join(differ)}",
                  file=sys.stderr)
            return 1
    for name in data:
        print(f"running {name}", file=sys.stderr, flush=True)
        data[name]["end_to_end"] = bench_runs(name, seconds)
        if data[name]["end_to_end"]["failed"] or not data[name]["end_to_end"]["correct"]:
            print(f"{name}: a benchmark run failed or was not correct", file=sys.stderr)
            return 1
    for line in moves(before, data, bounds):
        print(line)
    document = {
        "number": number,
        "previous": os.path.basename(previous) if previous else None,
        "bench": {"seed": SEED, "seconds": seconds},
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workloads": data,
    }
    path = os.path.join(ROOT, f"BENCH_{number}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
