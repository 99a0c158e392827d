"""Time this checkout against a parent checkout, interleaved in one process.

    python3 scripts/paired.py --parent DIR [--workload W] [--reps N]

Loads the ``mincount`` of ``DIR/src`` and of this checkout's ``src`` into
one process under two package names.  Then, for each workload of
``bench/workloads.py`` (or only ``W``), it counts every seed-0 instance
through ``cli.run`` with ``--stats``, once with each checkout, one
instance after another.  Which checkout goes first flips with every
instance and every repetition.  A repetition's ratio is the change's
time over the parent's, each summed over the workload's instances.  One
line per workload gives the median of the two sums, the median ratio
over ``N`` repetitions (default 10), and the ratios' range.  The two
checkouts must give the same exit code and ``s mc`` lines on every
instance, or the script exits with status 1.  A change may alter the
search by design, so differing ``c stat`` lines are only counted: the
last column gives the number of instances where they differ.  When some
differ, a second line gives each checkout's ``decisions`` and
``propagations`` summed over the workload's instances.

Why one process: a shared host's speed can drift by 1.7x within minutes,
and separate-process A/B runs of one pair of checkouts read ratios from
0.72 to 1.12.  Interleaved per instance, a checkout against an identical
copy read median ratios of 1.007 to 1.014 over three repetitions per
workload.  A ratio below 1 means the change is faster.

Standard library only; of ``bench/`` it imports ``workloads.py`` alone.
Run it from anywhere.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SEED = 0


def load_cli(name: str, src: str):
    """``mincount.cli`` of ``src``, imported as the package ``name``."""
    package = os.path.join(os.path.abspath(src), "mincount")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_once(cli, path: str):
    """Seconds of one ``cli.run``, its exit code and ``s mc`` lines, and
    its ``c stat`` lines."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.run(cli.RunConfig(path, stats=True), out, err)
    seconds = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    return (seconds, (code, [line for line in lines if line.startswith("s mc")]),
            [line for line in lines if line.startswith("c stat")])


SEARCH_SIZE = ("decisions", "propagations")


def search_size(stats) -> dict:
    """``SEARCH_SIZE`` counters summed over lists of ``c stat`` lines."""
    sums = dict.fromkeys(SEARCH_SIZE, 0)
    for lines in stats:
        for line in lines:
            _, _, key, value = line.split()
            if key in sums:
                sums[key] += int(value)
    return sums


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent checkout's root")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument("--reps", type=int, default=10, help="repetitions (default: 10)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if not os.path.isfile(os.path.join(args.parent, "src", "mincount", "__init__.py")):
        parser.error(f"no src/mincount package under {args.parent}")
    sides = (load_cli("mincount_parent", os.path.join(args.parent, "src")),
             load_cli("mincount_change", os.path.join(ROOT, "src")))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    print(f"{'workload':<16} {'reps':>4} {'parent_s':>9} {'change_s':>9} "
          f"{'ratio':>6}  {'range':<11}  c_stat_differs")
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            paths = []
            for instance in workloads.generate(name, SEED):
                paths.append(os.path.join(scratch, instance.name + ".cnf"))
                with open(paths[-1], "w", encoding="utf-8") as handle:
                    handle.write(instance.dimacs())
            stats_differ, stats = 0, ([], [])
            for path in paths:  # a warm-up pass, and the output check
                (_, counts, parent_stats), (_, other_counts, change_stats) = [
                    run_once(cli, path) for cli in sides]
                if counts != other_counts:
                    print(f"counts differ on {os.path.basename(path)}", file=sys.stderr)
                    return 1
                stats_differ += parent_stats != change_stats
                stats[0].append(parent_stats)
                stats[1].append(change_stats)
            totals = []
            for rep in range(args.reps):
                total = [0.0, 0.0]
                for index, path in enumerate(paths):
                    order = (0, 1) if (rep + index) % 2 == 0 else (1, 0)
                    for side in order:
                        total[side] += run_once(sides[side], path)[0]
                totals.append(total)
            ratios = sorted(change / parent for parent, change in totals)
            print(f"{name:<16} {args.reps:>4} "
                  f"{statistics.median(t[0] for t in totals):>9.3f} "
                  f"{statistics.median(t[1] for t in totals):>9.3f} "
                  f"{statistics.median(ratios):>6.3f}  {ratios[0]:.3f}-{ratios[-1]:.3f}  "
                  f"{stats_differ}/{len(paths)}", flush=True)
            if stats_differ:
                parent, change = map(search_size, stats)
                print(f"{name:<16} search  " + "  ".join(
                    f"{key} {parent[key]} -> {change[key]}" for key in SEARCH_SIZE),
                    flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
