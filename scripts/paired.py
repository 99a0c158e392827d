"""Check and time this checkout against a parent checkout, in one process.

    python3 scripts/paired.py --parent DIR [--mode M] [--seed N]
                              [--workload W] [--reps N]

Loads the ``mincount`` of ``DIR/src`` and of this checkout's ``src`` into
one process under two package names.  Then, for each workload of
``bench/workloads.py`` (or only ``W``), it counts every instance of the
seed (default 0) through ``cli.run`` with ``--stats`` in mode ``M``
(``auto``, ``acyclic`` or ``general``; default ``auto``), once with each
checkout, one instance after another.

A first pass checks the output: the two checkouts must give the same
exit code, ``s mc`` lines and stderr on every instance, or the script
names the first instance and what differs and exits with status 1.  A
change may alter the search by design, so differing ``c stat`` lines are
only counted: the last column gives the number of instances where they
differ.  When some differ, a second line gives each checkout's
``decisions`` and ``propagations`` summed over the workload's instances,
and a third the ``c stat`` keys only one checkout prints apart from the
keys both print with values that differ somewhere, so a counter a change
adds does not hide whether the search moved.  Without ``--check``,
which the script never passes, stdout holds no other line, so a change
that must not move any output reports 0 differing instances everywhere.

Then ``N`` repetitions (default 10; 0 runs the check alone) time both
checkouts.  Which goes first flips with every instance and every
repetition.  A repetition's ratio is the change's time over the
parent's, each summed over the workload's instances.  One line per
workload gives the median of the two sums, the median ratio over the
repetitions, and the ratios' range.

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
MODES = ("auto", "acyclic", "general")
# What the output check compares, in the order ``run_once`` returns it.
CHECKED = ("exit codes", "s mc lines", "stderr")


def load_cli(name: str, src: str):
    """``mincount.cli`` of ``src``, imported as the package ``name``."""
    package = os.path.join(os.path.abspath(src), "mincount")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_once(cli, path: str, mode: str):
    """Seconds of one ``cli.run``, its ``CHECKED`` outputs, and its
    ``c stat`` lines."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.run(cli.RunConfig(path, mode=mode, stats=True), out, err)
    seconds = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    return (seconds, (code, [line for line in lines if line.startswith("s mc")], err.getvalue()),
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


def stat_keys(parent, change) -> tuple[list, list, list]:
    """The ``c stat`` keys only ``parent`` prints, those only ``change``
    prints, and those both print with different values, each sorted, over
    two lists of ``c stat`` lines per instance."""
    only_parent, only_change, differ = set(), set(), set()
    for before, after in zip(parent, change):
        before, after = (dict(line.split()[2:] for line in lines) for lines in (before, after))
        only_parent |= before.keys() - after.keys()
        only_change |= after.keys() - before.keys()
        differ |= {key for key in before.keys() & after.keys() if before[key] != after[key]}
    return sorted(only_parent), sorted(only_change), sorted(differ)


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent checkout's root")
    parser.add_argument("--mode", choices=MODES, default="auto",
                        help="the command line's counting mode (default: auto)")
    parser.add_argument("--seed", type=int, default=0, help="instance seed (default: 0)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all)")
    parser.add_argument("--reps", type=int, default=10,
                        help="timed repetitions, 0 for the output check alone (default: 10)")
    args = parser.parse_args(argv)
    if args.reps < 0:
        parser.error("--reps must be at least 0")
    # Without this check a missing package would quietly fall back to
    # whatever ``mincount`` the interpreter's path already holds.
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
            for instance in workloads.generate(name, args.seed):
                paths.append(os.path.join(scratch, instance.name + ".cnf"))
                with open(paths[-1], "w", encoding="utf-8") as handle:
                    handle.write(instance.dimacs())
            stats_differ, stats = 0, ([], [])
            for path in paths:  # a warm-up pass, and the output check
                (_, checked, parent_stats), (_, other_checked, change_stats) = [
                    run_once(cli, path, args.mode) for cli in sides]
                if checked != other_checked:
                    differ = [what for what, before, after in zip(CHECKED, checked, other_checked)
                              if before != after]
                    print(f"{', '.join(differ)} differ on {os.path.basename(path)}",
                          file=sys.stderr)
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
                        total[side] += run_once(sides[side], path, args.mode)[0]
                totals.append(total)
            if totals:
                ratios = sorted(change / parent for parent, change in totals)
                timing = (f"{statistics.median(t[0] for t in totals):>9.3f} "
                          f"{statistics.median(t[1] for t in totals):>9.3f} "
                          f"{statistics.median(ratios):>6.3f}  {ratios[0]:.3f}-{ratios[-1]:.3f}")
            else:
                timing = f"{'-':>9} {'-':>9} {'-':>6}  {'-':<11}"
            print(f"{name:<16} {args.reps:>4} {timing}  {stats_differ}/{len(paths)}",
                  flush=True)
            if stats_differ:
                parent, change = map(search_size, stats)
                print(f"{name:<16} search  " + "  ".join(
                    f"{key} {parent[key]} -> {change[key]}" for key in SEARCH_SIZE),
                    flush=True)
                print(f"{name:<16} keys    " + "  ".join(
                    f"{label} {','.join(keys) or '-'}" for label, keys in zip(
                        ("only_parent", "only_change", "values_differ"), stat_keys(*stats))),
                    flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
