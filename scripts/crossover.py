"""Time the truth table against the pair recursion on one connected part.

    python3 scripts/crossover.py [SIZE ...] [--instances N] [--seed S]

For every part size (default 8 to 18 variables) and three families of
random connected formulas over ``1..n``, generated here:

* ``3cnf``: ``2n`` clauses of 3 distinct variables with random signs;
* ``acyclic``: ``5n/4`` clauses of 2-3 literals whose negated variables
  precede their positive ones in a random order, so the dependency graph
  has no cycle;
* ``ring``: an implication ring over a third of the variables, a positive
  clause supporting it, and ``n`` forward clauses of 2-3 literals over the
  rest, some with a negated ring variable;

it counts each of ``N`` formulas (default 60) both ways: by
``counting._table_count``, and by ``build_pair`` plus ``count_pair`` with
copies for the variables on a cycle, as ``count_minimal`` would in auto
mode.  The two must give the same count.  Which goes first alternates.
One line per size and family gives the median milliseconds of each and
their ratio; the last line names the largest size at which the table was
at least 1.5 times faster on every family.  The table's median is warm:
its literal columns are built once per size per process
(``counting._columns``), before that size is timed, and the median of
five such builds is printed as the size's own ``build_ms`` column.  A
process whose only table part has ``n`` variables pays that build once.
Standard library only; run it from anywhere.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from mincount import (  # noqa: E402
    build_dependency_graph,
    build_pair,
    strongly_connected_components,
)
from mincount.counting import _columns, _table_count, count_pair  # noqa: E402
from mincount.sat import _input_parts  # noqa: E402

FAMILIES = ("3cnf", "acyclic", "ring")
SPEED_UP = 1.5


def _forward(rng, variables, rank):
    chosen = sorted(rng.sample(variables, min(rng.randint(2, 3), len(variables))),
                    key=rank.__getitem__)
    split = rng.randint(0, len(chosen))
    return [-v for v in chosen[:split]] + chosen[split:]


def _clauses(family: str, n: int, rng: random.Random) -> list:
    variables = list(range(1, n + 1))
    if family == "3cnf":
        return [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3))
                for _ in range(2 * n)]
    rng.shuffle(variables)
    if family == "acyclic":
        rank = {v: i for i, v in enumerate(variables)}
        return [tuple(_forward(rng, variables, rank)) for _ in range(5 * n // 4)]
    ring, rest = variables[:n // 3], variables[n // 3:]
    rank = {v: i for i, v in enumerate(rest)}
    clauses = [(-a, b) for a, b in zip(ring, ring[1:] + ring[:1])]
    clauses.append((rng.choice(ring), rng.choice(rest)))
    for _ in range(n):
        clause = _forward(rng, rest, rank)
        if rng.random() < 0.3:
            clause.append(-rng.choice(ring))
        clauses.append(tuple(clause))
    return clauses


def connected(family: str, n: int, rng: random.Random) -> list:
    """A formula of the family whose one part holds all of ``1..n``."""
    while True:
        clauses = _clauses(family, n, rng)
        parts = _input_parts(clauses, True)
        if len(parts) == 1 and len(parts[0][0]) == n:
            return clauses


def time_both(clauses: list, n: int, table_first: bool):
    """Milliseconds of the table and of the recursion, after checking
    that they agree."""
    copied = sorted(strongly_connected_components(build_dependency_graph(clauses, n)))
    seconds, counts = {}, {}
    for way in (("table", "pair") if table_first else ("pair", "table")):
        start = time.perf_counter()
        if way == "table":
            counts[way] = _table_count(clauses, n)
        else:
            counts[way] = count_pair(build_pair(clauses, n, copied)).count
        seconds[way] = time.perf_counter() - start
    if counts["table"] != counts["pair"]:
        raise SystemExit(f"counts differ on {clauses}: {counts}")
    return 1000 * seconds["table"], 1000 * seconds["pair"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", type=int, nargs="*", default=list(range(8, 19)),
                        help="part sizes in variables, each 3 to 20 (default: 8 to 18)")
    parser.add_argument("--instances", type=int, default=60, metavar="N",
                        help="formulas per size and family (default: 60)")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    args = parser.parse_args(argv)
    if not all(3 <= n <= 20 for n in args.sizes) or args.instances < 1:
        parser.error("sizes must lie in 3..20 and N must be positive")
    print(f"{'vars':>4} {'family':<8} {'table_ms':>9} {'pair_ms':>9} {'ratio':>6} "
          f"{'build_ms':>9}")
    fastest = None
    for n in args.sizes:
        builds = []
        for _ in range(5):
            start = time.perf_counter()
            _columns.__wrapped__(n)  # uncached
            builds.append(1000 * (time.perf_counter() - start))
        build_ms = statistics.median(builds)
        _columns(n)
        faster = True
        for family in FAMILIES:
            rng = random.Random(f"{args.seed}/{family}/{n}")
            table, pair = [], []
            for index in range(args.instances):
                ms = time_both(connected(family, n, rng), n, index % 2 == 0)
                table.append(ms[0])
                pair.append(ms[1])
            table_ms, pair_ms = statistics.median(table), statistics.median(pair)
            faster &= pair_ms >= SPEED_UP * table_ms
            print(f"{n:>4} {family:<8} {table_ms:>9.3f} {pair_ms:>9.3f} "
                  f"{pair_ms / table_ms:>6.2f} {build_ms:>9.3f}")
        if faster:
            fastest = n
    print(f"largest size with the table at least {SPEED_UP}x faster on every family: "
          f"{fastest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
