"""Time ``count_minimal`` on one large part, or many small ones, as the
input grows.

    python3 scripts/scaling.py 500 1000 [--family NAME]...

``--family`` takes one name and repeats (``--family chain --family
path``); all four families run by default.  The first three are one
connected part over ``n`` variables:

* ``chain``: the clauses ``(-i, i+1, i+2)`` for ``i`` in ``1..n-2`` and the
  unit ``(1)``, an acyclic chain whose every node is one wide component;
* ``path``: the positive path ``(i, i+1)`` for ``i`` in ``1..n-1``;
* ``ring``: the implication ring ``(-i, i+1)`` for ``i`` in ``1..n-1``,
  closed by ``(-n, 1)``, plus the positive chord ``(1, n//2)``: a cyclic
  part whose root propagates nothing and whose search is one decision.
  ``count_minimal`` runs in ``auto`` mode, which merges the whole ring
  into one variable (``counting._merge_equivalent``) and counts the unit
  left by its truth table: no decision, so the ring times the front end,
  the part's graph and Tarjan pass, and the merge.

The fourth, ``blocks``, is ``n // 12`` disjoint copies of one 12-variable
block: a 3-cycle forced true by a unit, a clause holding two of its
positive literals, so the first block settles the cycle facts, and an
acyclic chain.  Each copy is a part counted by its truth table, so it
times the per-part front end: the split, the facts and the tables.

Each family and size runs in a fresh interpreter, so the peak RSS it
prints is that count's own.  One line per run: the family, ``n``, the
decisions, the components, the seconds ``count_minimal`` took, the peak
RSS in MiB and the count.  Standard library only; run it from anywhere.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
FAMILIES = ("chain", "path", "ring", "blocks")
BLOCK = ((1,), (-1, 2), (-2, 3), (-3, 1), (1, 2, 4)) + tuple((-v, v + 1) for v in range(4, 12))


def clauses(family: str, n: int) -> tuple:
    if family == "blocks":
        return tuple(tuple(lit + 12 * copy if lit > 0 else lit - 12 * copy for lit in clause)
                     for copy in range(n // 12) for clause in BLOCK)
    if family == "chain":
        return tuple((-i, i + 1, i + 2) for i in range(1, n - 1)) + ((1,),)
    if family == "ring":
        return tuple((-i, i + 1) for i in range(1, n)) + ((-n, 1), (1, n // 2))
    return tuple((i, i + 1) for i in range(1, n))


def count_one(family: str, n: int) -> str:
    sys.path.insert(0, SRC)
    from mincount import CnfFormula, count_minimal

    formula = CnfFormula(clauses(family, n), n)
    start = time.perf_counter()
    result = count_minimal(formula)
    seconds = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (f"{family} n={n} decisions={result.stats.decisions} "
            f"components={result.stats.components} seconds={seconds:.3f} "
            f"peak_rss_mib={peak_mib:.1f} count={result.count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", type=int, nargs="+", help="variable counts, each at least 3")
    parser.add_argument("--family", choices=FAMILIES, action="append",
                        help="family to run (default: all)")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.sizes) < 3:
        parser.error("every size must be at least 3")
    families = args.family or list(FAMILIES)
    if args.one:
        print(count_one(families[0], args.sizes[0]))
        return 0
    for family in families:
        for n in args.sizes:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--one",
                            "--family", family, str(n)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
