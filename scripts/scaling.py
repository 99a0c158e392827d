"""Time ``count_minimal`` on one large connected part as it grows.

    python3 scripts/scaling.py 500 1000 [--family chain|path|ring ...]

Three families of one connected part over ``n`` variables:

* ``chain``: the clauses ``(-i, i+1, i+2)`` for ``i`` in ``1..n-2`` and the
  unit ``(1)``, an acyclic chain whose every node is one wide component;
* ``path``: the positive path ``(i, i+1)`` for ``i`` in ``1..n-1``;
* ``ring``: the implication ring ``(-i, i+1)`` for ``i`` in ``1..n-1``,
  closed by ``(-n, 1)``, plus the positive chord ``(1, n//2)``: a cyclic
  part whose root propagates nothing and whose search is one decision.

Each family and size runs in a fresh interpreter, so the peak RSS it
prints is that count's own.  One line per run: the family, ``n``, the
decisions, the seconds ``count_minimal`` took, the peak RSS in MiB and
the count.  Standard library only; run it from anywhere.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
FAMILIES = ("chain", "path", "ring")


def clauses(family: str, n: int) -> tuple:
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
    return (f"{family} n={n} decisions={result.stats.decisions} seconds={seconds:.3f} "
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
