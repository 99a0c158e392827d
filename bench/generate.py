"""Write a workload's instances and their independently recomputed counts.

    python3 bench/generate.py --workload NAME --seed N --out DIR

Writes ``DIR/<instance>.cnf`` and ``DIR/manifest.json``.  ``run.py``
starts this as a child process, so neither generation nor the
recomputation below touches the measuring process's time or peak RSS.

The expected counts take a different road than the measured CLI run:

* ``union-mixed``: the brute-force oracle on each connected component
  (at most 12 variables), multiplied together;
* ``acyclic-random``: the general path, forced;
* ``general-3cnf``: the general path with decomposition off;
* ``long-rings``: ``2**pairs`` from the construction, without counting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from mincount import CnfFormula, count_minimal, count_minimal_brute  # noqa: E402


def components(clauses):
    """Clause groups of the connected components of the variable graph."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for clause in clauses:
        first = find(abs(clause[0]))
        for lit in clause[1:]:
            parent[find(abs(lit))] = first
    groups = {}
    for clause in clauses:
        groups.setdefault(find(abs(clause[0])), []).append(clause)
    return list(groups.values())


def oracle_product(clauses) -> int:
    """Product of the oracle counts of the variable-disjoint components."""
    product = 1
    for part in components(clauses):
        ids = {v: i for i, v in enumerate(sorted({abs(x) for c in part for x in c}), 1)}
        renamed = tuple(tuple(ids[abs(x)] * (1 if x > 0 else -1) for x in c) for c in part)
        product *= count_minimal_brute(CnfFormula(renamed, len(ids))).count
    return product


def expected_count(workload: str, instance: workloads.Instance) -> int:
    if workload == "long-rings":
        return 2 ** instance.meta["pairs"]
    if workload == "union-mixed":
        return oracle_product(instance.clauses)
    formula = CnfFormula(instance.clauses, instance.num_vars)
    if workload == "acyclic-random":
        return count_minimal(formula, force_mode="general").count
    return count_minimal(formula, use_decomposition=False).count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    entries = []
    for instance in workloads.generate(args.workload, args.seed):
        path = os.path.join(args.out, instance.name + ".cnf")
        with open(path, "w") as handle:
            handle.write(instance.dimacs())
        entries.append({
            "name": instance.name,
            "path": path,
            "vars": instance.num_vars,
            "clauses": len(instance.clauses),
            "expected": expected_count(args.workload, instance),
        })
    with open(os.path.join(args.out, "manifest.json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "instances": entries}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
