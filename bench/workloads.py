"""Seeded instance generators for the benchmark workloads.

Standard library only, and independent of ``mincount``.  Every instance
is a base formula presented under a seeded renaming: variable ids are
permuted and clause and literal order shuffled.  The same seed always
yields the same instances.

Why each workload exists (README.md has the metric map):

* ``general-3cnf``: random 3-CNF with a giant SCC; propagation and
  component split dominate and the SAT base cases are many but tiny.
* ``acyclic-random``: acyclic by construction, so the fast path runs
  with no justification side and no SAT; decisions grow with the count.
* ``union-mixed``: thousands of variables in 12-variable acyclic blocks,
  every fifth with a planted 3-cycle, so the whole instance takes the
  general path while most copy variables are unnecessary.
* ``long-rings``: long implication cycles where the front end and SAT
  carry a large share and search is tiny; the count is ``2**pairs``.

The two random families draw their base formulas from a fixed stream and
let the seed choose only the renaming.  Their running time is heavy-tailed
(one formula in forty can cost ten times the mean), so fresh formulas
per seed would make a batch's time depend more on the seed than on the
program.  The structured families vary little per instance, so the seed
draws their base formulas too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Instance:
    name: str
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    meta: dict = field(default_factory=dict)

    def dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, clause)) + " 0" for clause in self.clauses)
        return "\n".join(lines) + "\n"


def has_cycle(num_vars: int, clauses) -> bool:
    """Whether the dependency graph (arc ``a -> b`` for ``-a`` and ``b``
    in one clause) has a directed cycle; Kahn's algorithm."""
    succ = {v: set() for v in range(1, num_vars + 1)}
    for clause in clauses:
        for a in clause:
            if a < 0:
                succ[-a].update(b for b in clause if b > 0)
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for b in targets:
            indegree[b] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return seen < num_vars


def _forward_clause(rng, variables, rank, length, need_positive):
    """Clause whose negated variables precede its positive ones in ``rank``."""
    chosen = sorted(rng.sample(variables, length), key=rank.__getitem__)
    split = rng.randint(0, length - 1 if need_positive else length)
    return tuple(-v for v in chosen[:split]) + tuple(chosen[split:])


def general_3cnf(rng: random.Random, num_vars=30, num_clauses=60) -> Instance:
    variables = list(range(1, num_vars + 1))
    while True:
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3))
            for _ in range(num_clauses)
        )
        if has_cycle(num_vars, clauses):
            return Instance("", num_vars, clauses)


def acyclic_random(rng: random.Random, num_vars=60, num_clauses=75) -> Instance:
    """Clauses of 2-3 literals whose arcs all point forward in ``order``."""
    variables = list(range(1, num_vars + 1))
    order = variables[:]
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    clauses = tuple(
        _forward_clause(rng, variables, rank, rng.randint(2, 3), need_positive=False)
        for _ in range(num_clauses)
    )
    return Instance("", num_vars, clauses, {"order": order})


BLOCK_VARS = 12
BLOCK_CLAUSES = 14
CYCLE_EVERY = 5


def union_mixed(rng: random.Random, num_blocks=100) -> Instance:
    """Variable-disjoint union of 12-variable blocks.

    Each block's clauses point forward in a per-block order and keep a
    positive literal; every fifth block also gets the implication cycle
    ``a -> b -> c -> a``, which makes the whole instance cyclic.
    """
    clauses = []
    blocks = []
    for block in range(num_blocks):
        variables = list(range(block * BLOCK_VARS + 1, (block + 1) * BLOCK_VARS + 1))
        order = variables[:]
        rng.shuffle(order)
        rank = {v: i for i, v in enumerate(order)}
        clauses += [
            _forward_clause(rng, variables, rank, rng.randint(2, 3), need_positive=True)
            for _ in range(BLOCK_CLAUSES)
        ]
        if block % CYCLE_EVERY == CYCLE_EVERY - 1:
            a, b, c = rng.sample(variables, 3)
            clauses += [(-a, b), (-b, c), (-c, a)]
        blocks.append(variables)
    return Instance("", num_blocks * BLOCK_VARS, tuple(clauses), {"blocks": blocks})


def long_rings(rng: random.Random, num_rings=12, ring_vars=200) -> Instance:
    """Disjoint implication cycles ``x1 -> x2 -> ... -> x1``.

    ``pairs`` disjoint pairs of rings are joined by one positive binary
    clause, so exactly one ring of each pair is true in a minimal model (2
    choices); every other ring gets a positive chord, which forces it
    true (1 choice).  The minimal-model count is therefore ``2**pairs``.
    """
    rings = list(range(num_rings))
    rng.shuffle(rings)
    pairs = rng.randint(1, max(1, num_rings // 4))

    def var(ring, pos):
        return ring * ring_vars + pos % ring_vars + 1

    clauses = [
        (-var(ring, pos), var(ring, pos + 1))
        for ring in range(num_rings) for pos in range(ring_vars)
    ]
    for k in range(pairs):
        a, b = rings[2 * k], rings[2 * k + 1]
        clauses.append((var(a, rng.randrange(ring_vars)), var(b, rng.randrange(ring_vars))))
    for ring in rings[2 * pairs:]:
        i, j = rng.sample(range(ring_vars), 2)
        clauses.append((var(ring, i), var(ring, j)))
    return Instance("", num_rings * ring_vars, tuple(clauses), {"pairs": pairs})


def rename(instance: Instance, rng: random.Random, name: str) -> Instance:
    """The same formula under a random variable permutation and order."""
    image = list(range(1, instance.num_vars + 1))
    rng.shuffle(image)

    def lit(x):
        return image[x - 1] if x > 0 else -image[-x - 1]

    clauses = [tuple(rng.sample([lit(x) for x in c], len(c))) for c in instance.clauses]
    rng.shuffle(clauses)
    meta = dict(instance.meta)
    if "order" in meta:
        meta["order"] = [lit(v) for v in meta["order"]]
    if "blocks" in meta:
        meta["blocks"] = [sorted(lit(v) for v in block) for block in meta["blocks"]]
    return Instance(name, instance.num_vars, tuple(clauses), meta)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    instances: int
    fixed_base: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("general-3cnf", general_3cnf, 32, fixed_base=True),
        Workload("acyclic-random", acyclic_random, 32, fixed_base=True),
        Workload("union-mixed", union_mixed, 22, fixed_base=False),
        Workload("long-rings", long_rings, 22, fixed_base=False),
    )
}


def generate(workload: str, seed: int, **sizes) -> list[Instance]:
    """The workload's instances for ``seed``; each has its own stream.

    ``sizes`` overrides the generator's size parameters (tests use small
    instances).
    """
    spec = WORKLOADS[workload]
    out = []
    for index in range(spec.instances):
        base_seed = "base" if spec.fixed_base else seed
        base = spec.make(random.Random(f"{workload}/{base_seed}/{index}"), **sizes)
        renaming = random.Random(f"{workload}/{seed}/{index}/rename")
        out.append(rename(base, renaming, f"{workload}-{index:03d}"))
    return out
