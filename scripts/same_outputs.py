"""Digest the command line's output on the benchmark's instances.

    python3 scripts/same_outputs.py [--src DIR] [--seed N]

For every workload of ``bench/workloads.py`` and its ``seed`` instances,
runs ``mincount.cli.run`` with ``--stats`` in the modes ``auto`` and
``general``, and prints per workload and mode two sha256s: the full one
over each run's exit code, stdout and stderr, and the counts-only one
over each run's exit code and ``s mc`` lines.  A last line gives both
totals over the workload lines.  Two checkouts print the same full
digests exactly when every count, every ``c stat`` line and every exit
code agree, so a refactor that must not change any output is checked by
running this at both and comparing:

    python3 scripts/same_outputs.py --src ../parent > before.txt
    python3 scripts/same_outputs.py > after.txt
    diff before.txt after.txt

A change that alters the search by design, and so its ``c stat`` lines,
must still print the same counts-only digests (the last column).

``--src`` names the checkout whose ``src/mincount`` runs (default: this
one); the instances always come from this checkout's ``bench``.
Standard library only; run it from anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
MODES = ("auto", "general")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=ROOT, help="checkout to run (default: this one)")
    parser.add_argument("--seed", type=int, default=0, help="instance seed (default: 0)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.path.insert(0, os.path.join(os.path.abspath(args.src), "src"))
    import workloads
    from mincount import cli

    print(f"mincount from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    totals = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            paths = []
            for instance in workloads.generate(name, args.seed):
                paths.append(os.path.join(scratch, instance.name + ".cnf"))
                with open(paths[-1], "w", encoding="utf-8") as handle:
                    handle.write(instance.dimacs())
            for mode in MODES:
                full, counts = hashlib.sha256(), hashlib.sha256()
                for path in paths:
                    out, err = io.StringIO(), io.StringIO()
                    code = cli.run(cli.RunConfig(path, mode=mode, stats=True), out, err)
                    counted = [line for line in out.getvalue().splitlines()
                               if line.startswith("s mc")]
                    for digest, texts in ((full, (str(code), out.getvalue(), err.getvalue())),
                                          (counts, (str(code), *counted))):
                        for text in texts:
                            digest.update(text.encode())
                            digest.update(b"\0")
                digests = (full.hexdigest(), counts.hexdigest())
                for total, digest in zip(totals, digests):
                    total.update(f"{name} {mode} {len(paths)} {digest}\n".encode())
                print(f"{name} {mode} {len(paths)} {' '.join(digests)}", flush=True)
    print(f"total {' '.join(total.hexdigest() for total in totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
