"""Command-line driver.

Reads a DIMACS CNF file, counts it in the chosen mode, and prints the
count in competition style: optional ``c stat`` lines followed by a
final ``s mc <count>`` line.

Exit codes: 0 success, 1 usage or parse error, 2 oracle check failure,
3 mode precondition violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .bruteforce import DEFAULT_VAR_LIMIT, VariableLimitError, count_minimal_brute
from .counting import _TABLE_VARS, MODE_ACYCLIC, MODE_GENERAL, copied_variables, count_minimal
from .depgraph import (build_dependency_graph, is_head_cycle_free,
                       strongly_connected_components, to_dot)
from .formula import ParseError, parse_dimacs
from .sat import _input_parts
from .transform import build_pair, write_pair_files

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_MODE = 3

MODES = ("auto", "acyclic", "general", "brute")


@dataclass
class RunConfig:
    input_path: str
    mode: str = "auto"
    check: bool = False
    stats: bool = False
    emit_pair: str | None = None
    emit_depgraph: str | None = None
    oracle_limit: int = DEFAULT_VAR_LIMIT


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mincount",
        description="Count the minimal models of a DIMACS CNF formula.",
    )
    parser.add_argument("input", help="path to a DIMACS CNF file, or - for stdin")
    parser.add_argument(
        "--mode", choices=MODES, default="auto",
        help=f"auto counts a part of at most {_TABLE_VARS} variables by truth table and "
             "copies the other parts' cyclic variables; general copies every variable, "
             "acyclic none; brute runs the oracle (default: auto)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="cross-check the count against the brute-force oracle",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print search statistics as 'c stat' lines",
    )
    parser.add_argument(
        "--emit-pair", metavar="DIR",
        help="write the whole input's pair under the chosen mode's copy rule "
             "as DIMACS files into DIR",
    )
    parser.add_argument(
        "--emit-depgraph", metavar="FILE",
        help="write the dependency graph in DOT format to FILE",
    )
    parser.add_argument(
        "--oracle-limit", type=int, default=DEFAULT_VAR_LIMIT, metavar="N",
        help=f"variable cap for brute-force enumeration (default: {DEFAULT_VAR_LIMIT})",
    )
    return parser


def run(config: RunConfig, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    if config.oracle_limit < 0:
        print(f"error: argument --oracle-limit: must be at least 0, got {config.oracle_limit}",
              file=err)
        return EXIT_USAGE
    try:
        if config.input_path == "-":
            text = sys.stdin.read()
        else:
            with open(config.input_path, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=err)
        return EXIT_USAGE
    try:
        formula = parse_dimacs(text)
    except ParseError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE

    # The count takes each part's own graph; only these outputs read the
    # input's, renumbered once to ids ``1..k`` so that huge sparse ids cost
    # nothing, and Tarjan runs on it only for the auto pair and the oracle's stats.
    force = config.mode if config.mode in (MODE_ACYCLIC, MODE_GENERAL) else None
    brute = config.mode == "brute"
    graph = cycles = variables = None
    if config.emit_depgraph or config.emit_pair or brute and config.stats:
        variables, clauses = (_input_parts(formula.clauses, False) or [([], [])])[0]
        graph = build_dependency_graph(clauses, len(variables))
    if config.emit_pair and force is None or brute and config.stats:
        cycles = {variables[var - 1]: number
                  for var, number in strongly_connected_components(graph).items()}
    try:
        if config.emit_depgraph:
            with open(config.emit_depgraph, "w") as handle:
                handle.write(to_dot(graph, variables))
        if config.emit_pair:
            copied = copied_variables(cycles, variables, force)
            write_pair_files(build_pair(formula.clauses, formula.num_original_vars, copied),
                             config.emit_pair)
    except (OSError, OverflowError, MemoryError) as exc:  # a header ``n`` too large
        print(f"error: cannot write output: {str(exc) or 'out of memory'}", file=err)
        return EXIT_USAGE

    if brute:
        try:
            result = count_minimal_brute(formula, limit=config.oracle_limit)
        except VariableLimitError as exc:
            print(f"error: {exc}", file=err)
            return EXIT_MODE
    else:
        try:
            result = count_minimal(formula, force_mode=force)
        except ValueError as exc:
            print(f"error: {exc}", file=err)
            return EXIT_MODE

    if config.stats:
        stats = result.stats.as_dict()
        if brute:  # the oracle reads neither the graph nor the parts
            del stats["vars"]
            stats["acyclic"] = not cycles
            stats["head_cycle_free"] = is_head_cycle_free(formula.clauses, cycles)
            stats["vars"] = len(variables)
        stats["clauses"] = len(formula.clauses)
        stats["tautologies_dropped"] = formula.parse_stats.tautologies_dropped
        for key, value in stats.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"c stat {key} {value}", file=out)

    status = EXIT_OK
    if config.check:
        expected = result.count  # the oracle's own count needs no second run
        if not brute:
            try:
                expected = count_minimal_brute(formula, limit=config.oracle_limit).count
            except VariableLimitError as exc:
                print(f"error: {exc}", file=err)
                return EXIT_MODE
        if expected != result.count:
            print(f"c check FAIL expected {expected} got {result.count}", file=out)
            status = EXIT_CHECK_FAILED
        else:
            print("c check OK", file=out)

    print(f"s mc {result.count}", file=out)
    return status


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = RunConfig(
        input_path=args.input,
        mode=args.mode,
        check=args.check,
        stats=args.stats,
        emit_pair=args.emit_pair,
        emit_depgraph=args.emit_depgraph,
        oracle_limit=args.oracle_limit,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
