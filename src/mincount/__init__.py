"""Exact minimal-model counting for CNF formulas."""

from .bruteforce import (
    DEFAULT_VAR_LIMIT,
    OracleDisagreementError,
    VariableLimitError,
    count_minimal_brute,
    enumerate_models,
    minimal_models_pairwise,
)
from .counting import (
    MAX_OCCURRENCE,
    MIN_ID,
    MODE_ACYCLIC,
    MODE_GENERAL,
    BranchPolicy,
    CountResult,
    CountStats,
    count_minimal,
)
from .depgraph import (
    build_dependency_graph,
    is_head_cycle_free,
    strongly_connected_components,
    to_dot,
)
from .formula import (
    CnfFormula,
    ParseError,
    evaluate,
    parse_dimacs,
    write_dimacs,
)
from .sat import check_minimal, solve
from .transform import build_pair

__version__ = "0.1.0"

__all__ = [
    "BranchPolicy",
    "CnfFormula",
    "CountResult",
    "CountStats",
    "DEFAULT_VAR_LIMIT",
    "MAX_OCCURRENCE",
    "MIN_ID",
    "MODE_ACYCLIC",
    "MODE_GENERAL",
    "OracleDisagreementError",
    "ParseError",
    "VariableLimitError",
    "build_dependency_graph",
    "build_pair",
    "check_minimal",
    "count_minimal",
    "count_minimal_brute",
    "enumerate_models",
    "evaluate",
    "is_head_cycle_free",
    "minimal_models_pairwise",
    "parse_dimacs",
    "solve",
    "strongly_connected_components",
    "to_dot",
    "write_dimacs",
]
