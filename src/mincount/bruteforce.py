"""Brute-force ground truth by full truth-table enumeration.

These routines exist to cross-check the counting engine, so they stay as
close to the definitions as possible: enumerate every assignment, keep
the models, drop every model with a strictly smaller model below it.
"""

from __future__ import annotations

from .counting import CountResult, CountStats
from .formula import CnfFormula
from .sat import check_minimal

DEFAULT_VAR_LIMIT = 20


class VariableLimitError(ValueError):
    """Refusal to enumerate a formula with too many variables."""


class OracleDisagreementError(RuntimeError):
    """The two independent minimality tests disagreed on a model."""


def enumerate_models(formula: CnfFormula,
                     limit: int = DEFAULT_VAR_LIMIT) -> tuple[frozenset, ...]:
    """All satisfying total assignments over the occurring variables, each
    the set of its true variables.

    Enumeration order is binary counting over the sorted variable ids,
    all-false first.  Refuses formulas with more than ``limit`` occurring
    variables; a negative ``limit`` is a ``ValueError``.
    """
    if limit < 0:
        raise ValueError(f"the enumeration limit must be at least 0, got {limit}")
    variables = sorted(formula.variables())
    if len(variables) > limit:
        raise VariableLimitError(
            f"{len(variables)} variables exceed the enumeration limit of {limit}"
        )
    position = {var: i for i, var in enumerate(variables)}
    # Bit i of a candidate mask is the value of the i-th smallest variable.
    clause_masks = []
    for clause in formula.clauses:
        positive = 0
        negative = 0
        for lit in clause:
            if lit > 0:
                positive |= 1 << position[lit]
            else:
                negative |= 1 << position[-lit]
        clause_masks.append((positive, negative))
    models = []
    for mask in range(1 << len(variables)):
        for positive, negative in clause_masks:
            if not mask & positive and mask & negative == negative:
                break
        else:
            models.append(
                frozenset(var for var in variables if mask >> position[var] & 1)
            )
    return tuple(models)


def minimal_models_pairwise(models) -> tuple[frozenset, ...]:
    """Keep the models with no strictly smaller model among ``models``.

    Smaller means strict subset on the sets of true variables.  Checking
    candidates in size order against the already-kept minimal models is
    enough: any strictly smaller model sits above some minimal one.
    """
    ordered = sorted(models, key=lambda model: (len(model), sorted(model)))
    kept: list[frozenset] = []
    for candidate in ordered:
        if not any(smaller < candidate for smaller in kept):
            kept.append(candidate)
    return tuple(kept)


def count_minimal_brute(formula: CnfFormula, limit: int = DEFAULT_VAR_LIMIT) -> CountResult:
    """Minimal-model count by enumeration, double-checked per model.

    Every model the pairwise filter keeps is re-validated with the
    SAT-based minimality check; a disagreement between the two tests is
    an internal error and raises :class:`OracleDisagreementError`.
    """
    models = enumerate_models(formula, limit)
    minimal = minimal_models_pairwise(models)
    for model in minimal:
        if not check_minimal(formula, model):
            raise OracleDisagreementError(
                f"pairwise-minimal model {sorted(model)} rejected by the SAT-based check"
            )
    return CountResult(len(minimal), CountStats(mode="brute"))
