"""Reference how-to candidate enumeration: every Limit checked once per scope row.

This is the row-at-a-time loop ``HowToEngine.enumerate_candidates`` ran
before it checked each update function once per *distinct* pre-update value.
It is kept only as the differential oracle of
``tests/core/test_howto_enumeration.py``: the two must agree on every
candidate's attribute, function, label and value type.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.howto import CandidateUpdate
from repro.core.queries import HowToQuery
from repro.core.updates import MultiplyBy, SetTo, UpdateFunction
from repro.exceptions import OptimizationError
from repro.ml.discretize import Discretizer
from repro.relational.relation import Relation
from repro.relational.types import IntegerDomain


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _admissible_per_row(
    query: HowToQuery, attribute: str, pre_values: Sequence[Any], function: UpdateFunction
) -> bool:
    for pre in pre_values:
        if pre is None:
            continue
        if not query.admits(attribute, pre, function.apply(pre)):
            return False
    return True


def enumerate_candidates_per_row(
    query: HowToQuery, view: Relation, scope_mask: np.ndarray
) -> list[CandidateUpdate]:
    """The candidate sets ``S_{B_i}``, checking each scope row separately."""
    candidates: list[CandidateUpdate] = []
    scope_rows = np.flatnonzero(np.asarray(scope_mask, dtype=bool))
    for attribute in query.update_attributes:
        pre_values = [view.column_view(attribute)[i] for i in scope_rows]
        domain = view.schema.domain(attribute)
        lower = upper = allowed = None
        for limit in query.limits_for(attribute):
            if limit.allowed_values is not None:
                allowed = list(limit.allowed_values)
            if limit.lower is not None:
                lower = limit.lower if lower is None else max(lower, limit.lower)
            if limit.upper is not None:
                upper = limit.upper if upper is None else min(upper, limit.upper)
        if allowed is not None:
            values = list(allowed)
        elif domain.is_numeric:
            observed = [float(v) for v in view.column_view(attribute) if v is not None]
            low = lower if lower is not None else (min(observed) if observed else 0.0)
            high = upper if upper is not None else (max(observed) if observed else 1.0)
            if high <= low:
                high = low + 1.0
            discretizer = Discretizer(n_buckets=max(1, query.candidate_buckets)).fit(
                [low, high]
            )
            values = list(discretizer.bucket_centers())
            if isinstance(domain, IntegerDomain):
                values = sorted({int(round(v)) for v in values})
        else:
            values = list(domain.values()) if domain.is_finite else sorted(
                {v for v in view.column_view(attribute) if v is not None}
            )
        for value in values:
            if not domain.contains(value):
                continue
            function: UpdateFunction = SetTo(value)
            if _admissible_per_row(query, attribute, pre_values, function):
                candidates.append(CandidateUpdate(attribute, function, f"= {_fmt(value)}"))
        if domain.is_numeric:
            for factor in query.candidate_multipliers:
                function = MultiplyBy(factor)
                if _admissible_per_row(query, attribute, pre_values, function):
                    candidates.append(
                        CandidateUpdate(attribute, function, f"{factor}x Pre({attribute})")
                    )
    if not candidates:
        raise OptimizationError("no admissible candidate updates; relax the Limit constraints")
    return candidates
