"""Differential test: distinct-value candidate enumeration equals the per-row oracle.

``HowToEngine.enumerate_candidates`` checks every Limit once per distinct
non-null pre-update value of the scope; ``howto_oracle`` checks it once per
scope row.  Over random columns (with duplicates and nulls), domains, Limit
combinations and When scopes — empty ones included — both must yield the
same candidates in the same order, down to the type of each update value,
or both must raise ``OptimizationError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, HowToEngine, HowToQuery, LimitConstraint
from repro.core.updates import MultiplyBy
from repro.exceptions import OptimizationError
from repro.relational import (
    TRUE,
    CategoricalDomain,
    Database,
    IntegerDomain,
    NumericDomain,
    Relation,
    UseSpec,
    evaluate_mask,
    pre,
)

from .howto_oracle import enumerate_candidates_per_row

BACKENDS = ("columnar", "rows")

#: (domain, strategy of one non-null column value)
DOMAINS = {
    "integer": (IntegerDomain(0, 6), st.integers(0, 6)),
    "numeric": (
        NumericDomain(-10.0, 10.0),
        st.one_of(
            st.sampled_from([-7.5, -1.25, 0.0, 0.5, 3.0, 9.75]),
            st.floats(-10.0, 10.0, allow_nan=False),
        ),
    ),
    "categorical": (CategoricalDomain(("lo", "mid", "hi")), st.sampled_from(["lo", "mid", "hi"])),
    "categorical-numeric": (CategoricalDomain((1, 2, 4, 8)), st.sampled_from([1, 2, 4, 8])),
}

bounds = st.one_of(st.none(), st.floats(-12.0, 12.0, allow_nan=False))
# IN lists mix domain values with values outside every domain above
in_values = st.lists(
    st.sampled_from([0, 1, 2, 3, 4, 6, 8, 0.5, 3.0, -1.25, "lo", "hi", 99, "zzz", 2.5]),
    min_size=1,
    max_size=4,
    unique_by=lambda v: (type(v), v),
)


def limit_for(attribute: str):
    range_limit = st.builds(
        lambda lower, upper: LimitConstraint(attribute, lower=lower, upper=upper),
        bounds,
        bounds,
    ).filter(lambda limit: limit.lower is not None or limit.upper is not None)
    in_limit = in_values.map(
        lambda values: LimitConstraint(attribute, allowed_values=tuple(values))
    )
    l1_limit = st.floats(0.0, 10.0, allow_nan=False).map(
        lambda budget: LimitConstraint(attribute, max_l1=budget)
    )
    return st.one_of(range_limit, in_limit, l1_limit)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    kinds = {name: draw(st.sampled_from(sorted(DOMAINS))) for name in ("B", "C")}
    columns = {"ID": list(range(n)), "S": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))}
    domains = {"ID": IntegerDomain(0, n), "S": IntegerDomain(0, 3)}
    for name, kind in kinds.items():
        domain, value = DOMAINS[kind]
        # with nulls the column is an object array; without, float64 or object
        cell = st.one_of(st.none(), value) if draw(st.booleans()) else value
        columns[name] = draw(st.lists(cell, min_size=n, max_size=n))
        domains[name] = domain
    columns["Y"] = [0.0] * n
    domains["Y"] = NumericDomain(0.0, 1.0)
    update_attributes = draw(st.sampled_from([["B"], ["C"], ["B", "C"]]))
    limits = []
    for attribute in update_attributes:
        limits += draw(st.lists(limit_for(attribute), max_size=3))
    k = draw(st.integers(-1, 3))  # k = -1 leaves the scope empty
    when = draw(st.sampled_from([TRUE, pre("S") <= k, pre("S") == k]))
    query = HowToQuery(
        use=UseSpec("T"),
        update_attributes=update_attributes,
        objective_attribute="Y",
        when=when,
        limits=limits,
        candidate_buckets=draw(st.integers(1, 6)),
        candidate_multipliers=tuple(
            draw(st.lists(st.sampled_from([0.5, 0.9, 1.1, 2.0]), max_size=3, unique=True))
        ),
    )
    return columns, domains, query


def _value(candidate):
    function = candidate.function
    return function.factor if isinstance(function, MultiplyBy) else function.value


def _outcome(enumerate_fn, query, view, scope_mask):
    try:
        candidates = enumerate_fn(query, view, scope_mask)
    except OptimizationError as error:
        return ("OptimizationError", str(error))
    return [(c.attribute, c.function, c.label, type(_value(c))) for c in candidates]


@pytest.mark.parametrize("backend", BACKENDS)
@given(case=cases())
@settings(max_examples=200, deadline=None)
def test_enumeration_matches_per_row_oracle(backend, case):
    columns, domains, query = case
    relation = Relation.from_columns("T", columns, key=["ID"], domains=domains, backend=backend)
    engine = HowToEngine(Database([relation]), config=EngineConfig(backend=backend))
    view = query.use.build(engine.database)
    scope_mask = evaluate_mask(query.when, view)
    expected = _outcome(enumerate_candidates_per_row, query, view, scope_mask)
    assert _outcome(engine.enumerate_candidates, query, view, scope_mask) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_scope_admits_every_candidate(backend):
    columns = {"ID": [0, 1, 2], "S": [0, 1, 2], "B": [1.0, 2.0, 3.0], "Y": [0.0] * 3}
    relation = Relation.from_columns(
        "T", columns, key=["ID"], domains={"B": NumericDomain(0.0, 5.0)}, backend=backend
    )
    engine = HowToEngine(Database([relation]), config=EngineConfig(backend=backend))
    query = HowToQuery(
        use=UseSpec("T"),
        update_attributes=["B"],
        objective_attribute="Y",
        when=pre("S") < 0,
        limits=[LimitConstraint("B", max_l1=0.0)],
        candidate_buckets=3,
        candidate_multipliers=(2.0,),
    )
    view = query.use.build(engine.database)
    scope_mask = evaluate_mask(query.when, view)
    assert not scope_mask.any()
    # no row to violate the L1 budget of 0: the limit holds vacuously
    labels = [c.label for c in engine.enumerate_candidates(query, view, scope_mask)]
    assert labels == ["= 1.333", "= 2", "= 2.667", "2.0x Pre(B)"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_nothing_admissible_raises(backend):
    columns = {"ID": [0, 1], "B": ["lo", None], "Y": [0.0, 0.0]}
    relation = Relation.from_columns(
        "T", columns, key=["ID"], domains={"B": CategoricalDomain(("lo", "hi"))}, backend=backend
    )
    engine = HowToEngine(Database([relation]), config=EngineConfig(backend=backend))
    query = HowToQuery(
        use=UseSpec("T"),
        update_attributes=["B"],
        objective_attribute="Y",
        limits=[LimitConstraint("B", lower=0.0)],
    )
    view = query.use.build(engine.database)
    with pytest.raises(OptimizationError, match="no admissible candidate updates"):
        engine.enumerate_candidates(query, view, evaluate_mask(query.when, view))
