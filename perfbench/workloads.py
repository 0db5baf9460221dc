"""The four served workloads, as seeded request streams.

Every stream is a pure function of the seed: the same seed yields the same
requests in the same order, so an untraced and a traced run (or a reference
replay) see identical traffic.  The server only ever receives the generated
query text and column values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: (template, constant grid) pairs shared by ``whatif-sweep`` and ``batch-sharded``
STATUS_GRID = tuple(f"{1.0 + 3.0 * i / 399:.4f}" for i in range(400))
AMOUNT_GRID = tuple(f"{500.0 + 9500.0 * i / 399:.2f}" for i in range(400))
SWEEP_TEMPLATES = (
    ("USE Credit UPDATE(Status) = {} OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1", STATUS_GRID),
    ("USE Credit UPDATE(CreditAmount) = {} OUTPUT AVG(POST(Credit))", AMOUNT_GRID),
    ("USE Credit UPDATE(Status) = {} OUTPUT AVG(POST(CreditAmount))", STATUS_GRID),
    (
        "USE Credit WHEN Housing >= 2 UPDATE(Status) = {} "
        "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
        STATUS_GRID,
    ),
)
HOWTO_TEMPLATE = (
    "USE Credit HOWTOUPDATE Status, Housing "
    "LIMIT {:.2f} <= POST(Status) <= {:.2f} AND {:.2f} <= POST(Housing) <= {:.2f} "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
#: the first template of each sweep, prepared by the server before it binds
WARM_QUERIES = tuple(template.format(grid[0]) for template, grid in SWEEP_TEMPLATES)


@dataclass(frozen=True)
class Request:
    """One HTTP request of a stream.

    ``kind`` is ``whatif`` / ``howto`` (``POST /v1/query``), ``batch``
    (``POST /v1/batch`` of ``texts``) or ``update`` (``POST /v1/update``
    committing the ``commit``-th perturbation of ``Credit.Status``).
    """

    kind: str
    texts: tuple[str, ...] = ()
    commit: int = -1

    @property
    def n_items(self) -> int:
        return len(self.texts) if self.kind == "batch" else 1


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    server_args: tuple[str, ...] = ()
    #: requests sent before timing starts (caches fill, lazy set-up finishes)
    warmup_requests: int = 100
    #: distinct answers compared against the in-process reference per run
    check_sample: int = 100

    def requests(self, seed: int, dataset) -> Iterator[Request]:
        """The endless seeded request stream (``dataset`` is the served data)."""
        return _STREAMS[self.name](seed, dataset)


def _sweep_text(rng: random.Random) -> str:
    template, grid = SWEEP_TEMPLATES[rng.randrange(len(SWEEP_TEMPLATES))]
    return template.format(grid[rng.randrange(len(grid))])


def _whatif_sweep(seed: int, dataset) -> Iterator[Request]:
    rng = random.Random(seed)
    while True:
        yield Request("whatif", (_sweep_text(rng),))


def _howto_mix(seed: int, dataset) -> Iterator[Request]:
    from repro.lang.unparse import unparse
    from repro.workloads import WorkloadGenerator

    rng = random.Random(seed)
    generator = WorkloadGenerator.for_dataset(dataset, "Credit", seed=seed)
    while True:
        if rng.random() < 2.0 / 3.0:
            bounds = (
                rng.uniform(1.0, 2.0),
                rng.uniform(3.0, 4.0),
                rng.uniform(1.0, 1.8),
                rng.uniform(2.2, 3.0),
            )
            yield Request("howto", (HOWTO_TEMPLATE.format(*bounds),))
        else:
            yield Request("whatif", (unparse(generator.what_if()),))


#: the dashboard of ``update-mix``: 4 templates x 16 constants (fits the result cache)
DASHBOARD = tuple(
    template.format(grid[step * 26])
    for template, grid in SWEEP_TEMPLATES
    for step in range(16)
)
UPDATE_EVERY = 8


def _update_mix(seed: int, dataset) -> Iterator[Request]:
    rng = random.Random(seed)
    n = 0
    while True:
        n += 1
        if n % UPDATE_EVERY == 0:
            yield Request("update", commit=n // UPDATE_EVERY - 1)
        else:
            yield Request("whatif", (DASHBOARD[rng.randrange(len(DASHBOARD))],))


def commit_values(dataset, seed: int, commit: int) -> tuple[float, ...]:
    """``Credit.Status`` for the ``commit``-th update: 5% of rows redrawn in 1..4."""
    base = np.asarray(dataset.database["Credit"].column_view("Status"), dtype=float)
    rng = np.random.default_rng([seed, commit])
    rows = rng.choice(len(base), size=max(1, len(base) // 20), replace=False)
    values = base.copy()
    values[rows] = rng.integers(1, 5, size=len(rows))
    return tuple(float(v) for v in values)


BATCH_SIZE = 6


def _batch_sharded(seed: int, dataset) -> Iterator[Request]:
    rng = random.Random(seed)
    while True:
        yield Request("batch", tuple(_sweep_text(rng) for _ in range(BATCH_SIZE)))
        yield Request("whatif", (_sweep_text(rng),))


_STREAMS = {
    "whatif-sweep": _whatif_sweep,
    "howto-mix": _howto_mix,
    "update-mix": _update_mix,
    "batch-sharded": _batch_sharded,
}

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "whatif-sweep",
            rows=4_000,
            warmup_requests=400,
            check_sample=150,
        ),
        Workload(
            "howto-mix",
            rows=4_000,
            # long enough that every random what-if plan has fitted its estimator
            warmup_requests=120,
            check_sample=60,
        ),
        Workload(
            "update-mix",
            rows=4_000,
            warmup_requests=100,
            check_sample=80,
        ),
        Workload(
            "batch-sharded",
            rows=20_000,
            server_args=("--execution", "processes", "--shards", "2"),
            warmup_requests=40,
            check_sample=60,
        ),
    )
}
