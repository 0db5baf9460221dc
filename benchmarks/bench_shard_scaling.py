"""Shard-parallel execution: process workers vs the single-process cold path.

The 100-query repeated-template what-if suite of the service benchmark
(Figure 12 Status/Credit template, varying update constants) on German-Syn
4000, three ways:

* **cold single-process** — 100 ``HypeR.what_if()`` calls, each rebuilding
  the view, the DAG projection, the block decomposition and the regressors;
* **1 shard worker** — the same suite through
  ``HypeRService(execution="processes", n_shards=1)``: the full shard
  pipeline (broadcast, per-shard evaluation, merge) without parallelism;
* **4 shard workers** — ``n_shards=4``: the database is partitioned along
  block-decomposition boundaries, each worker owns a quarter of the rows for
  prediction/accumulation and keeps its own plan caches, and the parent
  merges partials into exact answers.

Pool start-up (fork + zero-copy shared-memory snapshot hand-off) is measured
separately from the suite — the pool is persistent and its start cost is paid
once per service lifetime, not per query or per generation — and the shipped
broadcast bytes are recorded alongside the timings.

Each pool size times the suite ``N_REPEATS`` times and reports the median,
so one scheduler hiccup cannot flip the comparison.  The pools run with the
result cache off (``result_cache_size=0``): every repeat does the same work,
instead of later repeats answering from the cache.

Asserts the acceptance criteria of the zero-copy/fused-kernel issue: the
4-worker pool is >= 2x faster than cold single-process **and no slower than
the 1-worker pool** (scale-out must not anti-scale; medians compared), and
the shard-merged answers are **bitwise identical** (max |diff| == 0.0) to the
unsharded path on both relational backends.  Results go to
``BENCH_shard.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from benchmarks.conftest import fmt, print_table
from repro import EngineConfig, HypeR, HypeRService, WhatIfQuery
from repro.core import AttributeUpdate, MultiplyBy
from repro.datasets import make_german_syn
from repro.relational import post

N_ROWS = 4_000
N_QUERIES = 100
N_WORKERS = 4
#: timed suite runs per pool size; the gate compares their medians
N_REPEATS = 5

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _suite(dataset) -> list[WhatIfQuery]:
    """100 parameter variants of one what-if template (shared logical plan)."""
    return [
        WhatIfQuery(
            use=dataset.default_use,
            updates=[AttributeUpdate("Status", MultiplyBy(1.0 + 0.005 * i))],
            output_attribute="Credit",
            output_aggregate="count",
            for_clause=(post("Credit") == 1),
        )
        for i in range(N_QUERIES)
    ]


def _run_backend(backend: str) -> dict:
    config = EngineConfig(regressor="linear", random_state=0, backend=backend)
    dataset = make_german_syn(N_ROWS, seed=7)
    queries = _suite(dataset)

    cold_session = HypeR(dataset.database, dataset.causal_dag, config)
    started = time.perf_counter()
    cold_results = [cold_session.what_if(q) for q in queries]
    cold_seconds = time.perf_counter() - started

    shard_samples = {}
    start_timings = {}
    broadcast_bytes = {}
    shard_results = None
    pool_mode = None
    for n_shards in (1, N_WORKERS):
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            config,
            execution="processes",
            n_shards=n_shards,
            result_cache_size=0,
        )
        try:
            started = time.perf_counter()
            service.start_pool()
            start_timings[n_shards] = time.perf_counter() - started
            # One broadcast query warms every worker's plan caches (view,
            # estimator fit, fused kernels) so both pool sizes enter the
            # timed suite in the same steady state a serving process lives in.
            service.execute(queries[0])
            shard_samples[n_shards] = []
            for _ in range(N_REPEATS):
                started = time.perf_counter()
                results = service.execute_many(queries)
                shard_samples[n_shards].append(time.perf_counter() - started)
            pool_stats = service.stats()["pool"]
            broadcast_bytes[n_shards] = (
                pool_stats["bytes_to_workers"] + pool_stats["bytes_from_workers"]
            )
            if n_shards == N_WORKERS:
                shard_results = results
                pool_mode = pool_stats["mode"]
        finally:
            service.close()

    max_diff = max(
        abs(a.value - b.value) for a, b in zip(cold_results, shard_results)
    )
    shard_timings = {n: statistics.median(t) for n, t in shard_samples.items()}
    return {
        "backend": backend,
        "cold_seconds": cold_seconds,
        "shard1_seconds": shard_timings[1],
        "shard4_seconds": shard_timings[N_WORKERS],
        "shard1_samples_seconds": shard_samples[1],
        "shard4_samples_seconds": shard_samples[N_WORKERS],
        "pool_start1_seconds": start_timings[1],
        "pool_start4_seconds": start_timings[N_WORKERS],
        "broadcast_bytes_shard1": broadcast_bytes[1],
        "broadcast_bytes_shard4": broadcast_bytes[N_WORKERS],
        "cold_qps": N_QUERIES / cold_seconds,
        "shard4_qps": N_QUERIES / shard_timings[N_WORKERS],
        "speedup_4_workers": cold_seconds / shard_timings[N_WORKERS],
        "max_abs_diff": max_diff,
        "pool_mode": pool_mode,
    }


def test_shard_scaling(benchmark):
    runs = {backend: _run_backend(backend) for backend in ("columnar", "rows")}

    rows = []
    for backend, run in runs.items():
        rows.append(
            [
                f"{backend} cold single-process",
                fmt(run["cold_seconds"]),
                fmt(N_QUERIES / run["cold_seconds"], 1),
                "1.0x",
            ]
        )
        rows.append(
            [
                f"{backend} 1 shard worker",
                fmt(run["shard1_seconds"]),
                fmt(N_QUERIES / run["shard1_seconds"], 1),
                f"{run['cold_seconds'] / run['shard1_seconds']:.1f}x",
            ]
        )
        rows.append(
            [
                f"{backend} {N_WORKERS} shard workers",
                fmt(run["shard4_seconds"]),
                fmt(run["shard4_qps"], 1),
                f"{run['speedup_4_workers']:.1f}x",
            ]
        )
    print_table(
        f"Shard-parallel throughput — {N_QUERIES}-query what-if suite "
        f"(German-Syn {N_ROWS}; pool rows are medians of {N_REPEATS} runs)",
        ["mode", "total s", "queries/s", "speedup"],
        rows,
    )
    for backend, run in runs.items():
        print(
            f"{backend}: max |sharded - unsharded| = {run['max_abs_diff']!r} "
            f"(pool mode: {run['pool_mode']}; pool start "
            f"{run['pool_start4_seconds']:.2f}s; broadcast bytes "
            f"{run['broadcast_bytes_shard4']:,} @4 / "
            f"{run['broadcast_bytes_shard1']:,} @1)"
        )

    payload = {
        "dataset": f"german-syn-{N_ROWS}",
        "n_queries": N_QUERIES,
        "n_workers": N_WORKERS,
        "n_repeats": N_REPEATS,
        **{f"{backend}_{k}": v for backend, run in runs.items() for k, v in run.items()},
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {_RESULTS_PATH.name}")

    # acceptance criteria of the zero-copy/fused-kernel issue
    primary = runs["columnar"]
    assert primary["speedup_4_workers"] >= 2.0, payload
    assert primary["shard4_seconds"] <= primary["shard1_seconds"], payload
    for run in runs.values():
        assert run["max_abs_diff"] == 0.0, payload

    dataset = make_german_syn(N_ROWS, seed=7)
    config = EngineConfig(regressor="linear", random_state=0)
    service = HypeRService(
        dataset.database,
        dataset.causal_dag,
        config,
        execution="processes",
        n_shards=N_WORKERS,
        result_cache_size=0,
    )
    query = _suite(dataset)[0]
    service.execute(query)  # warm the pool and the per-worker caches
    try:
        benchmark.pedantic(lambda: service.execute(query), rounds=3, iterations=1)
    finally:
        service.close()
