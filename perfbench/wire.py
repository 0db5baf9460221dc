"""Cluster wire cost of a workload's what-if queries, measured in process.

No cluster workload runs here; instead each sampled query is evaluated on a
2-shard partition by ``ShardWorkerRuntime`` (the code a shard server runs),
and every per-shard partial goes through ``cluster.wire``'s codec plus the
JSON text a cluster leg carries.
"""

from __future__ import annotations

import json
import time
from typing import Sequence

from repro.cluster.wire import decode_what_if_partial, encode_what_if_partial
from repro.core.queries import WhatIfQuery
from repro.lang.parser import parse_query
from repro.probdb.blocks import block_labels
from repro.shard.partition import partition_database
from repro.shard.pool import ShardWorkerRuntime

N_SHARDS = 2


def wire_costs(dataset, config, texts: Sequence[str]) -> dict[str, float]:
    """Mean bytes, encode ms and decode ms per what-if leg over ``texts``."""
    database, dag = dataset.database, dataset.causal_dag
    plan = partition_database(database, dag, N_SHARDS, blocks=block_labels(database, dag))
    runtimes = [ShardWorkerRuntime(shard, dag, config) for shard in plan]
    n_legs = 0
    total_bytes = encode_s = decode_s = 0.0
    for text in texts:
        query = parse_query(text)
        if not isinstance(query, WhatIfQuery):
            continue
        for runtime in runtimes:
            partial = runtime.what_if_partial(query)
            started = time.perf_counter()
            blob = json.dumps(encode_what_if_partial(partial)).encode()
            encoded = time.perf_counter()
            decode_what_if_partial(json.loads(blob))
            decoded = time.perf_counter()
            n_legs += 1
            total_bytes += len(blob)
            encode_s += encoded - started
            decode_s += decoded - encoded
    if n_legs == 0:
        raise ValueError("no what-if query to measure the wire on")
    return {
        "cluster.wire_bytes_per_leg": total_bytes / n_legs,
        "cluster.wire_encode_ms": encode_s * 1000.0 / n_legs,
        "cluster.wire_decode_ms": decode_s * 1000.0 / n_legs,
    }
