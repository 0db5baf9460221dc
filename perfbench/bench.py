"""One benchmark run: set up, drive, check, and turn samples into metrics."""

from __future__ import annotations

import json
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.datasets import make_dataset
from repro.obs.metrics import validate_exposition

from .loadgen import LoadGenerator, Phase
from .reference import check_answers, engine_config
from .server import Server, ServerError
from .stats import (
    InsufficientSamples,
    counter_delta,
    hit_rate,
    parse_exposition,
    percentile,
    self_times,
)
from .wire import wire_costs
from .workloads import WARM_QUERIES, WORKLOADS, Workload

__all__ = ["WORKLOADS", "run"]

N_SETUPS = 5
WIRE_SAMPLE = 12

#: end-to-end metrics (``--trace 0``): name -> unit.  Throughput and the
#: latency tail are printed too, but not gated: CPU time the host steals
#: from this VM moves them by more than any bound allows (see README.md).
END_TO_END = {
    "setup_s": "s",
    "whatif_p50_ms": "ms",
    "cpu_ms_per_query": "ms",
    "rss_mb": "MB",
}
#: request kinds whose own percentiles are reported (not gated) when sent
KINDS = ("whatif", "howto", "update", "batch")

#: per-layer metrics (``--trace 1``): name -> (unit, end-to-end metric it should move)
PER_LAYER = {
    "api.overhead_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "api.response_bytes": ("bytes", "whatif_p50_ms on whatif-sweep"),
    "aserve.queue_wait_ms": ("ms", "batch latency on batch-sharded"),
    "aserve.rejected": ("count", "failures on every workload"),
    "lang.parse_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "service.fingerprint_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "service.result_cache.hit_rate": ("ratio", "whatif_p50_ms on whatif-sweep"),
    "service.estimator_cache.hit_rate": ("ratio", "cpu_ms_per_query on update-mix"),
    "service.view_cache.hit_rate": ("ratio", "cpu_ms_per_query on update-mix"),
    "service.block_cache.hit_rate": ("ratio", "cpu_ms_per_query on update-mix"),
    "service.cache_evictions": ("count", "whatif_p50_ms on whatif-sweep"),
    "service.commit_ms": ("ms", "cpu_ms_per_query on update-mix"),
    "relational.use_build_ms": ("ms", "cpu_ms_per_query on update-mix"),
    "probdb.block_labels_ms": ("ms", "cpu_ms_per_query on update-mix"),
    "relational.fused_kernel_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "estimator.fit_ms": ("ms", "cpu_ms_per_query on update-mix and howto-mix"),
    "estimator.fits": ("count", "cpu_ms_per_query on update-mix and howto-mix"),
    "estimator.counterfactual_mean_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "ml.encode_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "ml.encode_calls": ("count", "whatif_p50_ms on whatif-sweep"),
    "ml.predict_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "whatif.contribution_rows_ms": ("ms", "whatif_p50_ms on whatif-sweep"),
    "howto.enumerate_ms": ("ms", "cpu_ms_per_query on howto-mix"),
    "howto.score_ms": ("ms", "cpu_ms_per_query on howto-mix"),
    "howto.candidates": ("count", "cpu_ms_per_query on howto-mix"),
    "optim.solve_ms": ("ms", "cpu_ms_per_query on howto-mix"),
    "optim.nodes": ("count", "cpu_ms_per_query on howto-mix"),
    "shard.bytes_to_workers": ("bytes", "cpu_ms_per_query on batch-sharded"),
    "shard.bytes_from_workers": ("bytes", "cpu_ms_per_query on batch-sharded"),
    "shard.run_what_if_ms": ("ms", "whatif_p50_ms and cpu_ms_per_query on batch-sharded"),
    "shard.merge_ms": ("ms", "whatif_p50_ms and cpu_ms_per_query on batch-sharded"),
    "cluster.wire_bytes_per_leg": ("bytes", "none here (no cluster workload)"),
    "cluster.wire_encode_ms": ("ms", "none here (no cluster workload)"),
    "cluster.wire_decode_ms": ("ms", "none here (no cluster workload)"),
    "trace.overhead_frac": ("ratio", "the gap between traced and untraced runs"),
    "trace.attributed_frac": ("ratio", "the latency share the spans explain"),
}

#: per-layer ``*_ms`` metric -> the span names whose self time it sums
LAYER_SPAN_NAMES = {
    "lang.parse_ms": ("lang.parse",),
    "service.fingerprint_ms": ("service.fingerprint",),
    "service.commit_ms": ("service.commit",),
    "relational.use_build_ms": ("relational.use_build",),
    "probdb.block_labels_ms": ("probdb.block_labels",),
    "relational.fused_kernel_ms": ("relational.fused_kernel",),
    "estimator.fit_ms": ("estimator.build", "estimator.fit"),
    "estimator.counterfactual_mean_ms": ("estimator.counterfactual_mean",),
    "ml.encode_ms": ("ml.encode",),
    "ml.predict_ms": ("ml.predict",),
    "whatif.contribution_rows_ms": ("whatif.contribution_rows",),
    "howto.enumerate_ms": ("howto.enumerate",),
    "howto.score_ms": ("howto.score",),
    "optim.solve_ms": ("optim.solve",),
    "shard.run_what_if_ms": ("shard.run_what_if",),
    "shard.merge_ms": ("shard.merge",),
}

CACHES = {
    "service.result_cache.hit_rate": "results",
    "service.estimator_cache.hit_rate": "estimators",
    "service.view_cache.hit_rate": "views",
    "service.block_cache.hit_rate": "blocks",
}


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    mismatches: list[str]
    report: list[str] = field(default_factory=list)

    def result_line(self) -> dict:
        return {
            "correct": not self.mismatches,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def to_json(self) -> dict:
        return {**self.result_line(), "mismatches": self.mismatches, "report": self.report}


class _Session:
    """A server plus the load generator talking to it."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        dataset,
        run_dir: Path,
        tag: str,
        answers: dict,
        spans_path: Path | None = None,
    ) -> None:
        self.server = Server.spawn(
            serve_args(workload, seed), run_dir / f"server-{tag}.log", spans_path=spans_path
        )
        try:
            port = self.server.wait_ready()
            self.load = LoadGenerator(port, seed, dataset, answers)
            # the first answer: the server is set up once it is correct (checked later)
            self.load.query(WARM_QUERIES[0])
        except BaseException:
            self.server.kill()
            raise
        self.setup_s = time.perf_counter() - self.server.started

    def scrape(self) -> tuple[dict, dict]:
        """The server's counters (validated exposition) and its ``/v1/stats``."""
        text = self.load.client.metrics()
        validate_exposition(text)
        return parse_exposition(text), self.load.client.stats()

    def stop(self) -> None:
        self.load.close()
        code = self.server.stop()
        if code != 0:
            raise ServerError(f"server exited with {code}; see {self.server.log_path}")


def serve_args(workload: Workload, seed: int) -> list[str]:
    args = [
        "serve", "--async", "--dataset", "german-syn",
        "--rows", str(workload.rows), "--seed", str(seed),
        "--regressor", "linear", "--port", "0", *workload.server_args,
    ]
    for text in WARM_QUERIES:
        args += ["--warm-query", text]
    return args


def run(workload: Workload, seed: int, seconds: float, traced: bool, run_dir: Path) -> Outcome:
    dataset = make_dataset("german-syn", n_rows=workload.rows, seed=seed)
    answers: dict = defaultdict(set)
    if traced:
        return _run_traced(workload, seed, seconds, dataset, run_dir, answers)
    return _run_end_to_end(workload, seed, seconds, dataset, run_dir, answers)


def _run_end_to_end(workload, seed, seconds, dataset, run_dir, answers) -> Outcome:
    setups: list[float] = []
    for attempt in range(N_SETUPS):
        session = _Session(workload, seed, dataset, run_dir, f"setup{attempt}", answers)
        setups.append(session.setup_s)
        if attempt < N_SETUPS - 1:
            session.stop()
    try:
        stream = workload.requests(seed, dataset)
        session.load.warm(stream, workload.warmup_requests)
        cpu_before = session.server.cpu_seconds()
        timed = session.load.measure(stream, seconds)
        cpu_s = session.server.cpu_seconds() - cpu_before
        stats = session.load.client.stats()
        rss_mb = session.server.peak_rss_mb()
    finally:
        session.stop()
    n_checked, mismatches = check_answers(
        answers, dataset, seed, workload.check_sample, always={(0, WARM_QUERIES[0])}
    )
    values = {
        "setup_s": median(setups),
        "whatif_p50_ms": percentile(timed.latencies_ms("whatif"), 50),
        "cpu_ms_per_query": cpu_s * 1000.0 / timed.answered,
        "rss_mb": rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    warm = session.load.warm_phase
    outcome = Outcome(
        metrics, warm.attempted + timed.attempted, warm.failed + timed.failed, mismatches
    )
    admission = stats.sections["aserve"]["admission"]
    report = outcome.report
    report.append(
        f"admission capacity {admission['max_inflight'] + admission['queue_depth']} "
        f"(max_inflight {admission['max_inflight']} + queue_depth {admission['queue_depth']}; "
        "a larger /v1/batch gets HTTP 413)"
    )
    report.append(f"setup_s samples {', '.join(f'{s:.3f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        report.append(f"end-to-end  {name:<28} {value:12.4f} {unit}")
    report.append(f"reported    {'qps':<28} {timed.answered / timed.elapsed_s:12.4f} 1/s")
    report.append(
        f"reported    {'request_p90_ms':<28} {percentile(timed.latencies_ms(), 90):12.4f} ms"
    )
    report.extend(_kind_lines(timed))
    report.append(_error_line(warm, timed))
    report.extend(_wrong_answer_lines(n_checked, mismatches))
    return outcome


def _kind_lines(timed: Phase) -> list[str]:
    """Latency of the request kinds that are reported but not gated."""
    lines = []
    for kind in KINDS:
        samples = timed.latencies_ms(kind)
        if not samples:
            lines.append(f"reported    {kind}_p50_ms / {kind}_p90_ms  n/a (no {kind} requests)")
            continue
        for q in (50, 90):
            try:
                value = f"{percentile(samples, q):12.4f} ms"
            except InsufficientSamples as error:
                value = f"n/a ({error})"
            lines.append(f"reported    {f'{kind}_p{q}_ms':<28} {value}  n={len(samples)}")
    return lines


def _error_line(*phases: Phase) -> str:
    """``error_frac``: failed or refused items over attempted items."""
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = sum((p.errors for p in phases), Counter())
    return (
        f"reported    {'error_frac':<28} {failed / attempted:12.4f} ratio  "
        f"({failed}/{attempted}; {dict(errors) or 'no errors'})"
    )


def _wrong_answer_lines(n_checked: int, mismatches: list[str]) -> list[str]:
    lines = [
        f"reported    {'wrong_answers':<28} {len(mismatches):12d} count  "
        f"({n_checked} distinct answers checked)"
    ]
    lines.extend(f"MISMATCH {m}" for m in mismatches[:20])
    return lines


def _run_traced(workload, seed, seconds, dataset, run_dir, answers) -> Outcome:
    half = seconds / 2.0
    phases: dict[str, tuple[Phase, Phase]] = {}
    scrapes: dict[str, tuple] = {}
    spans_path = run_dir / "spans.jsonl"
    for tag, spans in (("untraced", None), ("traced", spans_path)):
        session = _Session(workload, seed, dataset, run_dir, tag, answers, spans_path=spans)
        try:
            stream = workload.requests(seed, dataset)
            session.load.warm(stream, workload.warmup_requests)
            before = session.scrape()
            timed = session.load.measure(stream, half)
            after = session.scrape()
        finally:
            session.stop()
        phases[tag] = (session.load.warm_phase, timed)
        scrapes[tag] = (before, after)
    n_checked, mismatches = check_answers(
        answers, dataset, seed, workload.check_sample, always={(0, WARM_QUERIES[0])}
    )
    untraced, traced = phases["untraced"][1], phases["traced"][1]
    metrics = _client_metrics(untraced)
    metrics.update(_counter_metrics(*scrapes["untraced"], untraced.answered))
    metrics.update(_span_metrics(spans_path, traced))
    spans_path.unlink()  # up to ~10 MB per run; the metrics above keep what matters
    plain_p50 = percentile(untraced.latencies_ms("whatif"), 50)
    traced_p50 = percentile(traced.latencies_ms("whatif"), 50)
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    whatif_texts = sorted(
        text for (generation, text), sigs in answers.items()
        if generation == 0 and next(iter(sigs))[0] == "whatif"
    )
    sample = random.Random(seed).sample(whatif_texts, min(WIRE_SAMPLE, len(whatif_texts)))
    metrics.update(wire_costs(dataset, engine_config(), sample))
    attempted = sum(p.attempted for pair in phases.values() for p in pair)
    failed = sum(p.failed for pair in phases.values() for p in pair)
    outcome = Outcome(
        {name: (metrics[name], PER_LAYER[name][0]) for name in PER_LAYER},
        attempted, failed, mismatches,
    )
    outcome.report.append(
        f"whatif_p50_ms untraced {plain_p50:.4f} traced {traced_p50:.4f} "
        f"(n={len(untraced.latencies_ms('whatif'))}/{len(traced.latencies_ms('whatif'))})"
    )
    for name, (unit, moves) in PER_LAYER.items():
        outcome.report.append(f"layer  {name:<34} {metrics[name]:14.6f} {unit:<6} -> {moves}")
    for tag, pair in phases.items():
        outcome.report.append(f"[{tag}] {_error_line(*pair)}")
    outcome.report.extend(_wrong_answer_lines(n_checked, mismatches))
    return outcome


def _client_metrics(timed: Phase) -> dict[str, float]:
    singles = [s for s in timed.samples if s.kind == "whatif"]
    return {
        "api.overhead_ms": median([(s.latency_s - s.runtime_s) * 1000.0 for s in singles]),
        "api.response_bytes": sum(s.response_bytes for s in singles) / len(singles),
    }


def _counter_metrics(before, after, answered: int) -> dict[str, float]:
    (c0, stats0), (c1, stats1) = before, after
    waits = counter_delta(c0, c1, "aserve_queue_wait_seconds_count")
    metrics = {
        "aserve.queue_wait_ms": (
            counter_delta(c0, c1, "aserve_queue_wait_seconds_sum") * 1000.0 / waits
            if waits else 0.0
        ),
        "aserve.rejected": counter_delta(c0, c1, "aserve_rejected_total"),
        "service.cache_evictions": sum(
            counter_delta(c0, c1, "hyper_cache_evictions_total", cache=cache)
            for cache in ("results", "estimators", "views", "blocks", "candidates")
        ),
    }
    for name, cache in CACHES.items():
        metrics[name] = hit_rate(
            counter_delta(c0, c1, "hyper_cache_hits_total", cache=cache),
            counter_delta(c0, c1, "hyper_cache_misses_total", cache=cache),
        )
    for direction in ("to", "from"):
        key = f"bytes_{direction}_workers"
        moved = (stats1.pool or {}).get(key, 0) - (stats0.pool or {}).get(key, 0)
        metrics[f"shard.{key}"] = moved / answered
    return metrics


def _span_metrics(spans_path: Path, traced: Phase) -> dict[str, float]:
    """Layer self time and call counts per answered request of the traced phase."""
    request_ids = {s.request_id for s in traced.samples}
    spans = [
        span
        for span in map(json.loads, spans_path.read_text().splitlines())
        if span["request_id"] in request_ids
    ]
    own = self_times(spans)
    self_ms: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    values: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        self_ms[span["name"]] += own[span["id"]] * 1000.0
        count[span["name"]] += 1
        if span["value"] is not None:
            values[span["name"]].append(span["value"])
    n = traced.answered
    metrics = {
        metric: sum(self_ms[name] for name in names) / n
        for metric, names in LAYER_SPAN_NAMES.items()
    }
    metrics["estimator.fits"] = count["estimator.fit"] / n
    metrics["ml.encode_calls"] = count["ml.encode"] / n
    for metric, name in (("howto.candidates", "howto.enumerate"), ("optim.nodes", "optim.solve")):
        metrics[metric] = sum(values[name]) / len(values[name]) if values[name] else 0.0
    # batch items run in parallel, so only one-item requests are attributed
    singles = {s.request_id: s.latency_s for s in traced.samples if s.kind != "batch"}
    attributed_s = sum(own[span["id"]] for span in spans if span["request_id"] in singles)
    metrics["trace.attributed_frac"] = attributed_s / sum(singles.values())
    return metrics
