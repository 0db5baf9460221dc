"""Closed-loop load generator: one SDK client on one keep-alive connection.

The client is built with ``max_retries=0``, so a 429, 413, 5xx or timeout is
a failed attempt instead of a retry hidden inside a latency.  Every answer
is recorded under ``(generation, query text)`` for the correctness check.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.api import client as client_module
from repro.api import HypeRClient
from repro.api.client import ApiStatusError, HypeRClientError, TransportError
from repro.api.schemas import WhatIfAnswer

from .workloads import Request, commit_values

REQUEST_TIMEOUT_S = 30.0


def signature(answer) -> tuple:
    """What must match bitwise: the value of a what-if; objective and plan of a how-to."""
    if isinstance(answer, WhatIfAnswer):
        return ("whatif", float(answer.value).hex())
    return ("howto", float(answer.objective_value).hex(), tuple(sorted(answer.plan.items())))


@dataclass
class Sample:
    kind: str
    latency_s: float
    request_id: str
    #: the answer's own ``runtime_seconds`` (single queries only)
    runtime_s: float | None = None
    #: decoded JSON body length (single queries only)
    response_bytes: int | None = None


@dataclass
class Phase:
    """One timed stretch of a stream against one server."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    answered: int = 0
    errors: Counter = field(default_factory=Counter)
    elapsed_s: float = 0.0

    def latencies_ms(self, kind: str | None = None) -> list[float]:
        """Latencies of the answered requests of ``kind`` (of all, by default)."""
        return [s.latency_s * 1000.0 for s in self.samples if kind in (None, s.kind)]


class _BodyMeter:
    """Stands in for the SDK's body reader and remembers the last body's length."""

    def __init__(self, read_body) -> None:
        self.read_body = read_body
        self.last = 0

    def __call__(self, response):
        raw = self.read_body(response)
        self.last = len(raw)
        return raw


class LoadGenerator:
    """Sends a request stream closed-loop and records answers and samples.

    While it is open, the SDK's body reader is wrapped to measure response
    sizes; :meth:`close` restores it.
    """

    def __init__(self, port: int, seed: int, dataset, answers: dict) -> None:
        self.client = HypeRClient(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S, max_retries=0
        )
        self.seed = seed
        self.dataset = dataset
        self.generation = 0
        #: (generation, text) -> every distinct answer signature seen for it
        self.answers = answers
        self.warm_phase = Phase()
        self._meter = _BodyMeter(client_module._read_body)
        client_module._read_body = self._meter

    def close(self) -> None:
        client_module._read_body = self._meter.read_body
        self.client.close()

    def query(self, text: str):
        answer = self.client.query(text)
        self.answers[(self.generation, text)].add(signature(answer))
        return answer

    def _send(self, request: Request, phase: Phase) -> Sample | None:
        """Send one request; the sample, or ``None`` when any part of it failed."""
        if request.kind == "update":
            values = commit_values(self.dataset, self.seed, request.commit)
        sample = Sample(request.kind, 0.0, "")
        failed = 0
        started = time.perf_counter()
        try:
            if request.kind == "update":
                answer = self.client.update({"Credit": {"Status": values}})
                self.generation = answer.generation
            elif request.kind == "batch":
                for item in self.client.batch_collect(request.texts):
                    if item.error is not None:
                        failed += 1
                        phase.errors[f"item:{item.error.code}"] += 1
                    else:
                        key = (self.generation, request.texts[item.index])
                        self.answers[key].add(signature(item.result))
            else:
                answer = self.query(request.texts[0])
                sample.runtime_s = answer.runtime_seconds
                sample.response_bytes = self._meter.last
        except ApiStatusError as error:
            phase.errors[f"http_{error.status}"] += 1
            failed = request.n_items
        except TransportError as error:
            phase.errors["timeout" if "timed out" in str(error) else "transport"] += 1
            failed = request.n_items
        except HypeRClientError as error:
            phase.errors[type(error).__name__] += 1
            failed = request.n_items
        sample.latency_s = time.perf_counter() - started
        sample.request_id = self.client.last_request_id
        phase.attempted += request.n_items
        phase.failed += failed
        phase.answered += request.n_items - failed
        return sample if failed == 0 else None

    def warm(self, stream: Iterator[Request], n_requests: int) -> None:
        """Send the stream's first ``n_requests`` untimed (into :attr:`warm_phase`)."""
        for _ in range(n_requests):
            self._send(next(stream), self.warm_phase)

    def measure(self, stream: Iterator[Request], seconds: float) -> Phase:
        """Closed loop over the stream for ``seconds``; the timed phase.

        The load generator's own cyclic garbage collector is paused while
        timing, so its collections never land inside a measured latency.
        """
        timed = Phase()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            deadline = start + seconds
            while time.perf_counter() < deadline:
                sample = self._send(next(stream), timed)
                if sample is not None:
                    timed.samples.append(sample)
            timed.elapsed_s = time.perf_counter() - start
        finally:
            gc.enable()
        return timed
