"""Observability conformance on the HTTP front door.

``GET /v1/metrics`` must serve valid Prometheus text, ``?trace=1`` must
return the v1 ``TraceSpan`` tree (for a how-to, down to the engine's
enumerate/score/solve/verify spans), every response must carry an
``X-Request-Id`` (echoing the client's), and ``GET /v1/slow`` entries must
name the offending request.  The sharded test asserts the span-tree shape:
shard-worker spans nested under the broadcast, and child durations bounded
by the root's wall time.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro import EngineConfig, HypeRService
from repro.api.client import HypeRClient
from repro.api.schemas import TraceSpan
from repro.aserve import AdmissionRejected, BackgroundAsyncServer
from repro.datasets import make_german_syn
from repro.jobs.manager import attach_jobs
from repro.obs.metrics import validate_exposition
from repro.obs.trace import TraceContext

QUERY = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
HOWTO = (
    "USE Credit HOWTOUPDATE Status, Housing "
    "LIMIT 1 <= POST(Status) <= 4 AND 1 <= POST(Housing) <= 3 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
CONFIG = EngineConfig(regressor="linear")


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(200, seed=11)


@pytest.fixture(scope="module")
def service(dataset):
    # threshold 0: every completion enters the slow log, so the /v1/slow
    # tests don't depend on actual latencies
    service = HypeRService(
        dataset.database, dataset.causal_dag, CONFIG, slow_query_seconds=0.0
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def async_server(service):
    with BackgroundAsyncServer(service, max_inflight=4) as server:
        yield server


@pytest.fixture(scope="module")
def async_door(async_server):
    return async_server.address


# a single param: test ids keep their ``[async]`` suffix across the suite
@pytest.fixture(params=["async"])
def door(async_door):
    return async_door


def _span_names(node: TraceSpan):
    yield node.name
    for child in node.children:
        yield from _span_names(child)


def _find(node: TraceSpan, name: str) -> TraceSpan | None:
    if node.name == name:
        return node
    for child in node.children:
        found = _find(child, name)
        if found is not None:
            return found
    return None


class TestMetricsEndpoint:
    def test_valid_prometheus_text(self, door):
        host, port = door
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type", "").startswith("text/plain")
        assert validate_exposition(body) > 0
        assert "hyper_queries_total" in body
        assert "# TYPE hyper_request_seconds histogram" in body

    def test_client_metrics_helper(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=30.0) as client:
            text = client.metrics()
        assert validate_exposition(text) > 0


CLIENT_ID = "deadbeef00000001"

#: (method, path, body) — one probe per distinct response path of the door;
#: the module's door admits 4 + 8 units, so a 64-query batch is a 413
ROUTES = [
    pytest.param("GET", "/v1/health", None, id="health"),
    pytest.param("GET", "/health", None, id="health-alias"),
    pytest.param("GET", "/v1/stats", None, id="stats"),
    pytest.param("GET", "/v1/metrics", None, id="metrics"),
    pytest.param("GET", "/v1/slow", None, id="slow"),
    pytest.param("GET", "/v1/nowhere", None, id="unknown-path-404"),
    pytest.param("POST", "/v1/query", {"query": QUERY}, id="query"),
    pytest.param("POST", "/v1/query", {"query": "garbage"}, id="query-400"),
    pytest.param("POST", "/v1/batch", {"queries": [QUERY, QUERY]}, id="batch-streamed"),
    pytest.param("POST", "/v1/batch", {"queries": []}, id="batch-empty"),
    pytest.param("POST", "/v1/batch", b"{not json", id="batch-malformed-400"),
    pytest.param("POST", "/v1/batch", {"queries": [QUERY] * 64}, id="batch-413"),
    pytest.param("POST", "/v1/update", {"assignments": {}}, id="update-400"),
    pytest.param("POST", "/v1/prepare", {"queries": [QUERY]}, id="prepare"),
    pytest.param("GET", "/v1/jobs", None, id="jobs-disabled-503"),
    pytest.param("GET", "/v1/jobs/job-x/events", None, id="job-events-503"),
]


def exchange(address, method, path, body=None):
    """One request carrying ``CLIENT_ID``; returns (status, response, raw body)."""
    connection = http.client.HTTPConnection(*address, timeout=60)
    if isinstance(body, dict):
        body = json.dumps(body).encode()
    try:
        connection.request(method, path, body=body, headers={"X-Request-Id": CLIENT_ID})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    return response.status, response, raw


class TestRequestId:
    def test_client_supplied_id_is_echoed(self, door):
        host, port = door
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "GET", "/v1/metrics", headers={"X-Request-Id": "deadbeef00000001"}
            )
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.getheader("X-Request-Id") == "deadbeef00000001"

    @pytest.mark.parametrize("method, path, body", ROUTES)
    def test_every_route_echoes_the_client_id(self, async_door, method, path, body):
        _, response, _ = exchange(async_door, method, path, body)
        assert response.getheader("X-Request-Id") == CLIENT_ID

    def test_batch_429_echoes_the_client_id(self, async_server, monkeypatch):
        def reject(units, *, endpoint):
            raise AdmissionRejected("at capacity", retry_after=0.5)

        monkeypatch.setattr(async_server.runner.admission, "try_admit", reject)
        status, response, _ = exchange(
            async_server.address, "POST", "/v1/batch", {"queries": [QUERY]}
        )
        assert status == 429
        assert response.getheader("X-Request-Id") == CLIENT_ID

    def test_draining_503_echoes_the_client_id(self, async_server, monkeypatch):
        monkeypatch.setattr(async_server.runner.app, "draining", True)
        status, response, _ = exchange(async_server.address, "GET", "/v1/health")
        assert status == 503
        assert response.getheader("X-Request-Id") == CLIENT_ID

    def test_protocol_error_echoes_the_client_id(self, async_door):
        connection = http.client.HTTPConnection(*async_door, timeout=30)
        try:
            # an oversized declared body fails in the protocol layer, after
            # the headers (and so the client's id) have parsed
            connection.putrequest("POST", "/v1/query")
            connection.putheader("X-Request-Id", CLIENT_ID)
            connection.putheader("Content-Length", str(64 * 1024 * 1024))
            connection.endheaders()
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 413
        assert response.getheader("X-Request-Id") == CLIENT_ID

    def test_job_event_stream_echoes_the_client_id(self, dataset, tmp_path):
        service = HypeRService(dataset.database, dataset.causal_dag, CONFIG)
        attach_jobs(service, str(tmp_path / "journal.jsonl"))
        with BackgroundAsyncServer(service, max_inflight=2) as server:
            status, response, raw = exchange(
                server.address, "POST", "/v1/jobs", {"query": QUERY}
            )
            assert status == 202
            assert response.getheader("X-Request-Id") == CLIENT_ID
            job_id = json.loads(raw)["job_id"]
            status, response, raw = exchange(
                server.address, "GET", f"/v1/jobs/{job_id}/events"
            )
        assert status == 200
        assert response.getheader("Transfer-Encoding") == "chunked"
        assert response.getheader("X-Request-Id") == CLIENT_ID
        assert json.loads(raw.splitlines()[-1])["done"] is True

    def test_server_mints_id_when_absent(self, door):
        host, port = door
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.getheader("X-Request-Id")

    def test_unsafe_client_id_is_replaced_not_echoed(self, async_door):
        with socket.create_connection(async_door, timeout=30) as sock:
            sock.sendall(
                b"GET /v1/health HTTP/1.1\r\nX-Request-Id: ab\rcd\r\n"
                b"Connection: close\r\n\r\n"
            )
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
        echoed = [line for line in head if line.lower().startswith("x-request-id:")]
        assert len(echoed) == 1
        minted = echoed[0].split(":", 1)[1].strip()
        assert minted != "ab\rcd" and minted.isalnum()

    def test_server_mints_id_for_an_unparseable_request(self, async_door):
        connection = http.client.HTTPConnection(*async_door, timeout=30)
        try:
            connection.putrequest("GET", "/v1/health")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 501
        assert response.getheader("X-Request-Id")


class TestTracedQuery:
    def test_trace_conformance(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            answer = client.query(QUERY)
        tree = answer.trace
        assert isinstance(tree, TraceSpan)
        assert tree.name == "request"
        assert tree.meta["request_id"] == client.last_request_id
        names = set(_span_names(tree))
        assert {"parse", "cache.result", "serialize"} <= names
        # execute nests inside the cache span on a miss; a warm repeat hits
        cache = _find(tree, "cache.result")
        assert cache.meta is not None and "hit" in cache.meta

    def test_how_to_engine_spans(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            answer = client.query(HOWTO)
        execute = _find(answer.trace, "execute")
        assert execute is not None, "the how-to text must miss the result cache"
        engine = [c for c in execute.children if c.name.startswith(("howto.", "optim."))]
        # the plan changes something, so the chosen updates are verified
        assert answer.plan and set(answer.plan.values()) != {"no change"}
        assert [span.name for span in engine] == [
            "howto.enumerate",
            "howto.score",
            "optim.solve",
            "howto.verify",
        ]
        enumerate_span, _score, solve, _verify = engine
        assert enumerate_span.meta["candidates"] > 0
        assert solve.meta["nodes"] >= 1
        assert sum(span.duration_ms for span in engine) <= execute.duration_ms + 1e-3

    def test_untraced_answer_has_no_trace(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0) as client:
            answer = client.query(QUERY)
        assert answer.trace is None

    def test_async_door_records_queue_wait(self, async_door):
        host, port = async_door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            answer = client.query(QUERY)
        assert _find(answer.trace, "admission.queue") is not None

    def test_per_call_trace_flag(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0) as client:
            assert client.query(QUERY, trace=True).trace is not None
            assert client.query(QUERY, trace=False).trace is None


class TestSlowLog:
    def test_entries_name_the_offending_request(self, door):
        host, port = door
        with HypeRClient(host, port, timeout=60.0, trace=True) as client:
            client.query(QUERY)
            request_id = client.last_request_id
            slow = client.slow_queries()
        assert slow["threshold_seconds"] == 0.0
        assert slow["entries"], "threshold 0 must log every completion"
        by_id = {entry["last_request_id"] for entry in slow["entries"]}
        assert request_id in by_id


class TestShardedTrace:
    def test_span_tree_shape(self, dataset):
        service = HypeRService(
            dataset.database,
            dataset.causal_dag,
            # columnar explicitly: process sharding is gated to it, and this
            # test asserts two worker spans regardless of REPRO_BACKEND
            EngineConfig(regressor="linear", backend="columnar"),
            execution="processes",
            n_shards=2,
        )
        try:
            trace = TraceContext()
            result = service.execute(QUERY, trace=trace)
            baseline = service.execute(QUERY)  # warm-cache sanity companion
        finally:
            service.close()
        assert float(result.value) == float(baseline.value)

        tree = TraceSpan.from_json(trace.to_wire())
        names = set(_span_names(tree))
        assert {"parse", "cache.result", "shard.broadcast", "shard.merge"} <= names

        broadcast = _find(tree, "shard.broadcast")
        assert broadcast.meta["shards"] == 2
        workers = [c for c in broadcast.children if c.name.startswith("shard-worker[")]
        assert len(workers) == 2
        assert {w.meta["shard"] for w in workers} == {0, 1}
        assert all(w.duration_ms >= 0 for w in workers)
        # worker spans were measured on worker clocks but still fit inside
        # the broadcast that awaited them (they ran within its window)
        assert _find(tree, "shard.merge") is not None

        # root wall time bounds the (sequential) direct children
        assert sum(child.duration_ms for child in tree.children) <= (
            tree.duration_ms + 1e-3
        )
