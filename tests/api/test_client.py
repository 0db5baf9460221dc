"""HypeRClient: typed answers, streaming, retries, deadlines, keep-alive."""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro import EngineConfig, HypeRService
from repro.api import (
    DeadlineExceeded,
    HypeRClient,
    OverloadedError,
    WhatIfAnswer,
    avg,
    set_,
    what_if,
)
from repro.api.aclient import AsyncHypeRClient
from repro.api.client import ApiStatusError, TransportError
from repro.aserve import BackgroundAsyncServer
from repro.datasets import make_german_syn

QUERY_TEXT = (
    "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
BUILDER = (
    what_if().use("Credit").update(set_("Status", 4)).output(avg("Credit"))
)


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(300, seed=4)


def _service(dataset):
    return HypeRService(
        dataset.database, dataset.causal_dag, EngineConfig(regressor="linear")
    )


@pytest.fixture(scope="module")
def async_address(dataset):
    with BackgroundAsyncServer(_service(dataset), max_inflight=4, queue_depth=16) as s:
        yield s.address


# a single param: test ids keep their ``[async]`` suffix across the suite
@pytest.fixture(params=["async"])
def address(async_address):
    return async_address


class TestQueries:
    def test_text_query_returns_typed_answer(self, address, dataset):
        with HypeRClient(*address) as client:
            answer = client.query(QUERY_TEXT)
        assert isinstance(answer, WhatIfAnswer)
        direct = _service(dataset).execute(QUERY_TEXT)
        assert answer.value == direct.value  # bitwise through JSON

    def test_builder_and_query_object_inputs(self, address):
        with HypeRClient(*address) as client:
            from_builder = client.query(BUILDER)
            from_object = client.query(BUILDER.build())
            from_text = client.query(BUILDER.text())
        assert from_builder.value == from_object.value == from_text.value

    def test_query_error_raises_with_envelope(self, address):
        with HypeRClient(*address) as client:
            with pytest.raises(ApiStatusError) as excinfo:
                client.query("SELECT nonsense")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "query_syntax"

    def test_keep_alive_and_reconnect_across_many_calls(self, address):
        # one keep-alive connection must survive a burst of calls
        with HypeRClient(*address) as client:
            values = {client.query(QUERY_TEXT).value for _ in range(5)}
            assert len(values) == 1
            assert client.health()["status"] == "ok"

    def test_stats_snapshot(self, address):
        with HypeRClient(*address) as client:
            client.query(QUERY_TEXT)
            snapshot = client.stats()
        assert snapshot.n_queries >= 1


class TestBatch:
    TEXTS = [QUERY_TEXT, "garbage", QUERY_TEXT.replace("= 4", "= 2")]

    def test_batch_items_with_per_query_errors(self, address):
        with HypeRClient(*address) as client:
            items = client.batch_collect(self.TEXTS)
        assert [item.index for item in items] == [0, 1, 2]
        assert items[0].ok and items[2].ok
        assert not items[1].ok and items[1].error.code == "query_syntax"

    def test_batch_accepts_builders(self, address):
        with HypeRClient(*address) as client:
            items = client.batch_collect([BUILDER, BUILDER.build()])
        assert all(item.ok for item in items)
        assert items[0].result.value == items[1].result.value

    def test_batch_streams_incrementally_on_async(self, async_address):
        with HypeRClient(*async_address) as client:
            seen = []
            for item in client.batch([QUERY_TEXT for _ in range(4)]):
                seen.append(item)
            assert len(seen) == 4
            # connection is reusable after the stream is drained
            assert client.query(QUERY_TEXT).value == seen[0].result.value


#: a chunked NDJSON event stream that ends without its ``done`` line
TRUNCATED_EVENTS = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/x-ndjson\r\n"
    b"Transfer-Encoding: chunked\r\n"
    b"Connection: close\r\n"
    b"\r\n"
    + b"".join(
        f"{len(line):x}\r\n".encode() + line + b"\r\n"
        for line in (b'{"event": "queued"}\n', b'{"event": "running"}\n')
    )
    + b"0\r\n\r\n"
)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers from the server's scripted (status, headers, body) list.

    Every GET answers :data:`TRUNCATED_EVENTS`, written raw because the
    handler itself speaks HTTP/1.0, which has no chunked framing.
    """

    def do_GET(self):  # noqa: N802
        self.server.hits += 1  # type: ignore[attr-defined]
        self.wfile.write(TRUNCATED_EVENTS)

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        script: list = self.server.script  # type: ignore[attr-defined]
        status, headers, body = script[0] if len(script) == 1 else script.pop(0)
        self.server.hits += 1  # type: ignore[attr-defined]
        if self.server.delay:  # type: ignore[attr-defined]
            time.sleep(self.server.delay)  # type: ignore[attr-defined]
        raw = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):  # noqa: A002
        pass


@pytest.fixture
def scripted_server():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.hits = 0
    server.delay = 0.0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


ANSWER = {
    "api_version": "v1",
    "kind": "what-if",
    "value": 7.0,
    "aggregate": "avg",
    "output_attribute": "Credit",
    "variant": "hyper",
    "n_scope_tuples": 1,
    "n_blocks": 1,
    "backdoor_set": [],
    "runtime_seconds": 0.0,
}
BUSY = {"error": "at capacity", "code": "rate_limited", "retry_after": 0.01}
BUSY_LONG = {"error": "at capacity", "code": "rate_limited", "retry_after": 30.0}


class TestRetriesAndDeadlines:
    def test_429_retries_honor_retry_after_then_succeed(self, scripted_server):
        scripted_server.script = [
            (429, {"Retry-After": "0"}, BUSY),
            (429, {"Retry-After": "0"}, BUSY),
            (200, {}, ANSWER),
        ]
        client = HypeRClient(*scripted_server.server_address, max_retries=3)
        answer = client.query("q")
        assert answer.value == 7.0
        assert scripted_server.hits == 3

    def test_429_exhausts_retry_budget(self, scripted_server):
        scripted_server.script = [(429, {"Retry-After": "0"}, BUSY)]
        client = HypeRClient(*scripted_server.server_address, max_retries=2)
        with pytest.raises(OverloadedError) as excinfo:
            client.query("q")
        assert excinfo.value.retry_after == pytest.approx(0.01)
        assert scripted_server.hits == 3  # initial attempt + 2 retries

    def test_zero_retries_disables_retrying(self, scripted_server):
        scripted_server.script = [(429, {"Retry-After": "0"}, BUSY)]
        client = HypeRClient(*scripted_server.server_address, max_retries=0)
        with pytest.raises(OverloadedError):
            client.query("q")
        assert scripted_server.hits == 1

    def test_precise_body_hint_preferred_over_ceiled_header(self, scripted_server):
        # the server ceils the Retry-After header to >= 1 s but puts the
        # precise float hint in the body; the client must use the body's
        scripted_server.script = [
            (429, {"Retry-After": "1"}, BUSY),
            (200, {}, ANSWER),
        ]
        client = HypeRClient(*scripted_server.server_address, max_retries=2)
        started = time.monotonic()
        assert client.query("q").value == 7.0
        assert time.monotonic() - started < 0.9  # slept ~0.01s, not the 1s header

    def test_deadline_beats_long_retry_after(self, scripted_server):
        scripted_server.script = [(429, {"Retry-After": "30"}, BUSY_LONG)]
        client = HypeRClient(*scripted_server.server_address, max_retries=5)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.query("q", deadline=0.2)
        assert time.monotonic() - started < 5  # did not sleep the 30 s hint
        assert scripted_server.hits == 1

    def test_deadline_bounds_slow_server(self, scripted_server):
        scripted_server.script = [(200, {}, ANSWER)]
        scripted_server.delay = 1.0
        client = HypeRClient(*scripted_server.server_address, max_retries=3)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.query("q", deadline=0.2)
        assert time.monotonic() - started < 2.0

    def test_deadline_zero_like_values_fail_fast(self, scripted_server):
        scripted_server.script = [(200, {}, ANSWER)]
        client = HypeRClient(*scripted_server.server_address)
        with pytest.raises(DeadlineExceeded):
            client.query("q", deadline=-1.0)


class TestEventStreams:
    def test_stream_without_done_line_raises(self, scripted_server):
        client = HypeRClient(*scripted_server.server_address, max_retries=0)
        seen = []
        with pytest.raises(TransportError, match="ended early"):
            for event in client.job_events("job-1"):
                seen.append(event)
        assert [event["event"] for event in seen] == ["queued", "running"]

    def test_async_stream_without_done_line_raises(self, scripted_server):
        async def consume() -> list:
            seen = []
            async with AsyncHypeRClient(
                *scripted_server.server_address, max_retries=0
            ) as client:
                with pytest.raises(TransportError, match="ended early"):
                    async for event in client.job_events("job-1"):
                        seen.append(event)
            return seen

        seen = asyncio.run(consume())
        assert [event["event"] for event in seen] == ["queued", "running"]
