"""Wire-level tests of the minimal HTTP/1.1 parser and renderers."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.aserve.protocol import (
    ChunkedJsonWriter,
    HttpProtocolError,
    read_request,
    render_json_response,
)


def parse(data: bytes, max_body: int = 4096):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes=max_body)

    return asyncio.run(_run())


def parse_two(data: bytes, max_body: int = 4096):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        first = await read_request(reader, max_body_bytes=max_body)
        second = await read_request(reader, max_body_bytes=max_body)
        return first, second

    return asyncio.run(_run())


class TestReadRequest:
    def test_get(self):
        request = parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/health"
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.keep_alive  # HTTP/1.1 default

    def test_post_with_body(self):
        body = b'{"query": "q"}'
        request = parse(
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        assert request.method == "POST"
        assert request.body == body

    def test_query_string_stripped_from_path(self):
        request = parse(b"GET /stats?verbose=1 HTTP/1.1\r\n\r\n")
        assert request.path == "/stats"
        assert request.target == "/stats?verbose=1"

    def test_eof_between_requests_is_none(self):
        assert parse(b"") is None

    def test_connection_close_disables_keep_alive(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive

    def test_pipelined_requests_parse_sequentially(self):
        first, second = parse_two(
            b"GET /health HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n"
        )
        assert first.path == "/health"
        assert second.path == "/stats"

    def test_oversized_body_is_413_without_reading(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /query HTTP/1.1\r\nContent-Length: 9000\r\n\r\n", max_body=100)
        assert excinfo.value.status == 413
        assert excinfo.value.close

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        assert excinfo.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_version_is_505(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"GET / HTTP/2.0\r\n\r\n")
        assert excinfo.value.status == 505

    def test_chunked_request_body_is_501(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 501

    def test_invalid_content_length_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: nan\r\n\r\n")
        assert excinfo.value.status == 400
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"POST /q HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert excinfo.value.status == 400

    def test_malformed_header_is_400(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert excinfo.value.status == 400


class TestRenderers:
    def test_json_response_roundtrip(self):
        raw = render_json_response(200, {"a": 1})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: keep-alive" in head
        assert json.loads(body) == {"a": 1}

    def test_close_and_extra_headers(self):
        raw = render_json_response(
            429, {"error": "x"}, keep_alive=False, extra_headers={"Retry-After": "2"}
        )
        head = raw.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Connection: close" in head
        assert b"Retry-After: 2" in head


class _StubWriter:
    def __init__(self):
        self.data = bytearray()

    def write(self, chunk: bytes) -> None:
        self.data += chunk

    async def drain(self) -> None:
        pass


class TestChunkedJsonWriter:
    def test_ndjson_chunk_framing(self):
        writer = _StubWriter()

        async def _run():
            stream = ChunkedJsonWriter(writer, request_id="0123456789abcdef")
            await stream.start()
            await stream.send({"index": 0})
            await stream.send({"done": True})
            await stream.finish()

        asyncio.run(_run())
        head, _, tail = bytes(writer.data).partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert b"Content-Type: application/x-ndjson" in head
        assert b"X-Request-Id: 0123456789abcdef" in head
        # decode the chunked framing by hand and check NDJSON lines
        lines = []
        rest = tail
        while True:
            size_hex, _, rest = rest.partition(b"\r\n")
            size = int(size_hex, 16)
            if size == 0:
                break
            chunk, rest = rest[:size], rest[size + 2 :]
            lines.append(json.loads(chunk))
        assert lines == [{"index": 0}, {"done": True}]
