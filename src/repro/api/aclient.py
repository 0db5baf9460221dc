"""``AsyncHypeRClient`` — the asyncio twin of :class:`~repro.api.client.HypeRClient`.

Same endpoints, same typed answers, and the *same* failure semantics as the
sync SDK — bounded retries with exponential backoff for dropped sockets,
429s honored per the server's ``retry_after`` hint, a wall-clock ``deadline``
capping the whole call (request + retries + sleeps), request/response gzip —
but implemented on ``asyncio`` streams so many calls can be in flight on one
event loop.  The error classes are shared with the sync client
(:class:`TransportError`, :class:`DeadlineExceeded`,
:class:`ServerDeadlineExceeded`, :class:`OverloadedError`,
:class:`ApiStatusError`), so ``except`` clauses port unchanged.

Unlike the sync client (one keep-alive connection, not thread-safe), the
async client keeps a small **pool** of keep-alive connections: concurrent
coroutines each borrow an idle connection or open a fresh one, so a single
client per server is safe to share across tasks on one loop — exactly what
the cluster coordinator needs for concurrent scatters.  This is also the
satellite "async client" of the serving roadmap::

    client = AsyncHypeRClient("127.0.0.1", 8000)
    try:
        answer = await client.query("USE Credit UPDATE(Status) = 4 "
                                    "OUTPUT AVG(POST(Credit))")
        async for item in client.batch(texts):
            ...
    finally:
        await client.close()
"""

from __future__ import annotations

import asyncio
import gzip as gzip_module
import json
from typing import Any, AsyncIterator, Iterable, Sequence

from ..obs.trace import new_request_id
from .client import (
    DeadlineExceeded,
    HypeRClient,
    TransportError,
    _Deadline,
    _decode_body,
    _error_from_response,
)
from .endpoints import GZIP_MIN_BYTES
from .schemas import (
    Answer,
    BatchItem,
    BatchRequest,
    JobListAnswer,
    JobStatus,
    JobSubmitRequest,
    PrepareAnswer,
    PrepareRequest,
    QueryRequest,
    StatsSnapshot,
    UpdateAnswer,
    UpdateRequest,
    answer_from_json,
)

__all__ = ["AsyncHypeRClient"]

#: failures worth a reconnect-and-retry — the async analogue of the sync
#: client's ``(ConnectionError, HTTPException, TimeoutError, OSError)``
_RETRYABLE = (
    ConnectionError,
    TimeoutError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    EOFError,
    OSError,
)

#: StreamReader line limit — headers and NDJSON lines must fit one line
_STREAM_LIMIT = 1 << 20


class _Conn:
    """One pooled keep-alive connection."""

    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer


class AsyncHypeRClient:
    """Asyncio client for a HypeR service's ``/v1`` HTTP API.

    Constructor parameters mirror :class:`~repro.api.client.HypeRClient`
    (``timeout`` is the per-I/O-operation cap, ``deadline`` arguments cap
    whole calls).  ``max_idle_connections`` bounds the keep-alive pool;
    excess connections are closed on release rather than pooled.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_seconds: float = 0.05,
        trace: bool = False,
        gzip_min_bytes: int | None = GZIP_MIN_BYTES,
        max_idle_connections: int = 8,
        client_id: str = "",
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.trace = trace
        self.gzip_min_bytes = gzip_min_bytes
        #: sent as ``X-Client-Id`` on every request (per-client stats, job
        #: ownership, quotas); empty means the server assigns an anonymous id
        self.client_id = client_id
        self.max_idle_connections = max_idle_connections
        #: the X-Request-Id of the most recently started call
        self.last_request_id: str = ""
        self._idle: list[_Conn] = []
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------------

    async def close(self) -> None:
        """Close every pooled connection; in-flight borrows close on release."""
        self._closed = True
        while self._idle:
            self._discard(self._idle.pop())

    async def __aenter__(self) -> "AsyncHypeRClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- connection pool ---------------------------------------------------------------

    async def _acquire(self, deadline: _Deadline) -> _Conn:
        while self._idle:
            conn = self._idle.pop()
            if conn.writer.is_closing():
                self._discard(conn)
                continue
            return conn
        reader, writer = await self._bounded(
            asyncio.open_connection(self.host, self.port, limit=_STREAM_LIMIT),
            deadline,
        )
        return _Conn(reader, writer)

    def _release(self, conn: _Conn) -> None:
        if (
            self._closed
            or conn.writer.is_closing()
            or len(self._idle) >= self.max_idle_connections
        ):
            self._discard(conn)
        else:
            self._idle.append(conn)

    def _discard(self, conn: _Conn) -> None:
        try:
            conn.writer.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass

    def _finish(self, conn: _Conn, will_close: bool) -> None:
        """Return a connection to the pool, or close it per the response."""
        if will_close:
            self._discard(conn)
        else:
            self._release(conn)

    # -- deadline plumbing -------------------------------------------------------------

    def _begin_call(self, deadline: float | None) -> _Deadline:
        self.last_request_id = new_request_id()
        return _Deadline(deadline, self.last_request_id)

    async def _bounded(self, awaitable: Any, deadline: _Deadline) -> Any:
        """Run one I/O operation under the per-operation/deadline cap."""
        timeout = max(deadline.cap(self.timeout), 1e-3)
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"no response within {timeout:.3f}s") from None

    async def _sleep(self, seconds: float, deadline: _Deadline) -> None:
        remaining = deadline.remaining()
        if remaining is not None and seconds >= remaining:
            raise DeadlineExceeded(
                f"request deadline expires in {remaining:.3f}s, "
                f"cannot wait {seconds:.3f}s to retry",
                request_id=deadline.request_id,
            )
        await asyncio.sleep(seconds)

    # -- HTTP/1.1 framing --------------------------------------------------------------

    def _render_request(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(body) if body else 0}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")

    async def _read_head(
        self, conn: _Conn, deadline: _Deadline
    ) -> tuple[int, dict[str, str], bool]:
        """Parse the status line and headers; returns (status, headers, will_close)."""
        line = await self._bounded(conn.reader.readline(), deadline)
        if not line:
            raise ConnectionError("server closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ConnectionError(f"malformed status line {line!r}")
        version = parts[0]
        try:
            status = int(parts[1])
        except ValueError:
            raise ConnectionError(f"malformed status line {line!r}") from None
        headers: dict[str, str] = {}
        while True:
            line = await self._bounded(conn.reader.readline(), deadline)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("truncated response headers")
            name, sep, value = line.decode("latin-1").rstrip("\r\n").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            will_close = "keep-alive" not in connection
        else:
            will_close = "close" in connection
        return status, headers, will_close

    async def _iter_chunks(
        self, conn: _Conn, deadline: _Deadline
    ) -> AsyncIterator[bytes]:
        """Decode ``Transfer-Encoding: chunked`` payload chunks (incl. terminator)."""
        while True:
            size_line = await self._bounded(conn.reader.readline(), deadline)
            if not size_line:
                raise ConnectionError("chunked stream truncated")
            try:
                size = int(size_line.strip().split(b";", 1)[0], 16)
            except ValueError:
                raise ConnectionError(f"malformed chunk size {size_line!r}") from None
            if size == 0:
                # trailer section: read through the blank terminator line
                while True:
                    trailer = await self._bounded(conn.reader.readline(), deadline)
                    if trailer in (b"\r\n", b"\n", b""):
                        return
            chunk = await self._bounded(conn.reader.readexactly(size), deadline)
            await self._bounded(conn.reader.readexactly(2), deadline)  # CRLF
            yield chunk

    async def _ndjson_stream(
        self, conn: _Conn, deadline: _Deadline, what: str
    ) -> AsyncIterator[dict[str, Any]]:
        """Every JSON line of a chunked NDJSON body, read through its terminator.

        Reading to the end keeps the connection clean for reuse; a transport
        failure mid-stream retires the connection and raises
        :class:`TransportError` naming ``what`` stream failed.
        """
        buffer = b""
        try:
            async for chunk in self._iter_chunks(conn, deadline):
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        except _RETRYABLE as error:
            self._discard(conn)
            raise TransportError(
                f"{what} stream failed: {error}", request_id=deadline.request_id
            ) from error

    @staticmethod
    def _decompress(raw: bytes, headers: dict[str, str]) -> bytes:
        if raw and headers.get("content-encoding", "").strip().lower() == "gzip":
            try:
                return gzip_module.decompress(raw)
            except (OSError, EOFError) as error:
                raise TransportError(
                    f"server sent a malformed gzip body: {error}"
                ) from None
        return raw

    async def _read_full_body(
        self, conn: _Conn, headers: dict[str, str], deadline: _Deadline
    ) -> bytes:
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks = [chunk async for chunk in self._iter_chunks(conn, deadline)]
            return self._decompress(b"".join(chunks), headers)
        raw_length = headers.get("content-length")
        if raw_length is None:
            raw = await self._bounded(conn.reader.read(-1), deadline)
        else:
            try:
                length = int(raw_length)
            except ValueError:
                raise ConnectionError(
                    f"invalid Content-Length {raw_length!r}"
                ) from None
            raw = (
                await self._bounded(conn.reader.readexactly(length), deadline)
                if length
                else b""
            )
        return self._decompress(raw, headers)

    # -- request core ------------------------------------------------------------------

    def _encode_payload(
        self, payload: dict[str, Any] | None
    ) -> tuple[bytes | None, dict[str, str]]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Accept-Encoding": "gzip"}
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        if body is not None:
            headers["Content-Type"] = "application/json"
            if self.gzip_min_bytes is not None and len(body) >= self.gzip_min_bytes:
                # mtime=0 keeps compression deterministic, like the sync client
                body = gzip_module.compress(body, compresslevel=6, mtime=0)
                headers["Content-Encoding"] = "gzip"
        return body, headers

    async def _request_head(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None,
        deadline: _Deadline,
    ) -> tuple[_Conn, int, dict[str, str], bool]:
        """Send one request (with retries) and parse the head, body unread.

        Retries dropped sockets with backoff, and 429s per the server's
        ``retry_after``; the caller owns the returned connection and must
        hand it back through :meth:`_finish` once the body is consumed.
        """
        body, headers = self._encode_payload(payload)
        if deadline.request_id:
            # retries reuse the id: they are the same logical request
            headers["X-Request-Id"] = deadline.request_id
        attempt = 0
        while True:
            deadline.check()
            conn: _Conn | None = None
            try:
                conn = await self._acquire(deadline)
                conn.writer.write(self._render_request(method, path, body, headers))
                await self._bounded(conn.writer.drain(), deadline)
                status, resp_headers, will_close = await self._read_head(conn, deadline)
            except DeadlineExceeded:
                if conn is not None:
                    self._discard(conn)
                raise
            except _RETRYABLE as error:
                if conn is not None:
                    self._discard(conn)
                if attempt >= self.max_retries:
                    raise TransportError(
                        f"{method} {path} failed after {attempt + 1} attempt(s): "
                        f"{type(error).__name__}: {error}",
                        request_id=deadline.request_id,
                    ) from error
                await self._sleep(self.backoff_seconds * (2**attempt), deadline)
                attempt += 1
                continue
            if status == 429 and attempt < self.max_retries:
                raw = await self._read_full_body(conn, resp_headers, deadline)
                self._finish(conn, will_close)
                rejection = _decode_body(raw)
                hint = rejection.get("retry_after")
                if hint is None:
                    header = resp_headers.get("retry-after")
                    hint = float(header) if header else 1.0
                await self._sleep(max(float(hint), 0.0), deadline)
                attempt += 1
                continue
            return conn, status, resp_headers, will_close

    async def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None,
        deadline: _Deadline,
    ) -> tuple[int, dict[str, str], bytes]:
        conn, status, headers, will_close = await self._request_head(
            method, path, payload, deadline
        )
        try:
            raw = await self._read_full_body(conn, headers, deadline)
        except DeadlineExceeded:
            self._discard(conn)
            raise
        except _RETRYABLE as error:
            self._discard(conn)
            raise TransportError(
                f"{method} {path} response truncated: {error}",
                request_id=deadline.request_id,
            ) from error
        self._finish(conn, will_close)
        return status, headers, raw

    async def _json_call(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None,
        deadline: _Deadline,
        *,
        accept: tuple[int, ...] = (200,),
    ) -> dict[str, Any]:
        status, _headers, raw = await self._request(method, path, payload, deadline)
        body = _decode_body(raw)
        if status not in accept:
            raise _error_from_response(status, body, request_id=deadline.request_id)
        return body

    # -- generic JSON endpoints (the cluster's internal protocol uses these) -----------

    async def get_json(
        self, path: str, *, deadline: float | None = None
    ) -> dict[str, Any]:
        """``GET path`` returning the decoded JSON object (non-200 raises)."""
        return await self._json_call("GET", path, None, self._begin_call(deadline))

    async def post_json(
        self, path: str, payload: dict[str, Any], *, deadline: float | None = None
    ) -> dict[str, Any]:
        """``POST path`` returning the decoded JSON object (non-200 raises)."""
        return await self._json_call("POST", path, payload, self._begin_call(deadline))

    # -- typed endpoints ---------------------------------------------------------------

    async def health(self, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET /v1/health``."""
        return await self.get_json("/v1/health", deadline=deadline)

    async def stats(self, *, deadline: float | None = None) -> StatsSnapshot:
        """``GET /v1/stats`` as a typed :class:`StatsSnapshot`."""
        body = await self.get_json("/v1/stats", deadline=deadline)
        return StatsSnapshot.from_json(body)

    async def metrics(self, *, deadline: float | None = None) -> str:
        """``GET /v1/metrics``: the server's Prometheus text exposition."""
        budget = self._begin_call(deadline)
        status, _headers, raw = await self._request("GET", "/v1/metrics", None, budget)
        if status != 200:
            raise _error_from_response(
                status, _decode_body(raw), request_id=budget.request_id
            )
        return raw.decode("utf-8")

    async def slow_queries(self, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET /v1/slow``: the server's slow-query log snapshot."""
        return await self.get_json("/v1/slow", deadline=deadline)

    async def query(
        self,
        query: Any,
        *,
        exhaustive: bool = False,
        deadline: float | None = None,
        deadline_ms: int | None = None,
        trace: bool | None = None,
    ) -> Answer:
        """Answer one query (text, query object, or builder) as a typed answer."""
        wants_trace = self.trace if trace is None else trace
        wants_trace = wants_trace or bool(getattr(query, "wants_trace", False))
        request = QueryRequest(
            query=HypeRClient._as_text(query),
            exhaustive=exhaustive,
            deadline_ms=HypeRClient._server_deadline_ms(deadline, deadline_ms),
        )
        path = "/v1/query?trace=1" if wants_trace else "/v1/query"
        body = await self._json_call(
            "POST", path, request.to_json(), self._begin_call(deadline)
        )
        return answer_from_json(body)

    async def update(
        self,
        assignments: dict[str, dict[str, Sequence[float]]],
        *,
        deadline: float | None = None,
        trace: bool | None = None,
    ) -> UpdateAnswer:
        """``POST /v1/update``: commit whole-column overwrites as one generation."""
        request = UpdateRequest(
            assignments={
                relation: {
                    attr: tuple(float(v) for v in values)
                    for attr, values in columns.items()
                }
                for relation, columns in assignments.items()
            }
        )
        wants_trace = self.trace if trace is None else trace
        path = "/v1/update?trace=1" if wants_trace else "/v1/update"
        body = await self._json_call(
            "POST", path, request.to_json(), self._begin_call(deadline)
        )
        return UpdateAnswer.from_json(body)

    async def batch(
        self,
        queries: Sequence[Any] | Iterable[Any],
        *,
        deadline: float | None = None,
        deadline_ms: int | None = None,
    ) -> AsyncIterator[BatchItem]:
        """Stream a batch's per-query outcomes as the server emits them.

        Items arrive in completion order; a stream that ends before its
        ``done`` line (or with too few items) raises :class:`TransportError`.
        """
        texts = [HypeRClient._as_text(q) for q in queries]
        request = BatchRequest(
            queries=tuple(texts),
            deadline_ms=HypeRClient._server_deadline_ms(deadline, deadline_ms),
        )
        budget = self._begin_call(deadline)
        conn, status, headers, will_close = await self._request_head(
            "POST", "/v1/batch", request.to_json(), budget
        )
        if status != 200:
            raw = await self._read_full_body(conn, headers, budget)
            self._finish(conn, will_close)
            raise _error_from_response(
                status, _decode_body(raw), request_id=budget.request_id
            )
        if "ndjson" not in headers.get("content-type", "").lower():
            # only an empty batch is answered as one JSON object
            raw = await self._read_full_body(conn, headers, budget)
            self._finish(conn, will_close)
            _decode_body(raw)
            if texts:
                raise TransportError(
                    "expected an NDJSON batch stream", request_id=budget.request_id
                )
            return
        seen = 0
        done = False
        async for data in self._ndjson_stream(conn, budget, "batch"):
            if data.get("done"):
                done = True
            elif not done:
                seen += 1
                yield BatchItem.from_json(data)
        if not done or seen != len(texts):
            self._discard(conn)
            raise TransportError(
                f"batch stream ended early: {seen}/{len(texts)} results",
                request_id=budget.request_id,
            )
        self._finish(conn, will_close)

    async def batch_collect(
        self,
        queries: Sequence[Any],
        *,
        deadline: float | None = None,
    ) -> list[BatchItem]:
        """All batch outcomes, ordered by query index."""
        items = [item async for item in self.batch(queries, deadline=deadline)]
        return sorted(items, key=lambda item: item.index)

    # -- prepare / jobs ----------------------------------------------------------------

    async def prepare(
        self,
        queries: Sequence[Any] | Iterable[Any],
        *,
        deadline: float | None = None,
    ) -> PrepareAnswer:
        """``POST /v1/prepare``: warm server-side plans/views for these queries."""
        request = PrepareRequest(
            queries=tuple(HypeRClient._as_text(q) for q in queries)
        )
        body = await self._json_call(
            "POST", "/v1/prepare", request.to_json(), self._begin_call(deadline)
        )
        return PrepareAnswer.from_json(body)

    async def submit_job(
        self,
        query: Any = None,
        *,
        queries: Sequence[Any] | None = None,
        priority: str = "normal",
        run_at_generation: int | None = None,
        exhaustive: bool = False,
        deadline: float | None = None,
    ) -> JobStatus:
        """``POST /v1/jobs``: enqueue one query (or a batch) as a durable job.

        Exactly one of ``query``/``queries`` must be given.  See the sync
        client for the idempotency caveat on transport retries.
        """
        request = JobSubmitRequest(
            query=HypeRClient._as_text(query) if query is not None else None,
            queries=(
                tuple(HypeRClient._as_text(q) for q in queries)
                if queries is not None
                else None
            ),
            priority=priority,
            run_at_generation=run_at_generation,
            exhaustive=exhaustive,
        )
        body = await self._json_call(
            "POST",
            "/v1/jobs",
            request.to_json(),
            self._begin_call(deadline),
            accept=(200, 202),
        )
        return JobStatus.from_json(body)

    async def job(self, job_id: str, *, deadline: float | None = None) -> JobStatus:
        """``GET /v1/jobs/{id}``: the job's current status."""
        body = await self.get_json(f"/v1/jobs/{job_id}", deadline=deadline)
        return JobStatus.from_json(body)

    async def jobs(self, *, deadline: float | None = None) -> JobListAnswer:
        """``GET /v1/jobs``: this client's jobs (per ``client_id``), oldest first."""
        body = await self.get_json("/v1/jobs", deadline=deadline)
        return JobListAnswer.from_json(body)

    async def job_result(
        self, job_id: str, *, deadline: float | None = None
    ) -> dict[str, Any]:
        """``GET /v1/jobs/{id}/result``: the finished job's result document."""
        return await self.get_json(f"/v1/jobs/{job_id}/result", deadline=deadline)

    async def cancel_job(
        self, job_id: str, *, deadline: float | None = None
    ) -> JobStatus:
        """``POST /v1/jobs/{id}/cancel``: request cancellation (idempotent)."""
        body = await self._json_call(
            "POST", f"/v1/jobs/{job_id}/cancel", {}, self._begin_call(deadline)
        )
        return JobStatus.from_json(body)

    async def job_events(
        self,
        job_id: str,
        *,
        timeout_s: float | None = None,
        deadline: float | None = None,
    ) -> AsyncIterator[dict[str, Any]]:
        """``GET /v1/jobs/{id}/events``: stream the job's NDJSON event lines.

        Yields each event dict live and ends after the server's
        ``{"done": true, ...}`` line (yielded last); a stream that ends
        before that line raises :class:`TransportError`.
        """
        path = f"/v1/jobs/{job_id}/events"
        if timeout_s is not None:
            path += f"?timeout_s={float(timeout_s):g}"
        budget = self._begin_call(deadline)
        conn, status, headers, will_close = await self._request_head(
            "GET", path, None, budget
        )
        if status != 200:
            raw = await self._read_full_body(conn, headers, budget)
            self._finish(conn, will_close)
            raise _error_from_response(
                status, _decode_body(raw), request_id=budget.request_id
            )
        done = False
        async for data in self._ndjson_stream(conn, budget, "job event"):
            if not done:
                done = bool(data.get("done"))
                yield data
        if not done:
            self._discard(conn)
            raise TransportError(
                "job event stream ended early: no done line",
                request_id=budget.request_id,
            )
        self._finish(conn, will_close)

    async def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll_seconds: float = 0.25,
    ) -> JobStatus:
        """Block until the job reaches a terminal state; returns its status."""
        budget = _Deadline(timeout)
        while True:
            status = await self.job(job_id, deadline=budget.remaining())
            if status.terminal:
                return status
            budget.check()
            await self._sleep(min(poll_seconds, budget.cap(self.timeout)), budget)
