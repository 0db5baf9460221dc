"""``HypeRClient`` — the stdlib Python SDK for the v1 HTTP API.

One keep-alive connection per client, typed answers, and production-shaped
failure handling::

    from repro.api import HypeRClient, what_if, set_, avg

    with HypeRClient("127.0.0.1", 8000) as client:
        answer = client.query(
            what_if().use("Credit").update(set_("CreditAmount", 1000)).output(avg("Risk"))
        )
        print(answer.value)
        for item in client.batch(["USE Credit UPDATE(Status) = 4 "
                                  "OUTPUT AVG(POST(Credit))"]):
            print(item.index, item.result.value if item.ok else item.error.message)

Behaviors:

* **Inputs.** ``query``/``batch`` accept SQL-extension text, built query
  objects, or fluent builders — non-text inputs are rendered through
  :func:`repro.lang.unparse`, whose output fingerprints identically, so the
  server's caches treat them as the same plan.
* **Retries.** Bounded (``max_retries``); 429 answers honor the server's
  ``Retry-After`` before retrying, transport failures (server closed the
  keep-alive connection) reconnect with exponential backoff.  Safe because
  every endpoint is either read-only or (for ``update``) an idempotent
  whole-column overwrite — replaying it commits the same values again.
* **Deadlines.** ``deadline`` caps the *whole* call including retries and
  backoff sleeps; when it cannot be met the client raises
  :class:`DeadlineExceeded` instead of sleeping past it.
* **Streaming.** :meth:`HypeRClient.batch` yields
  :class:`~repro.api.schemas.BatchItem` lines as the server streams them
  (completion order); :meth:`HypeRClient.job_events` yields job progress
  lines live.  A stream that ends before its ``done`` line raises
  :class:`TransportError`.
"""

from __future__ import annotations

import gzip as gzip_module
import http.client
import json
import time
from typing import Any, Iterable, Iterator, Sequence

from ..exceptions import HypeRError
from ..obs.trace import new_request_id
from .endpoints import GZIP_MIN_BYTES
from .schemas import (
    Answer,
    BatchItem,
    BatchRequest,
    ErrorEnvelope,
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

__all__ = [
    "HypeRClient",
    "HypeRClientError",
    "TransportError",
    "DeadlineExceeded",
    "ServerDeadlineExceeded",
    "ApiStatusError",
    "OverloadedError",
]


def _tag_request(message: str, request_id: str) -> str:
    return f"{message} [request {request_id}]" if request_id else message


class HypeRClientError(HypeRError):
    """Base class of every client-side failure.

    ``request_id`` is the ``X-Request-Id`` the failed call carried, so a
    client-side error names the exact server-side trace/log entries to pull.
    """

    def __init__(self, message: str, *, request_id: str = "") -> None:
        super().__init__(_tag_request(message, request_id))
        self.request_id = request_id


class TransportError(HypeRClientError):
    """The connection failed and the retry budget is exhausted."""


class DeadlineExceeded(HypeRClientError):
    """The request deadline expired before an answer arrived."""


class ApiStatusError(HypeRClientError):
    """The server answered with an error status; carries the parsed envelope."""

    def __init__(
        self,
        status: int,
        envelope: ErrorEnvelope,
        body: dict[str, Any],
        *,
        request_id: str = "",
    ):
        super().__init__(f"HTTP {status}: {envelope.message}", request_id=request_id)
        self.status = status
        self.envelope = envelope
        self.body = body

    @property
    def code(self) -> str:
        return self.envelope.code


class ServerDeadlineExceeded(ApiStatusError, DeadlineExceeded):
    """504 ``deadline_exceeded``: the request's ``deadline_ms`` ran out server-side.

    Subclasses both :class:`ApiStatusError` (it carries a parsed envelope) and
    :class:`DeadlineExceeded` (a ``except DeadlineExceeded`` catches budget
    exhaustion wherever the clock ran out — client or server).
    """


class OverloadedError(ApiStatusError):
    """429 after the retry budget; ``retry_after`` is the server's last hint."""

    def __init__(
        self,
        status: int,
        envelope: ErrorEnvelope,
        body: dict[str, Any],
        *,
        request_id: str = "",
    ):
        super().__init__(status, envelope, body, request_id=request_id)
        self.retry_after = float(body.get("retry_after") or 1.0)


def _error_from_response(
    status: int, body: dict[str, Any], *, request_id: str = ""
) -> ApiStatusError:
    try:
        envelope = ErrorEnvelope.from_json(body)
    except HypeRError:
        envelope = ErrorEnvelope("error", f"HTTP {status}: {body!r}")
    if status == 429:
        return OverloadedError(status, envelope, body, request_id=request_id)
    if envelope.code == "deadline_exceeded":
        return ServerDeadlineExceeded(status, envelope, body, request_id=request_id)
    return ApiStatusError(status, envelope, body, request_id=request_id)


class _Deadline:
    """Wall-clock budget for one logical call (request + retries + sleeps)."""

    __slots__ = ("expires_at", "request_id")

    def __init__(self, seconds: float | None, request_id: str = "") -> None:
        self.expires_at = None if seconds is None else time.monotonic() + seconds
        self.request_id = request_id

    def remaining(self) -> float | None:
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def check(self) -> None:
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                "request deadline expired", request_id=self.request_id
            )

    def cap(self, seconds: float) -> float:
        remaining = self.remaining()
        return seconds if remaining is None else min(seconds, max(remaining, 0.0))


class HypeRClient:
    """Client for a HypeR service's ``/v1`` HTTP API (``repro serve``).

    Parameters
    ----------
    host / port:
        Server address (as printed by ``repro serve``).
    timeout:
        Socket timeout per attempt, seconds (also the default deadline floor).
    max_retries:
        Retry budget per call for 429s and transport failures; ``0`` disables
        retrying entirely.
    backoff_seconds:
        Base of the exponential reconnect backoff (doubles per attempt).
    trace:
        When true, every query/update asks the server for its span tree
        (``?trace=1``); the answer's ``trace`` field carries it back.

    Every call sends a fresh ``X-Request-Id`` (kept across that call's
    retries, available afterwards as :attr:`last_request_id`), and every
    client-side error names the id it failed under — one string correlates a
    client log line, the server's trace, and its slow-query log.

    Not thread-safe: one client wraps one keep-alive connection.  Create one
    client per thread (they are cheap — the socket opens lazily).
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
        client_id: str = "",
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.trace = trace
        #: sent as ``X-Client-Id`` on every request; the server uses it for
        #: per-client stats, job ownership, and quota accounting.  Empty means
        #: the server assigns a per-connection anonymous id.
        self.client_id = client_id
        #: request bodies at or above this size are sent gzip-compressed;
        #: ``None`` disables request compression (responses are still
        #: negotiated via ``Accept-Encoding: gzip`` and decompressed)
        self.gzip_min_bytes = gzip_min_bytes
        #: the X-Request-Id of the most recently started call
        self.last_request_id: str = ""
        self._conn: http.client.HTTPConnection | None = None

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HypeRClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------------------

    def _connection(self, deadline: _Deadline) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self._conn.timeout = self.cap_timeout(deadline)
        if self._conn.sock is not None:
            self._conn.sock.settimeout(self._conn.timeout)
        return self._conn

    def cap_timeout(self, deadline: _Deadline) -> float:
        capped = deadline.cap(self.timeout)
        return max(capped, 1e-3)

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _sleep(self, seconds: float, deadline: _Deadline) -> None:
        remaining = deadline.remaining()
        if remaining is not None and seconds >= remaining:
            raise DeadlineExceeded(
                f"request deadline expires in {remaining:.3f}s, "
                f"cannot wait {seconds:.3f}s to retry",
                request_id=deadline.request_id,
            )
        time.sleep(seconds)

    def _begin_call(self, deadline: float | None) -> _Deadline:
        """Mint the call's request id and wall-clock budget (shared by retries)."""
        self.last_request_id = new_request_id()
        return _Deadline(deadline, self.last_request_id)

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None,
        deadline: _Deadline,
    ) -> http.client.HTTPResponse:
        """Send one request, retrying 429s (per Retry-After) and dropped sockets."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        headers["Accept-Encoding"] = "gzip"
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        if (
            body is not None
            and self.gzip_min_bytes is not None
            and len(body) >= self.gzip_min_bytes
        ):
            # mtime=0 keeps compression deterministic (same body, same bytes)
            body = gzip_module.compress(body, compresslevel=6, mtime=0)
            headers["Content-Encoding"] = "gzip"
        if deadline.request_id:
            # retries reuse the id: they are the same logical request
            headers["X-Request-Id"] = deadline.request_id
        attempt = 0
        while True:
            deadline.check()
            conn = self._connection(deadline)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except (ConnectionError, http.client.HTTPException, TimeoutError, OSError) as error:
                self._drop_connection()
                if attempt >= self.max_retries:
                    raise TransportError(
                        f"{method} {path} failed after {attempt + 1} attempt(s): "
                        f"{type(error).__name__}: {error}",
                        request_id=deadline.request_id,
                    ) from error
                self._sleep(self.backoff_seconds * (2**attempt), deadline)
                attempt += 1
                continue
            if response.status == 429 and attempt < self.max_retries:
                rejection = _decode_body(_read_body(response))
                if response.will_close:
                    self._drop_connection()
                # the body's retry_after is the server's precise float hint;
                # the Retry-After header is ceiled to whole seconds, so it
                # only serves as the fallback
                hint = rejection.get("retry_after")
                if hint is None:
                    header = response.getheader("Retry-After")
                    hint = float(header) if header else 1.0
                self._sleep(max(float(hint), 0.0), deadline)
                attempt += 1
                continue
            return response

    def _json_call(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None,
        deadline: _Deadline,
        *,
        accept: tuple[int, ...] = (200,),
    ) -> dict[str, Any]:
        response = self._request(method, path, payload, deadline)
        raw = _read_body(response)
        if response.will_close:
            self._drop_connection()
        body = _decode_body(raw)
        if response.status not in accept:
            raise _error_from_response(
                response.status, body, request_id=deadline.request_id
            )
        return body

    # -- query text coercion -----------------------------------------------------------

    @staticmethod
    def _server_deadline_ms(
        deadline: float | None, deadline_ms: int | None
    ) -> int | None:
        """The ``deadline_ms`` a request carries: explicit, or the call budget."""
        if deadline_ms is not None:
            return deadline_ms
        if deadline is None:
            return None
        return max(1, int(deadline * 1000))

    @staticmethod
    def _as_text(query: Any) -> str:
        if isinstance(query, str):
            return query
        from ..lang.unparse import unparse
        from .builder import as_query_object

        return unparse(as_query_object(query))

    # -- endpoints ---------------------------------------------------------------------

    def health(self, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET /v1/health``."""
        return self._json_call("GET", "/v1/health", None, self._begin_call(deadline))

    def stats(self, *, deadline: float | None = None) -> StatsSnapshot:
        """``GET /v1/stats`` as a typed :class:`StatsSnapshot`."""
        body = self._json_call("GET", "/v1/stats", None, self._begin_call(deadline))
        return StatsSnapshot.from_json(body)

    def metrics(self, *, deadline: float | None = None) -> str:
        """``GET /v1/metrics``: the server's Prometheus text exposition."""
        budget = self._begin_call(deadline)
        response = self._request("GET", "/v1/metrics", None, budget)
        raw = _read_body(response)
        if response.will_close:
            self._drop_connection()
        if response.status != 200:
            raise _error_from_response(
                response.status, _decode_body(raw), request_id=budget.request_id
            )
        return raw.decode("utf-8")

    def slow_queries(self, *, deadline: float | None = None) -> dict[str, Any]:
        """``GET /v1/slow``: the server's slow-query log snapshot."""
        return self._json_call("GET", "/v1/slow", None, self._begin_call(deadline))

    def query(
        self,
        query: Any,
        *,
        exhaustive: bool = False,
        deadline: float | None = None,
        deadline_ms: int | None = None,
        trace: bool | None = None,
    ) -> Answer:
        """Answer one query (text, query object, or builder) as a typed answer.

        ``trace`` overrides the client default; a builder that asked for
        ``.trace()`` turns it on for this call as well.  Traced answers carry
        the server's span tree in their ``trace`` field.  The request carries
        ``deadline_ms`` (explicit, or derived from ``deadline``) so the server
        answers 504 ``deadline_exceeded`` — raised here as
        :class:`ServerDeadlineExceeded` — instead of computing a doomed answer.
        """
        wants_trace = self.trace if trace is None else trace
        wants_trace = wants_trace or bool(getattr(query, "wants_trace", False))
        request = QueryRequest(
            query=self._as_text(query),
            exhaustive=exhaustive,
            deadline_ms=self._server_deadline_ms(deadline, deadline_ms),
        )
        path = "/v1/query?trace=1" if wants_trace else "/v1/query"
        body = self._json_call(
            "POST", path, request.to_json(), self._begin_call(deadline)
        )
        return answer_from_json(body)

    def update(
        self,
        assignments: dict[str, dict[str, Sequence[float]]],
        *,
        deadline: float | None = None,
        trace: bool | None = None,
    ) -> UpdateAnswer:
        """``POST /v1/update``: commit whole-column overwrites as one generation.

        ``assignments`` maps relation → attribute → the full new column (one
        value per row).  The server commits everything named here atomically
        under MVCC — queries racing the commit answer entirely from the old
        or entirely from the new snapshot.  Idempotent (an overwrite replayed
        by a transport retry commits the same values), so the usual retry
        policy applies.
        """
        request = UpdateRequest(
            assignments={
                relation: {attr: tuple(float(v) for v in values) for attr, values in columns.items()}
                for relation, columns in assignments.items()
            }
        )
        wants_trace = self.trace if trace is None else trace
        path = "/v1/update?trace=1" if wants_trace else "/v1/update"
        body = self._json_call(
            "POST", path, request.to_json(), self._begin_call(deadline)
        )
        return UpdateAnswer.from_json(body)

    def batch(
        self,
        queries: Sequence[Any] | Iterable[Any],
        *,
        deadline: float | None = None,
        deadline_ms: int | None = None,
    ) -> Iterator[BatchItem]:
        """Stream a batch's per-query outcomes as they complete.

        Yields the server's NDJSON lines live, in completion order.  The
        iterator owns the connection until exhausted — drain it before
        issuing the next call.
        """
        texts = [self._as_text(q) for q in queries]
        request = BatchRequest(
            queries=tuple(texts),
            deadline_ms=self._server_deadline_ms(deadline, deadline_ms),
        )
        budget = self._begin_call(deadline)
        response = self._request("POST", "/v1/batch", request.to_json(), budget)
        if response.status != 200:
            raw = _read_body(response)
            if response.will_close:
                self._drop_connection()
            raise _error_from_response(
                response.status, _decode_body(raw), request_id=budget.request_id
            )
        content_type = (response.getheader("Content-Type") or "").lower()
        if "ndjson" in content_type:
            return self._iter_ndjson(response, len(texts), budget)
        # only an empty batch is answered as one JSON object
        raw = _read_body(response)
        if response.will_close:
            self._drop_connection()
        _decode_body(raw)
        if texts:
            raise TransportError(
                "expected an NDJSON batch stream", request_id=budget.request_id
            )
        return iter(())

    def batch_collect(
        self,
        queries: Sequence[Any],
        *,
        deadline: float | None = None,
    ) -> list[BatchItem]:
        """All batch outcomes, ordered by query index."""
        items = list(self.batch(queries, deadline=deadline))
        return sorted(items, key=lambda item: item.index)

    # -- prepare / jobs ----------------------------------------------------------------

    def prepare(
        self,
        queries: Sequence[Any] | Iterable[Any],
        *,
        deadline: float | None = None,
    ) -> PrepareAnswer:
        """``POST /v1/prepare``: warm server-side plans/views for these queries.

        Preparation is a hint — it never changes answers, only moves plan and
        view construction off the first query's latency.  Safe to retry.
        """
        request = PrepareRequest(queries=tuple(self._as_text(q) for q in queries))
        body = self._json_call(
            "POST", "/v1/prepare", request.to_json(), self._begin_call(deadline)
        )
        return PrepareAnswer.from_json(body)

    def submit_job(
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

        Exactly one of ``query``/``queries`` must be given.  Submission is
        journaled before the 202 answer, so an accepted job survives a server
        crash.  Note that a *transport* retry of a submit may enqueue the job
        twice (submission is not idempotent); poll :meth:`jobs` to reconcile.
        """
        request = JobSubmitRequest(
            query=self._as_text(query) if query is not None else None,
            queries=(
                tuple(self._as_text(q) for q in queries)
                if queries is not None
                else None
            ),
            priority=priority,
            run_at_generation=run_at_generation,
            exhaustive=exhaustive,
        )
        body = self._json_call(
            "POST",
            "/v1/jobs",
            request.to_json(),
            self._begin_call(deadline),
            accept=(200, 202),
        )
        return JobStatus.from_json(body)

    def job(self, job_id: str, *, deadline: float | None = None) -> JobStatus:
        """``GET /v1/jobs/{id}``: the job's current status."""
        body = self._json_call(
            "GET", f"/v1/jobs/{job_id}", None, self._begin_call(deadline)
        )
        return JobStatus.from_json(body)

    def jobs(self, *, deadline: float | None = None) -> JobListAnswer:
        """``GET /v1/jobs``: this client's jobs (per ``client_id``), oldest first."""
        body = self._json_call("GET", "/v1/jobs", None, self._begin_call(deadline))
        return JobListAnswer.from_json(body)

    def job_result(
        self, job_id: str, *, deadline: float | None = None
    ) -> dict[str, Any]:
        """``GET /v1/jobs/{id}/result``: the finished job's result document.

        404 ``not_found`` while the job is still in flight, 404
        ``result_expired`` once a succeeded job's result has aged out of the
        retention store (the terminal *status* survives either way).
        """
        return self._json_call(
            "GET", f"/v1/jobs/{job_id}/result", None, self._begin_call(deadline)
        )

    def cancel_job(self, job_id: str, *, deadline: float | None = None) -> JobStatus:
        """``POST /v1/jobs/{id}/cancel``: request cancellation (idempotent)."""
        body = self._json_call(
            "POST", f"/v1/jobs/{job_id}/cancel", {}, self._begin_call(deadline)
        )
        return JobStatus.from_json(body)

    def job_events(
        self,
        job_id: str,
        *,
        timeout_s: float | None = None,
        deadline: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """``GET /v1/jobs/{id}/events``: stream the job's NDJSON event lines.

        Yields each event dict as the server emits it and ends after the
        server's ``{"done": true, ...}`` line (yielded last).  ``timeout_s``
        caps how long the *server* keeps the stream open waiting for the job
        to finish.  The iterator owns the connection until exhausted.
        """
        path = f"/v1/jobs/{job_id}/events"
        if timeout_s is not None:
            path += f"?timeout_s={float(timeout_s):g}"
        budget = self._begin_call(deadline)
        response = self._request("GET", path, None, budget)
        if response.status != 200:
            raw = _read_body(response)
            if response.will_close:
                self._drop_connection()
            raise _error_from_response(
                response.status, _decode_body(raw), request_id=budget.request_id
            )
        return self._iter_events(response, budget)

    def _iter_events(
        self, response: http.client.HTTPResponse, deadline: _Deadline
    ) -> Iterator[dict[str, Any]]:
        try:
            while True:
                deadline.check()
                line = response.readline()
                if not line:
                    self._drop_connection()
                    raise TransportError(
                        "job event stream ended early: no done line",
                        request_id=deadline.request_id,
                    )
                if not line.strip():
                    continue
                data = json.loads(line)
                yield data
                if data.get("done"):
                    response.read()  # drain the chunked terminator
                    if response.will_close:
                        self._drop_connection()
                    return
        except (ConnectionError, http.client.HTTPException, TimeoutError, OSError) as error:
            self._drop_connection()
            raise TransportError(
                f"job event stream failed: {error}", request_id=deadline.request_id
            ) from error

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll_seconds: float = 0.25,
    ) -> JobStatus:
        """Block until the job reaches a terminal state; returns its status.

        Polls ``GET /v1/jobs/{id}`` (each poll under the remaining budget);
        raises :class:`DeadlineExceeded` if ``timeout`` elapses first.
        """
        budget = _Deadline(timeout)
        while True:
            remaining = budget.remaining()
            status = self.job(job_id, deadline=remaining)
            if status.terminal:
                return status
            budget.check()
            self._sleep(min(poll_seconds, self.cap_timeout(budget)), budget)

    # -- batch framing -----------------------------------------------------------------

    def _iter_ndjson(
        self,
        response: http.client.HTTPResponse,
        n_queries: int,
        deadline: _Deadline,
    ) -> Iterator[BatchItem]:
        seen = 0
        try:
            while True:
                deadline.check()
                line = response.readline()
                if not line:
                    self._drop_connection()
                    raise TransportError(
                        f"batch stream ended early: {seen}/{n_queries} results",
                        request_id=deadline.request_id,
                    )
                data = json.loads(line)
                if data.get("done"):
                    if seen != n_queries:
                        raise TransportError(
                            f"batch stream closed after {seen}/{n_queries} results",
                            request_id=deadline.request_id,
                        )
                    # drain the chunked terminator so the keep-alive
                    # connection is clean for the next request
                    response.read()
                    if response.will_close:
                        self._drop_connection()
                    return
                seen += 1
                yield BatchItem.from_json(data)
        except (ConnectionError, http.client.HTTPException, TimeoutError, OSError) as error:
            self._drop_connection()
            raise TransportError(
                f"batch stream failed: {error}", request_id=deadline.request_id
            ) from error


def _read_body(response: http.client.HTTPResponse) -> bytes:
    """Read a response body, undoing negotiated ``Content-Encoding: gzip``."""
    raw = response.read()
    encoding = (response.getheader("Content-Encoding") or "").strip().lower()
    if raw and encoding == "gzip":
        try:
            raw = gzip_module.decompress(raw)
        except (OSError, EOFError) as error:
            raise TransportError(f"server sent a malformed gzip body: {error}") from None
    return raw


def _decode_body(raw: bytes) -> dict[str, Any]:
    try:
        data = json.loads(raw) if raw else {}
    except json.JSONDecodeError as error:
        raise TransportError(f"server sent a non-JSON body: {error}") from None
    if not isinstance(data, dict):
        raise TransportError(f"server sent a non-object body: {data!r}")
    return data
