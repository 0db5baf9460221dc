"""The declarative ``/v1/*`` endpoint table and wire policy.

The HTTP front door (:mod:`repro.aserve`) and the cluster shard nodes mount
this table, so routing, legacy aliases, error envelopes and the 400/413/429
semantics are defined once:

=======  ==============  ==================  ===========================================
method   v1 path         legacy alias        body
=======  ==============  ==================  ===========================================
GET      ``/v1/health``  ``/health``         ``{"status", "generation", "api_version"}``
GET      ``/v1/stats``   ``/stats``          :class:`~repro.api.schemas.StatsSnapshot`
GET      ``/v1/metrics`` ``/metrics``        Prometheus text exposition (not JSON)
GET      ``/v1/slow``    —                   slow-query log snapshot

POST     ``/v1/query``   ``/query``          :class:`~repro.api.schemas.QueryRequest` →
                                             :class:`~repro.api.schemas.WhatIfAnswer` /
                                             :class:`~repro.api.schemas.HowToAnswer`
POST     ``/v1/batch``   ``/batch``          :class:`~repro.api.schemas.BatchRequest` →
                                             NDJSON stream of :class:`~repro.api.schemas.BatchItem`
POST     ``/v1/update``  —                   :class:`~repro.api.schemas.UpdateRequest` →
                                             :class:`~repro.api.schemas.UpdateAnswer`
POST     ``/v1/prepare`` —                   :class:`~repro.api.schemas.PrepareRequest` →
                                             :class:`~repro.api.schemas.PrepareAnswer`
POST     ``/v1/jobs``    —                   :class:`~repro.api.schemas.JobSubmitRequest`
                                             → :class:`~repro.api.schemas.JobStatus` (202)
GET      ``/v1/jobs``    —                   :class:`~repro.api.schemas.JobListAnswer`
GET      ``/v1/jobs/{id}``        —          :class:`~repro.api.schemas.JobStatus`
GET      ``/v1/jobs/{id}/events`` —          NDJSON progress-event stream
GET      ``/v1/jobs/{id}/result`` —          retained result payload
POST     ``/v1/jobs/{id}/cancel`` —          :class:`~repro.api.schemas.JobStatus`
=======  ==============  ==================  ===========================================

Aliases answer byte-identically to their canonical path.  Every failure maps
through :func:`envelope_for` to one :class:`~repro.api.schemas.ErrorEnvelope`
(HTTP status + stable ``code``), and the request-body guards
(:func:`check_body_length` → 413, :func:`decode_json_object` → 400) live here
so the limit policy is a single definition.  This module knows nothing about
sockets: front ends feed it parsed JSON bodies and write out what it returns.
"""

from __future__ import annotations

import gzip as gzip_module
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..exceptions import HypeRError, QuerySemanticsError, QuerySyntaxError
from ..obs import trace as obs_trace
from ..obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .schemas import (
    API_VERSION,
    BatchRequest,
    ErrorEnvelope,
    PrepareAnswer,
    PrepareRequest,
    QueryRequest,
    StatsSnapshot,
    UpdateAnswer,
    UpdateRequest,
    WireFormatError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.session import HypeRService

__all__ = [
    "MAX_BODY_BYTES",
    "GZIP_MIN_BYTES",
    "PayloadError",
    "ApiError",
    "Endpoint",
    "V1_ENDPOINTS",
    "ENDPOINTS_SUMMARY",
    "resolve",
    "match",
    "check_body_length",
    "decode_json_object",
    "decompress_body",
    "accepts_gzip",
    "maybe_gzip",
    "envelope_for",
    "code_for_status",
    "not_found",
    "deadline_error",
    "RequestDeadline",
    "health_payload",
    "stats_payload",
    "metrics_text",
    "slow_payload",
    "wants_trace",
    "METRICS_CONTENT_TYPE",
    "parse_query_request",
    "parse_batch_request",
    "parse_update_request",
    "parse_prepare_request",
    "prepare_payload",
    "apply_update_payload",
    "execute_query_payload",
    "batch_line",
    "batch_done_line",
]

#: default request-body ceiling of the front door
MAX_BODY_BYTES = 4 * 1024 * 1024

#: default size threshold (bytes) below which responses are never gzipped —
#: compressing tiny payloads costs more than it saves on the wire
GZIP_MIN_BYTES = 2048


class PayloadError(ValueError):
    """A request body rejected before execution; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ApiError(HypeRError):
    """An error with a fully-determined HTTP answer (status + envelope)."""

    def __init__(self, status: int, envelope: ErrorEnvelope) -> None:
        super().__init__(envelope.message)
        self.status = status
        self.envelope = envelope

    def body(self) -> dict[str, Any]:
        return self.envelope.to_json()


# -- the endpoint table ----------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """One row of the public API: canonical ``/v1`` path plus legacy aliases.

    A path may contain ``{param}`` segments (``/v1/jobs/{id}``); the front
    door routes through :func:`match`, which binds them to concrete path
    segments and returns the bindings alongside the endpoint.
    """

    name: str
    method: str
    path: str
    aliases: tuple[str, ...] = ()
    streaming: bool = False

    @property
    def paths(self) -> tuple[str, ...]:
        return (self.path, *self.aliases)

    @property
    def parameterized(self) -> bool:
        return "{" in self.path


V1_ENDPOINTS: tuple[Endpoint, ...] = (
    Endpoint("health", "GET", "/v1/health", aliases=("/health",)),
    Endpoint("stats", "GET", "/v1/stats", aliases=("/stats",)),
    Endpoint("metrics", "GET", "/v1/metrics", aliases=("/metrics",)),
    Endpoint("slow", "GET", "/v1/slow"),
    Endpoint("query", "POST", "/v1/query", aliases=("/query",)),
    Endpoint("batch", "POST", "/v1/batch", aliases=("/batch",), streaming=True),
    Endpoint("update", "POST", "/v1/update"),
    Endpoint("prepare", "POST", "/v1/prepare"),
    Endpoint("jobs_submit", "POST", "/v1/jobs"),
    Endpoint("jobs_list", "GET", "/v1/jobs"),
    Endpoint("job_status", "GET", "/v1/jobs/{id}"),
    Endpoint("job_events", "GET", "/v1/jobs/{id}/events", streaming=True),
    Endpoint("job_result", "GET", "/v1/jobs/{id}/result"),
    Endpoint("job_cancel", "POST", "/v1/jobs/{id}/cancel"),
)

#: one-line listing of the table, printed by ``repro serve`` at startup
ENDPOINTS_SUMMARY = ", ".join(f"{e.method} {e.path}" for e in V1_ENDPOINTS)

_ROUTES: dict[tuple[str, str], Endpoint] = {
    (endpoint.method, path): endpoint
    for endpoint in V1_ENDPOINTS
    for path in endpoint.paths
    if "{" not in path
}

#: parameterized routes: (method, path segments) — "{x}" segments bind
_PATTERN_ROUTES: tuple[tuple[str, tuple[str, ...], Endpoint], ...] = tuple(
    (endpoint.method, tuple(path.split("/")), endpoint)
    for endpoint in V1_ENDPOINTS
    for path in endpoint.paths
    if "{" in path
)


def resolve(method: str, path: str) -> Endpoint | None:
    """Look up the endpoint serving ``method path`` (canonical or alias)."""
    endpoint_params = match(method, path)
    return endpoint_params[0] if endpoint_params is not None else None


def match(method: str, path: str) -> tuple[Endpoint, dict[str, str]] | None:
    """Route ``method path``, binding any ``{param}`` segments.

    Exact (and alias) paths win; otherwise parameterized rows match when
    every literal segment is equal and every ``{param}`` segment is
    non-empty.  Returns ``(endpoint, params)`` or ``None``.
    """
    endpoint = _ROUTES.get((method, path))
    if endpoint is not None:
        return endpoint, {}
    parts = tuple(path.split("/"))
    for pattern_method, segments, pattern_endpoint in _PATTERN_ROUTES:
        if pattern_method != method or len(segments) != len(parts):
            continue
        params: dict[str, str] = {}
        for segment, part in zip(segments, parts):
            if segment.startswith("{") and segment.endswith("}"):
                if not part:
                    params = {}
                    break
                params[segment[1:-1]] = part
            elif segment != part:
                params = {}
                break
        else:
            return pattern_endpoint, params
    return None


# -- body guards (shared 413/400 policy) -----------------------------------------------


def check_body_length(length: int | None, *, max_bytes: int = MAX_BODY_BYTES) -> int:
    """Validate a declared Content-Length: 400 when absent, 413 when too big."""
    if length is None or length <= 0:
        raise PayloadError(400, "request body missing (Content-Length required)")
    if length > max_bytes:
        raise PayloadError(
            413, f"request body of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    return length


def decode_json_object(raw: bytes) -> dict[str, Any]:
    """Decode a request body into a JSON object; malformed input is 400."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise PayloadError(400, f"malformed JSON body: {error}") from None
    if not isinstance(data, dict):
        raise PayloadError(400, "request body must be a JSON object")
    return data


def decompress_body(
    raw: bytes, content_encoding: str | None, *, max_bytes: int = MAX_BODY_BYTES
) -> bytes:
    """Undo a request body's ``Content-Encoding``.

    Only ``gzip`` (and the no-op ``identity``) are supported; anything else is
    400.  The *decompressed* size is held to the same ceiling as a plain body,
    so a tiny gzip bomb cannot smuggle past the 413 guard.
    """
    encoding = (content_encoding or "").strip().lower()
    if encoding in ("", "identity"):
        return raw
    if encoding != "gzip":
        raise PayloadError(400, f"unsupported Content-Encoding {content_encoding!r}")
    try:
        body = gzip_module.decompress(raw)
    except (OSError, EOFError) as error:
        raise PayloadError(400, f"malformed gzip body: {error}") from None
    if len(body) > max_bytes:
        raise PayloadError(
            413,
            f"decompressed body of {len(body)} bytes exceeds the {max_bytes}-byte limit",
        )
    return body


def accepts_gzip(accept_encoding: str | None) -> bool:
    """True when an ``Accept-Encoding`` header value admits gzip responses."""
    if not accept_encoding:
        return False
    for part in accept_encoding.split(","):
        token, _, params = part.partition(";")
        if token.strip().lower() not in ("gzip", "*"):
            continue
        quality = 1.0
        for param in params.split(";"):
            key, _, value = param.replace(" ", "").partition("=")
            if key.lower() == "q":
                try:
                    quality = float(value)
                except ValueError:
                    pass
        return quality > 0.0
    return False


def maybe_gzip(
    body: bytes, *, enabled: bool, threshold: int = GZIP_MIN_BYTES
) -> tuple[bytes, bool]:
    """Compress ``body`` when the peer accepts gzip and it is worth the CPU.

    Returns ``(body, compressed)``; ``mtime=0`` keeps the output deterministic
    for byte-level tests.
    """
    if not enabled or len(body) < threshold:
        return body, False
    return gzip_module.compress(body, compresslevel=6, mtime=0), True


# -- the one exception → envelope mapping ----------------------------------------------

_STATUS_CODES = {
    400: "bad_request",
    404: "not_found",
    408: "bad_request",
    411: "bad_request",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    501: "not_implemented",
    503: "unavailable",
    504: "deadline_exceeded",
    505: "bad_request",
}


def code_for_status(status: int) -> str:
    """The stable envelope code of a bare HTTP status (protocol-level errors)."""
    return _STATUS_CODES.get(status, "error")


def envelope_for(error: BaseException) -> tuple[int, ErrorEnvelope]:
    """Map any failure to its HTTP status and :class:`ErrorEnvelope`.

    This is the single classification every route uses, so the same bad
    input gets the identical answer on every endpoint.
    """
    if isinstance(error, ApiError):
        return error.status, error.envelope
    if isinstance(error, PayloadError):
        return error.status, ErrorEnvelope(code_for_status(error.status), str(error))
    if isinstance(error, QuerySyntaxError):
        detail: dict[str, Any] = {}
        if error.position is not None:
            detail["position"] = error.position
        if error.line is not None:
            detail["line"] = error.line
        return 400, ErrorEnvelope("query_syntax", str(error), detail or None)
    if isinstance(error, QuerySemanticsError):
        return 400, ErrorEnvelope("query_semantics", str(error))
    if isinstance(error, (HypeRError, ValueError)):
        return 400, ErrorEnvelope("bad_request", str(error))
    return 500, ErrorEnvelope("internal", f"{type(error).__name__}: {error}")


def not_found(path: str) -> ApiError:
    return ApiError(404, ErrorEnvelope("not_found", f"unknown path {path!r}"))


def deadline_error(deadline_ms: int) -> ApiError:
    """The 504 answered instead of computing once a request's budget ran out."""
    return ApiError(
        504,
        ErrorEnvelope(
            "deadline_exceeded",
            f"deadline of {deadline_ms} ms expired before execution",
            {"deadline_ms": deadline_ms},
        ),
    )


class RequestDeadline:
    """Server-side remaining-budget tracker of one request's ``deadline_ms``.

    Anchored to the monotonic clock when the request body is decoded, so time
    spent waiting in the admission queue counts against the budget.  A
    relaying front door (the cluster coordinator) forwards
    :meth:`remaining_ms` downstream — the budget decrements across hops.
    """

    def __init__(self, deadline_ms: int) -> None:
        self.deadline_ms = int(deadline_ms)
        self._expires = time.monotonic() + self.deadline_ms / 1000.0

    @classmethod
    def of(cls, request: Any) -> "RequestDeadline | None":
        """The deadline of a query/batch request, or None when unbudgeted."""
        deadline_ms = getattr(request, "deadline_ms", None)
        if deadline_ms is None:
            return None
        return cls(deadline_ms)

    def remaining_ms(self) -> float:
        return (self._expires - time.monotonic()) * 1000.0

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires

    def check(self) -> None:
        """Raise the ``deadline_exceeded`` :class:`ApiError` once expired."""
        if self.expired:
            raise deadline_error(self.deadline_ms)


# -- request decoding ------------------------------------------------------------------


def parse_query_request(body: dict[str, Any]) -> QueryRequest:
    """Decode and validate a ``/v1/query`` body (schema violations are 400)."""
    try:
        return QueryRequest.from_json(body)
    except WireFormatError as error:
        raise ApiError(400, ErrorEnvelope("bad_request", str(error))) from None


def parse_batch_request(body: dict[str, Any]) -> BatchRequest:
    """Decode and validate a ``/v1/batch`` body (schema violations are 400)."""
    try:
        return BatchRequest.from_json(body)
    except WireFormatError as error:
        raise ApiError(400, ErrorEnvelope("bad_request", str(error))) from None


def parse_update_request(body: dict[str, Any]) -> UpdateRequest:
    """Decode and validate a ``/v1/update`` body (schema violations are 400)."""
    try:
        return UpdateRequest.from_json(body)
    except WireFormatError as error:
        raise ApiError(400, ErrorEnvelope("bad_request", str(error))) from None


def parse_prepare_request(body: dict[str, Any]) -> PrepareRequest:
    """Decode and validate a ``/v1/prepare`` body (schema violations are 400)."""
    try:
        return PrepareRequest.from_json(body)
    except WireFormatError as error:
        raise ApiError(400, ErrorEnvelope("bad_request", str(error))) from None


# -- response payloads -----------------------------------------------------------------


def health_payload(service: "HypeRService") -> dict[str, Any]:
    return {
        "status": "ok",
        "generation": service.generation,
        "api_version": API_VERSION,
    }


def stats_payload(service: "HypeRService") -> dict[str, Any]:
    return StatsSnapshot.from_service_stats(service.stats()).to_json()


def metrics_text(service: "HypeRService") -> str:
    """Render ``/v1/metrics``: the service registry in Prometheus text form."""
    return service.metrics.render()


def slow_payload(service: "HypeRService") -> dict[str, Any]:
    """Render ``/v1/slow``: the bounded slow-query log, worst offender first."""
    return {"api_version": API_VERSION, **service.slow_log.snapshot()}


def wants_trace(query_string: str) -> bool:
    """True when a request's query string opts into tracing (``trace=1``)."""
    for part in query_string.split("&"):
        if part in ("trace=1", "trace=true"):
            return True
    return False


def execute_query_payload(
    service: "HypeRService",
    request: QueryRequest,
    *,
    trace: "obs_trace.TraceContext | None" = None,
    deadline: "RequestDeadline | None" = None,
) -> dict[str, Any]:
    """Run one query and return its v1 answer payload (exceptions bubble).

    With a live ``trace``, the answer payload embeds the finished span tree
    under ``"trace"``; serialization itself is measured as the last span.
    An expired ``deadline`` (defaulting to the request's own ``deadline_ms``)
    answers 504 ``deadline_exceeded`` instead of computing a doomed answer.
    """
    if deadline is None:
        deadline = RequestDeadline.of(request)
    if deadline is not None:
        deadline.check()
    kwargs: dict[str, Any] = {}
    if deadline is not None and getattr(service, "accepts_deadline", False):
        # a relaying service (the cluster coordinator) decrements the
        # remaining budget across its downstream hops
        kwargs["deadline"] = deadline
    if trace is None:
        return service.execute(
            request.query, exhaustive=request.exhaustive, **kwargs
        ).payload()
    result = service.execute(
        request.query, exhaustive=request.exhaustive, trace=trace, **kwargs
    )
    with obs_trace.activate(trace), obs_trace.span("serialize"):
        payload = result.payload()
    payload["trace"] = trace.to_wire()
    return payload


def apply_update_payload(
    service: "HypeRService",
    request: UpdateRequest,
    *,
    trace: "obs_trace.TraceContext | None" = None,
) -> dict[str, Any]:
    """Commit an ``UpdateRequest`` as one MVCC generation; return its answer.

    Unknown relations/attributes and length mismatches surface as engine
    exceptions and map to 400 through :func:`envelope_for`; in-flight queries
    keep their pinned snapshot and are not paused.
    """
    assignments = {
        relation: dict(columns) for relation, columns in request.assignments.items()
    }
    with obs_trace.activate(trace):
        with obs_trace.span("update"):
            changed = service.update_relation_columns(assignments)
    payload = UpdateAnswer(
        generation=service.generation, changed=tuple(changed)
    ).to_json()
    if trace is not None:
        payload["trace"] = trace.to_wire()
    return payload


def prepare_payload(service: "HypeRService", request: PrepareRequest) -> dict[str, Any]:
    """Warm plans and estimators for the request's queries; answer counts only.

    Bad queries surface as engine exceptions and map through
    :func:`envelope_for` like any other request — preparing is strict, so a
    typo is caught before a client queues an hour of jobs behind it.
    """
    prepared = service.prepare(list(request.queries))
    count = len(prepared) if isinstance(prepared, list) else len(request.queries)
    return PrepareAnswer(
        prepared=count, generation=int(service.generation)
    ).to_json()


def batch_line(index: int, outcome: Any) -> dict[str, Any]:
    """One NDJSON line of a streamed batch: an answer or a per-query envelope."""
    if isinstance(outcome, BaseException):
        _status, envelope = envelope_for(outcome)
        return {"index": index, **envelope.to_json()}
    return {"index": index, "result": outcome.payload()}


def batch_done_line(n_queries: int) -> dict[str, Any]:
    """The closing NDJSON line of a streamed batch."""
    return {"done": True, "n_queries": n_queries}

