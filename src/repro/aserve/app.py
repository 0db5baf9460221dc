"""Endpoint routing for the HTTP front door.

:class:`AsyncApp` owns one connection loop (`handle_connection`, passed to
``asyncio.start_server``) and every ``/v1`` endpoint, plus the overload and
streaming behaviors:

* ``GET /v1/health`` — ``200 {"status": "ok", ...}``, or ``503 {"status":
  "draining"}`` once shutdown has begun;
* ``GET /v1/stats`` — :meth:`HypeRService.stats` (which embeds the serving
  counters) plus an ``"aserve"`` section with the admission controller's
  numbers (queue occupancy, peaks, decision-time percentiles);
* ``GET /v1/metrics`` — Prometheus text exposition of the shared service
  registry, rendered on the auxiliary thread so scrapes succeed under
  query-executor saturation;
* ``GET /v1/slow`` — the bounded slow-query log;
* ``POST /v1/query`` — admission-controlled single query.  At capacity the
  answer is ``429`` with a ``Retry-After`` header, decided synchronously on
  the event loop; admitted work is handed to the executor thread pool so the
  loop never blocks on an engine call;
* ``POST /v1/batch`` — reserves one admission unit per query (whole batch or
  nothing), then **streams** NDJSON lines in order of *completion*: one slow
  how-to does not head-of-line-block the other answers.  Each line is
  ``{"index": i, "result": {...}}`` or ``{"index": i, "error": ..., "code":
  ...}``, closed by ``{"done": true, "n_queries": k}``;
* ``POST /v1/update`` — commits a column-overwrite as one MVCC generation
  (body: :class:`~repro.api.schemas.UpdateRequest`).  Control-plane: not
  admission-controlled (a commit must land on a saturated server — it never
  pauses running queries, which keep their pinned snapshots), executed on
  the auxiliary thread;
* ``POST /v1/prepare`` — control-plane plan/estimator warming, also on the
  auxiliary thread;
* ``POST /v1/jobs`` and friends — the durable async job surface
  (:mod:`repro.jobs`): submit, list, status, NDJSON event streaming (the
  same chunked framing as ``/v1/batch``), result fetch, cancel.  Jobs are not
  admission-controlled — per-client quotas are their throttle, and the
  executor's running leases feed ``serving_signals()`` so interactive
  admission sees background pressure.

Every request's ``X-Request-Id`` is adopted (or minted) before routing and
echoed on every response — JSON, text, streamed, and error answers alike —
because the response helpers stamp it, not the handlers.  Requests may also
carry ``X-Client-Id``; it scopes job quotas and per-client serving stats,
defaulting to a per-connection anonymous id.

Routing, request validation and error bodies come from the ``/v1`` endpoint
table in :mod:`repro.api.endpoints` (the legacy bare paths ``/health``,
``/stats``, ``/metrics``, ``/query`` and ``/batch`` are aliases).  Oversized
bodies are ``413`` (rejected before the read, in the protocol layer),
malformed JSON ``400``, and every failure wears the shared ``{"error",
"code", "detail"?}`` envelope.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import suppress
from typing import Any, Awaitable, Callable

from ..api import endpoints as api
from ..api.endpoints import (
    GZIP_MIN_BYTES,
    MAX_BODY_BYTES,
    PayloadError,
    decode_json_object,
)
from ..api.schemas import ErrorEnvelope
from ..jobs import api as jobs_api
from ..obs import trace as obs_trace
from ..service.session import HypeRService
from .admission import AdmissionController, AdmissionRejected
from .protocol import (
    ChunkedJsonWriter,
    HttpProtocolError,
    Request,
    read_request,
    render_response,
)

__all__ = ["AsyncApp"]

Handler = Callable[[Request, asyncio.StreamWriter, bool], Awaitable[bool]]


def _retry_after_headers(rejected: AdmissionRejected) -> dict[str, str]:
    return {"Retry-After": str(max(1, math.ceil(rejected.retry_after)))}


def _rejection_body(rejected: AdmissionRejected) -> dict[str, Any]:
    """The 429 envelope plus the machine-readable retry hint."""
    body = ErrorEnvelope("rate_limited", str(rejected)).to_json()
    body["retry_after"] = rejected.retry_after
    return body


class AsyncApp:
    """Routes parsed requests to a shared :class:`HypeRService`.

    ``executor`` is the thread pool blocking engine calls run on (sized to
    ``max_inflight`` by the runner, so the admission semaphore — not the
    pool — is the true concurrency bound).  Setting :attr:`draining` flips
    ``/health`` to 503 and stamps ``Connection: close`` on every response so
    keep-alive clients migrate away while in-flight work finishes.
    """

    def __init__(
        self,
        service: HypeRService,
        admission: AdmissionController,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        executor: Executor | None = None,
        keep_alive_timeout: float = 75.0,
        gzip_min_bytes: int = GZIP_MIN_BYTES,
    ) -> None:
        self.service = service
        self.admission = admission
        self.max_body_bytes = max_body_bytes
        self.keep_alive_timeout = keep_alive_timeout
        self.gzip_min_bytes = gzip_min_bytes
        self.draining = False
        self._executor = executor
        # /stats must stay responsive when the query executor is saturated
        # (that's when an operator needs it) but service.stats() can also
        # block briefly on the engine lock during update_database — so it
        # gets its own single thread instead of the loop or the query pool
        self._aux_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="aserve-aux"
        )
        # connection tracking for the drain: open sockets, and the subset
        # currently inside a request handler (mid-response, must not be cut)
        self._connections: set[asyncio.StreamWriter] = set()
        self._busy: set[asyncio.StreamWriter] = set()
        self._handlers: dict[str, Handler] = {
            "health": self._handle_health,
            "stats": self._handle_stats,
            "metrics": self._handle_metrics,
            "slow": self._handle_slow,
            "query": self._handle_query,
            "batch": self._handle_batch,
            "update": self._handle_update,
            "prepare": self._handle_prepare,
            "jobs_submit": self._handle_jobs_submit,
            "jobs_list": self._handle_jobs_list,
            "job_status": self._handle_job_status,
            "job_result": self._handle_job_result,
            "job_events": self._handle_job_events,
            "job_cancel": self._handle_job_cancel,
        }

    def close(self) -> None:
        """Release the app's own resources (the runner calls this at drain)."""
        self._aux_executor.shutdown(wait=False, cancel_futures=True)

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def abort_idle_connections(self) -> None:
        """Close keep-alive connections that are between requests.

        Busy connections finish their in-flight response first (draining
        responses carry ``Connection: close``, so they end themselves); the
        lifecycle runner sweeps until none remain.
        """
        for writer in list(self._connections - self._busy):
            writer.close()

    def abort_all_connections(self) -> None:
        for writer in list(self._connections):
            writer.close()

    # -- connection loop ---------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, max_body_bytes=self.max_body_bytes),
                        self.keep_alive_timeout,
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection: close silently
                except HttpProtocolError as error:
                    keep = not error.close
                    envelope = ErrorEnvelope(api.code_for_status(error.status), str(error))
                    await self._respond(
                        writer,
                        error.status,
                        json.dumps(envelope.to_json()).encode(),
                        keep,
                        request_id=error.request_id or obs_trace.new_request_id(),
                    )
                    if keep:
                        continue
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self.draining
                self._busy.add(writer)
                try:
                    if not await self._dispatch(request, writer, keep_alive):
                        break
                finally:
                    self._busy.discard(writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; admission units are released in finallys
        finally:
            self._connections.discard(writer)
            self._busy.discard(writer)
            writer.close()
            with suppress(ConnectionError, asyncio.TimeoutError):
                await writer.wait_closed()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Answer one request; returns whether the connection stays open."""
        # adopt the client's X-Request-Id or mint one *before* routing, so
        # even a 404 echoes it and client logs and server traces correlate
        request.headers.setdefault("x-request-id", obs_trace.new_request_id())
        handler = self._route(request)
        if handler is None:
            return await self._send_error(
                request, writer, api.not_found(request.path), keep_alive
            )
        return await handler(request, writer, keep_alive)

    def _route(self, request: Request) -> Handler | None:
        """The handler for ``request``, binding ``{param}`` path segments.

        Canonical ``/v1/*`` paths and their legacy aliases resolve to the same
        handler, so both spellings answer byte-identically.  Subclasses (the
        cluster shard node) extend this with internal routes.
        """
        matched = api.match(request.method, request.path)
        if matched is None:
            return None
        endpoint, request.params = matched
        return self._handlers[endpoint.name]

    def _client_id(self, request: Request, writer: asyncio.StreamWriter) -> str:
        """The caller's id: ``X-Client-Id`` or a per-connection anonymous id."""
        header = (request.headers.get("x-client-id") or "").strip()
        if header:
            return header[:128]
        peer = writer.get_extra_info("peername")
        if isinstance(peer, (tuple, list)) and len(peer) >= 2:
            return f"anon-{peer[0]}:{peer[1]}"
        return "anon"

    def _note_client(
        self, request: Request, writer: asyncio.StreamWriter, *, rejected: bool = False
    ) -> None:
        note = getattr(self.service, "note_client_request", None)
        if note is not None:
            note(self._client_id(request, writer), rejected=rejected)

    @staticmethod
    def _trace(request: Request) -> "obs_trace.TraceContext | None":
        """A trace context when the request opts in with ``?trace=1``."""
        if api.wants_trace(request.query_string):
            return obs_trace.TraceContext(request.request_id)
        return None

    # -- responses ---------------------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        *,
        request_id: str,
        accept_encoding: str | None = None,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> bool:
        """Write one fixed-length response; every answer carries its request id."""
        headers = {**(extra_headers or {}), "X-Request-Id": request_id}
        body, compressed = api.maybe_gzip(
            body,
            enabled=api.accepts_gzip(accept_encoding),
            threshold=self.gzip_min_bytes,
        )
        if compressed:
            headers["Content-Encoding"] = "gzip"
        writer.write(
            render_response(
                status,
                body,
                content_type=content_type,
                keep_alive=keep_alive,
                extra_headers=headers,
            )
        )
        await writer.drain()
        return keep_alive

    async def _send(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
        *,
        extra_headers: dict[str, str] | None = None,
    ) -> bool:
        """Answer ``request`` with a JSON ``payload``."""
        return await self._respond(
            writer,
            status,
            json.dumps(payload, default=str).encode(),
            keep_alive,
            request_id=request.request_id,
            accept_encoding=request.headers.get("accept-encoding"),
            extra_headers=extra_headers,
        )

    async def _send_error(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        error: BaseException,
        keep_alive: bool,
    ) -> bool:
        """Answer a failure with the shared envelope (status + code + message)."""
        status, envelope = api.envelope_for(error)
        return await self._send(request, writer, status, envelope.to_json(), keep_alive)

    async def _answer(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
        work: Awaitable[Any],
        *,
        status: int = 200,
    ) -> bool:
        """Await ``work`` and send its payload, or its failure as an envelope."""
        try:
            payload = await work
        except Exception as error:  # noqa: BLE001 - keep the JSON contract
            return await self._send_error(request, writer, error, keep_alive)
        return await self._send(request, writer, status, payload, keep_alive)

    async def _run_blocking(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` on the query executor, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    async def _run_aux(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Run control-plane ``fn`` on the auxiliary thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._aux_executor, functools.partial(fn, *args, **kwargs)
        )

    # -- endpoints ---------------------------------------------------------------------

    async def _handle_health(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        if self.draining:
            # the envelope fields ride along so v1 clients can dispatch on
            # code="unavailable"; "status" stays for legacy health checks
            body = ErrorEnvelope("unavailable", "service is draining").to_json()
            body["status"] = "draining"
            return await self._send(request, writer, 503, body, keep_alive=False)
        return await self._send(
            request, writer, 200, api.health_payload(self.service), keep_alive
        )

    async def _handle_stats(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        async def stats() -> dict[str, Any]:
            payload = await self._run_aux(api.stats_payload, self.service)
            payload["aserve"] = {
                "draining": self.draining,
                "admission": self.admission.stats(),
            }
            return payload

        return await self._answer(request, writer, keep_alive, stats())

    async def _handle_metrics(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        # control-plane like /stats: rendered off-loop on the auxiliary
        # thread so a scrape succeeds even when the query executor is full
        text = await self._run_aux(api.metrics_text, self.service)
        return await self._respond(
            writer,
            200,
            text.encode("utf-8"),
            keep_alive,
            request_id=request.request_id,
            accept_encoding=request.headers.get("accept-encoding"),
            content_type=api.METRICS_CONTENT_TYPE,
        )

    async def _handle_slow(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        return await self._answer(
            request, writer, keep_alive, self._run_aux(api.slow_payload, self.service)
        )

    async def _handle_update(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        # Control-plane like /stats: a commit must land even when the query
        # executor is saturated (MVCC means it never pauses those queries),
        # so it bypasses admission and runs on the auxiliary thread — which
        # also serialises HTTP commits with stats snapshots.
        try:
            update_request = api.parse_update_request(decode_json_object(request.body))
        except (PayloadError, api.ApiError) as error:
            return await self._send_error(request, writer, error, keep_alive)
        return await self._answer(
            request,
            writer,
            keep_alive,
            self._run_aux(
                api.apply_update_payload,
                self.service,
                update_request,
                trace=self._trace(request),
            ),
        )

    async def _handle_prepare(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        # control-plane like /update: warming must land on a busy server so
        # the post-warm traffic is what benefits; runs on the auxiliary thread
        try:
            prepare_request = api.parse_prepare_request(decode_json_object(request.body))
        except (PayloadError, api.ApiError) as error:
            return await self._send_error(request, writer, error, keep_alive)
        return await self._answer(
            request,
            writer,
            keep_alive,
            self._run_aux(api.prepare_payload, self.service, prepare_request),
        )

    # -- jobs --------------------------------------------------------------------------
    #
    # Job calls run in the blocking pool: the manager's lock is held by
    # executor workers across fsynced journal appends, and a slow fsync must
    # stall a pool thread, never the event loop itself.

    async def _handle_jobs_submit(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        # not admission-controlled: per-client quotas are the jobs throttle,
        # and the submit itself only journals (fsync) — no engine time
        self._note_client(request, writer)
        try:
            submit_request = jobs_api.parse_job_submit(decode_json_object(request.body))
        except (PayloadError, api.ApiError) as error:
            return await self._send_error(request, writer, error, keep_alive)
        try:
            payload = await self._run_blocking(
                jobs_api.submit_job_payload,
                self.service,
                submit_request,
                client_id=self._client_id(request, writer),
            )
        except Exception as error:  # noqa: BLE001 - keep the JSON contract
            if isinstance(error, api.ApiError) and error.status == 429:
                self._note_client(request, writer, rejected=True)
            return await self._send_error(request, writer, error, keep_alive)
        return await self._send(request, writer, 202, payload, keep_alive)

    async def _handle_jobs_list(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        self._note_client(request, writer)
        return await self._answer(
            request,
            writer,
            keep_alive,
            self._run_blocking(
                jobs_api.list_jobs_payload,
                self.service,
                client_id=self._client_id(request, writer),
            ),
        )

    async def _handle_job_status(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        return await self._answer(
            request,
            writer,
            keep_alive,
            self._run_blocking(
                jobs_api.job_status_payload,
                self.service,
                request.params["id"],
                client_id=self._client_id(request, writer),
            ),
        )

    async def _handle_job_result(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        return await self._answer(
            request,
            writer,
            keep_alive,
            self._run_blocking(
                jobs_api.job_result_payload,
                self.service,
                request.params["id"],
                client_id=self._client_id(request, writer),
            ),
        )

    async def _handle_job_cancel(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        return await self._answer(
            request,
            writer,
            keep_alive,
            self._run_blocking(
                jobs_api.cancel_job_payload,
                self.service,
                request.params["id"],
                client_id=self._client_id(request, writer),
            ),
        )

    async def _handle_job_events(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Stream a job's events as chunked NDJSON (the ``/batch`` framing).

        The loop polls the manager's in-memory event log — no executor
        thread is parked on a blocking wait, so a thousand open streams cost
        the loop a timer each, not a thread each.  Errors before the first
        event (unknown job, jobs disabled) answer a plain JSON envelope.
        """
        job_id = request.params["id"]
        timeout = 30.0
        for part in request.query_string.split("&"):
            key, _, value = part.partition("=")
            if key == "timeout_s":
                with suppress(ValueError):
                    timeout = min(300.0, max(0.0, float(value)))
        client_id = self._client_id(request, writer)
        try:
            events, terminal = await self._run_blocking(
                jobs_api.job_events, self.service, job_id, 0, client_id=client_id
            )
        except Exception as error:  # noqa: BLE001 - keep the JSON contract
            return await self._send_error(request, writer, error, keep_alive)
        stream = ChunkedJsonWriter(
            writer, request_id=request.request_id, keep_alive=keep_alive
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        cursor = 0
        try:
            await stream.start()
            while True:
                for event in events:
                    await stream.send(event)
                cursor += len(events)
                if terminal or loop.time() >= deadline:
                    break
                await asyncio.sleep(0.15)
                try:
                    events, terminal = await self._run_blocking(
                        jobs_api.job_events,
                        self.service,
                        job_id,
                        cursor,
                        client_id=client_id,
                    )
                except api.ApiError:
                    break  # the job aged out mid-stream: finish cleanly
            await stream.send(jobs_api.events_done_line(self.service, job_id))
            await stream.finish()
        except (ConnectionError, asyncio.TimeoutError):
            return False
        return keep_alive

    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        # a /query is always one admission unit, so the overload answer needs
        # no look at the body: admit first, decode only if admitted (an
        # overloaded server must not pay a JSON parse per rejected request)
        try:
            self.admission.try_admit(1, endpoint="query")
        except AdmissionRejected as rejected:
            self._note_client(request, writer, rejected=True)
            return await self._send(
                request,
                writer,
                429,
                _rejection_body(rejected),
                keep_alive,
                extra_headers=_retry_after_headers(rejected),
            )
        try:
            query_request = api.parse_query_request(decode_json_object(request.body))
        except (PayloadError, api.ApiError) as error:
            self.admission.cancel_reservation(1)
            return await self._send_error(request, writer, error, keep_alive)
        # the deadline clock starts before the admission queue wait: time
        # spent queued is time the client is already paying for
        deadline = api.RequestDeadline.of(query_request)
        trace = self._trace(request)
        if trace is not None:
            # queue wait is the front door's own contribution to latency;
            # record it as a span before the unit enters execution
            with obs_trace.activate(trace), obs_trace.span("admission.queue"):
                await self.admission.acquire_slot()
        else:
            await self.admission.acquire_slot()
        # the unit is released only after the response bytes are written:
        # "finish in-flight" at drain time includes delivering the answer;
        # envelope_for maps query errors to 400, the rest to 500
        try:
            return await self._answer(
                request,
                writer,
                keep_alive,
                self._run_blocking(
                    api.execute_query_payload,
                    self.service,
                    query_request,
                    trace=trace,
                    deadline=deadline,
                ),
            )
        finally:
            self.admission.release_slot()

    async def _handle_batch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        try:
            batch_request = api.parse_batch_request(decode_json_object(request.body))
        except (PayloadError, api.ApiError) as error:
            return await self._send_error(request, writer, error, keep_alive)
        deadline = api.RequestDeadline.of(batch_request)
        texts = list(batch_request.queries)
        if not texts:
            return await self._send(
                request, writer, 200, {"results": [], "n_queries": 0}, keep_alive
            )
        if len(texts) > self.admission.capacity:
            # no amount of retrying can fit this batch: a 429 would lie, so
            # answer 413 and tell the client to split
            return await self._send(
                request,
                writer,
                413,
                ErrorEnvelope(
                    "payload_too_large",
                    f"batch of {len(texts)} queries exceeds this server's "
                    f"total admission capacity of {self.admission.capacity} "
                    "(max_inflight + queue_depth); split the batch",
                ).to_json(),
                keep_alive,
            )
        try:
            # one unit per query: the whole batch is admitted or none of it
            self.admission.try_admit(len(texts), endpoint="batch")
        except AdmissionRejected as rejected:
            self._note_client(request, writer, rejected=True)
            return await self._send(
                request,
                writer,
                429,
                _rejection_body(rejected),
                keep_alive,
                extra_headers=_retry_after_headers(rejected),
            )

        stream = ChunkedJsonWriter(
            writer, request_id=request.request_id, keep_alive=keep_alive
        )
        send_lock = asyncio.Lock()
        dead = False  # flipped when the client vanishes mid-stream

        async def run_one(index: int, text: str) -> None:
            nonlocal dead
            # Each unit owns its whole slot lifecycle (acquire → execute →
            # send → release): no unit ever waits on another unit's send, so
            # a client disconnect can neither deadlock the handler nor leak
            # capacity.  The slot is released only after the line is written
            # (or the connection is known dead), so a drain never cuts off
            # an undelivered result.  A cancelled acquire returns its own
            # reservation and never reaches the try block.
            await self.admission.acquire_slot()
            try:
                try:
                    # checked per item right before execution: queries that
                    # were still queued when the budget ran out answer
                    # deadline_exceeded instead of computing doomed results
                    if deadline is not None:
                        deadline.check()
                    kwargs: dict[str, Any] = {}
                    if deadline is not None and getattr(
                        self.service, "accepts_deadline", False
                    ):
                        # a relaying service (the cluster coordinator) carries
                        # the remaining budget into its downstream hops
                        kwargs["deadline"] = deadline
                    result = await self._run_blocking(
                        self.service.execute, text, **kwargs
                    )
                    line: dict[str, Any] = api.batch_line(index, result)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - captured per query
                    line = api.batch_line(index, error)
                async with send_lock:
                    if not dead:
                        try:
                            await stream.send(line)
                        except (ConnectionError, asyncio.TimeoutError):
                            dead = True
            finally:
                self.admission.release_slot()

        try:
            await stream.start()
        except (ConnectionError, asyncio.TimeoutError):
            self.admission.cancel_reservation(len(texts))
            return False
        # lines leave in order of *completion*: fast queries stream out while
        # slow ones are still executing
        await asyncio.gather(
            *(run_one(index, text) for index, text in enumerate(texts))
        )
        if dead:
            return False
        try:
            await stream.send(api.batch_done_line(len(texts)))
            await stream.finish()
        except (ConnectionError, asyncio.TimeoutError):
            return False
        return keep_alive
