"""Front-door glue for the ``/v1/jobs`` surface.

The HTTP front door (:mod:`repro.aserve`) routes every job endpoint
through these helpers.  Every helper raises
:class:`~repro.api.endpoints.ApiError` for protocol failures; the front
door maps those to envelopes.

The manager is discovered on ``service.jobs`` — a service started without
``--jobs-dir`` answers 503 ``unavailable`` on the whole surface rather
than 404, so clients can distinguish "not enabled here" from a typo'd
path.

**Ownership.** A job submitted with an explicit ``X-Client-Id`` is scoped
to that id: status/result/events/cancel from any other client id answer
404 ``not_found``, indistinguishable from an unknown id, exactly like
``GET /v1/jobs`` listing.  Jobs submitted *without* the header get a
per-connection ``anon-…`` owner; those stay **capability-based** — the
random job id is the credential — because the front door mints a fresh
anonymous id per connection, so an anonymous submitter that reconnects
could otherwise never poll its own job.  Ids beginning with ``anon`` are reserved for
that fallback.
"""

from __future__ import annotations

from typing import Any

from ..api.endpoints import ApiError
from ..api.schemas import (
    ErrorEnvelope,
    JobListAnswer,
    JobStatus,
    JobSubmitRequest,
    WireFormatError,
)
from .manager import JobManager, JobNotFound
from .queue import QuotaExceeded

__all__ = [
    "manager_for",
    "parse_job_submit",
    "submit_job_payload",
    "job_status_payload",
    "job_result_payload",
    "cancel_job_payload",
    "list_jobs_payload",
    "job_events",
    "events_done_line",
]


def manager_for(service: Any) -> JobManager:
    """The service's attached :class:`JobManager`, or 503 when jobs are off."""
    manager = getattr(service, "jobs", None)
    if manager is None:
        raise ApiError(
            503,
            ErrorEnvelope(
                "unavailable",
                "the job service is not enabled on this server "
                "(start it with --jobs-dir)",
            ),
        )
    return manager


def parse_job_submit(body: dict[str, Any]) -> JobSubmitRequest:
    """Decode and validate a ``POST /v1/jobs`` body (schema violations are 400)."""
    try:
        return JobSubmitRequest.from_json(body)
    except WireFormatError as error:
        raise ApiError(400, ErrorEnvelope("bad_request", str(error))) from None


def _status_payload(manager: JobManager, job: Any) -> dict[str, Any]:
    return JobStatus.from_job(
        job, result_available=job.job_id in manager.results
    ).to_json()


def submit_job_payload(
    service: Any, request: JobSubmitRequest, *, client_id: str
) -> dict[str, Any]:
    """Durably accept a job submit; the 202 body is the initial status.

    A per-client quota violation maps to 429 ``rate_limited`` with the
    violated quota named in the detail, mirroring the admission
    controller's interactive rejections.
    """
    manager = manager_for(service)
    try:
        job = manager.submit(
            client_id=client_id,
            kind=request.kind,
            queries=list(request.all_queries),
            priority=request.priority,
            run_at_generation=request.run_at_generation,
            exhaustive=request.exhaustive,
        )
    except QuotaExceeded as error:
        raise ApiError(
            429,
            ErrorEnvelope(
                "rate_limited",
                str(error),
                {"quota": error.quota, "limit": error.limit},
            ),
        ) from None
    return _status_payload(manager, job)


def _anonymous(owner: str) -> bool:
    """True for the doors' per-connection fallback ids (``anon``/``anon-…``)."""
    return owner == "anon" or owner.startswith("anon-")


def _get_job(manager: JobManager, job_id: str, client_id: str | None) -> Any:
    """Look up ``job_id`` and enforce ownership.

    An explicitly-owned job read with the wrong (or no) client id answers
    the same 404 as an unknown id, so probing cannot distinguish "not
    yours" from "never existed".  Anonymously-owned jobs skip the check
    (capability-based; see the module docstring).  ``client_id=None``
    bypasses enforcement for in-process callers.
    """
    try:
        job = manager.get(job_id)
    except JobNotFound:
        raise ApiError(
            404, ErrorEnvelope("not_found", f"unknown job {job_id!r}")
        ) from None
    if (
        client_id is not None
        and not _anonymous(job.client_id)
        and client_id != job.client_id
    ):
        raise ApiError(
            404, ErrorEnvelope("not_found", f"unknown job {job_id!r}")
        )
    return job


def job_status_payload(
    service: Any, job_id: str, *, client_id: str | None = None
) -> dict[str, Any]:
    """Answer ``GET /v1/jobs/{id}``; unknown, aged-out, or foreign ids are 404."""
    manager = manager_for(service)
    return _status_payload(manager, _get_job(manager, job_id, client_id))


def job_result_payload(
    service: Any, job_id: str, *, client_id: str | None = None
) -> dict[str, Any]:
    """Answer ``GET /v1/jobs/{id}/result``.

    A job that is still in flight answers 404 ``not_found``; a terminal job
    whose result was evicted or expired answers 404 with the distinct code
    ``result_expired`` so callers know re-submitting is the only way back.
    """
    manager = manager_for(service)
    job = _get_job(manager, job_id, client_id)
    payload = manager.results.get(job_id)
    if payload is not None:
        return payload
    if job.terminal:
        if job.state == "succeeded":
            raise ApiError(
                404,
                ErrorEnvelope(
                    "result_expired",
                    f"the result of job {job_id!r} is no longer retained",
                ),
            )
        detail: dict[str, Any] = {"state": job.state}
        if job.error_code is not None:
            detail["error_code"] = job.error_code
        raise ApiError(
            404,
            ErrorEnvelope(
                "not_found",
                f"job {job_id!r} finished {job.state!r} without a result"
                + (f": {job.error}" if job.error else ""),
                detail,
            ),
        )
    raise ApiError(
        404,
        ErrorEnvelope(
            "not_found",
            f"job {job_id!r} is still {job.state!r}; poll its status or "
            "stream its events",
            {"state": job.state},
        ),
    )


def cancel_job_payload(
    service: Any, job_id: str, *, client_id: str | None = None
) -> dict[str, Any]:
    """Answer ``POST /v1/jobs/{id}/cancel``: the post-cancel status.

    Cancelling a queued job is immediate, a running job cooperative, and a
    terminal job a no-op — the call is always safe to retry.
    """
    manager = manager_for(service)
    _get_job(manager, job_id, client_id)
    return _status_payload(manager, manager.cancel(job_id))


def list_jobs_payload(service: Any, *, client_id: str | None) -> dict[str, Any]:
    """Answer ``GET /v1/jobs``: the calling client's jobs, oldest first."""
    manager = manager_for(service)
    statuses = tuple(
        JobStatus.from_job(job, result_available=job.job_id in manager.results)
        for job in manager.list_jobs(client_id)
    )
    return JobListAnswer(jobs=statuses).to_json()


def job_events(
    service: Any, job_id: str, cursor: int = 0, *, client_id: str | None = None
) -> tuple[list[dict[str, Any]], bool]:
    """One non-blocking poll of a job's event log (the stream's unit)."""
    manager = manager_for(service)
    _get_job(manager, job_id, client_id)
    try:
        return manager.events_since(job_id, cursor)
    except JobNotFound:
        raise ApiError(
            404, ErrorEnvelope("not_found", f"unknown job {job_id!r}")
        ) from None


def events_done_line(service: Any, job_id: str) -> dict[str, Any]:
    """The closing line of a job's event stream.

    ``terminal`` names the job's final state, or is ``null`` when the stream
    timed out (or the job aged out) before the job finished.
    """
    try:
        job = manager_for(service).get(job_id)
    except JobNotFound:
        job = None
    terminal = job.state if job is not None and job.terminal else None
    return {"done": True, "job_id": job_id, "terminal": terminal}
