"""Span recording from outside the program: wrap public functions, keep spans in memory.

:func:`install` replaces each function named in :data:`LAYER_SPANS` — at its
class, or at the name the calling module imported it under — with a wrapper
that records ``(id, name, start, end, parent, request id, value)``.  The
parent is the innermost open span of the same thread; the request id is the
``X-Request-Id`` of the HTTP request being served, carried from the asyncio
front door into its executor threads.  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them as JSON lines at shutdown.

Only the process that installed the recorder records: forked shard workers
inherit the wrappers but call straight through.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable

#: the request id of the HTTP request the current task or thread serves
REQUEST_ID: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_request_id", default=""
)


def _length(result: Any) -> float:
    return float(len(result))


def _nodes(result: Any) -> float:
    return float(result.n_nodes_explored)


#: (span name, module, attribute path, value of the result to record or None).
#: A module-level function is patched in every module that calls it by name.
LAYER_SPANS: tuple[tuple[str, str, str, Callable[[Any], float] | None], ...] = (
    ("service.execute", "repro.service.session", "HypeRService.execute", None),
    ("service.commit", "repro.service.session", "HypeRService.update_relation_columns", None),
    ("lang.parse", "repro.service.session", "parse_query", None),
    ("service.fingerprint", "repro.service.session", "fingerprint_query", None),
    ("relational.use_build", "repro.relational.view", "UseSpec.build", None),
    ("probdb.block_labels", "repro.service.session", "block_labels", None),
    ("probdb.block_labels", "repro.core.whatif", "block_labels", None),
    ("relational.fused_kernel", "repro.core.whatif", "fused_mask_aggregate", None),
    ("relational.fused_kernel", "repro.relational.columnar", "fused_mask_aggregate", None),
    ("estimator.build", "repro.core.whatif", "WhatIfEngine.build_estimator", None),
    ("estimator.build", "repro.core.howto", "HowToEngine.build_estimator", None),
    ("estimator.fit", "repro.core.estimator", "PostUpdateEstimator._fit_fresh", None),
    (
        "estimator.counterfactual_mean",
        "repro.core.estimator",
        "PostUpdateEstimator.counterfactual_mean",
        None,
    ),
    ("ml.encode", "repro.ml.encoding", "ColumnEncoder.transform", None),
    ("ml.predict", "repro.ml.density", "ConditionalMeanRegressor.predict_columns", None),
    ("ml.predict", "repro.ml.density", "ConditionalMeanRegressor.predict_blocks", None),
    ("whatif.contribution_rows", "repro.core.whatif", "causal_contribution_rows", None),
    ("howto.enumerate", "repro.core.howto", "HowToEngine.enumerate_candidates", _length),
    ("howto.score", "repro.core.howto", "HowToEngine._candidate_coefficients", None),
    ("optim.solve", "repro.optim.solver", "BranchAndBoundSolver.solve", _nodes),
    ("shard.run_what_if", "repro.shard.pool", "ShardPool.run_what_if", None),
    ("shard.merge", "repro.shard.pool", "merge_what_if", None),
    ("shard.merge", "repro.shard.pool", "merge_how_to", None),
)

#: name of the root span around each unit of work an executor thread runs
ROOT_SPAN = "aserve.request"


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, value_of: Callable[[Any], float] | None = None
    ) -> Callable:
        """``fn`` recorded as span ``name`` (pass-through outside this process)."""

        @functools.wraps(fn)
        def recorded(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, REQUEST_ID.get(), value))

        return recorded

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request_id, value in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request_id,
                            "value": value,
                        }
                    )
                    + "\n"
                )


class _ContextExecutor:
    """Executor proxy that runs each task in a copy of the submitter's context.

    ``loop.run_in_executor`` does not carry context variables into the pool
    thread; this proxy does, so the request id set on the event loop reaches
    the spans recorded in the executor.  Each task is also a root span.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        context = contextvars.copy_context()
        rooted = self._recorder.wrap(ROOT_SPAN, fn)
        return self._inner.submit(context.run, rooted, *args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _patch_front_door(recorder: SpanRecorder) -> None:
    from repro.aserve.app import AsyncApp

    original_init = AsyncApp.__init__
    original_dispatch = AsyncApp._dispatch

    @functools.wraps(original_init)
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        if self._executor is not None:
            self._executor = _ContextExecutor(self._executor, recorder)
        self._aux_executor = _ContextExecutor(self._aux_executor, recorder)

    @functools.wraps(original_dispatch)
    async def _dispatch(self, request, writer, keep_alive):
        token = REQUEST_ID.set(request.headers.get("x-request-id", ""))
        try:
            return await original_dispatch(self, request, writer, keep_alive)
        finally:
            REQUEST_ID.reset(token)

    AsyncApp.__init__ = __init__
    AsyncApp._dispatch = _dispatch


def resolve(module_name: str, path: str) -> tuple[Any, str, Callable]:
    """The owner (module or class), attribute name and function ``path`` names."""
    owner: Any = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    function = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, function


def install(recorder: SpanRecorder) -> None:
    """Wrap every function of :data:`LAYER_SPANS` and the async front door."""
    for name, module_name, path, value_of in LAYER_SPANS:
        owner, attribute, function = resolve(module_name, path)
        setattr(owner, attribute, recorder.wrap(name, function, value_of))
    _patch_front_door(recorder)
