"""Micro-batched request execution with bounded-queue admission control.

Concurrent one-step requests land in a bounded queue; a single collector
thread blocks for the first one, then takes whatever else is already
queued as one dispatch. It never waits for company, so a lone request
runs at once, and ``queue_limit`` bounds a dispatch. Requests carrying a
``payload`` (the service's ``observe``) go to the ``group_handler`` as
one list per dispatch; the rest run their ``fn`` one after another, in
arrival order, on the collector thread.

Backpressure is explicit and immediate:

- queue full at submit time → :class:`ServiceOverloadedError` (HTTP 429,
  the client should back off);
- a request still queued past its deadline → its future fails with
  :class:`DeadlineExceededError` (HTTP 503) *without* running, shedding
  work the caller has already given up on;
- after :meth:`close` the queue drains, then new submits are refused
  with :class:`ServiceUnavailableError`.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Optional

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.obs import OBS, get_logger
from repro.obs.trace import NEW_TRACE, TRACER

_LOG = get_logger("serving.batcher")


class _Request:
    __slots__ = (
        "fn", "payload", "future", "deadline", "expires_at",
        "trace_ctx", "enqueued_at",
    )

    def __init__(
        self,
        fn,
        deadline: Optional[float],
        expires_at: Optional[float] = None,
        payload: Any = None,
    ):
        self.fn = fn
        self.payload = payload
        self.future: Future = Future()
        self.deadline = deadline
        # Trace propagation across the queue hop: the submitting
        # thread's ambient context travels with the request so the
        # collector thread keeps the causal chain.
        self.trace_ctx = TRACER.current() if TRACER.enabled else None
        self.enqueued_at = time.time() if self.trace_ctx is not None else 0.0
        if expires_at is not None:
            self.expires_at = expires_at
        else:
            self.expires_at = (
                time.monotonic() + deadline if deadline is not None else None
            )


def _run_single(request: _Request) -> None:
    # One failing request must not poison its batch-mates.
    try:
        if request.trace_ctx is not None and TRACER.enabled:
            # Collector thread hop: reinstate the request's context so
            # store/pool/actor child spans land in its trace.
            with TRACER.span("batcher.exec", parent=request.trace_ctx):
                result = request.fn()
        else:
            result = request.fn()
    except BaseException as err:  # noqa: BLE001 - transported to the future
        request.future.set_exception(err)
    else:
        request.future.set_result(result)


class MicroBatcher:
    """Dispatch queued requests together: payloads to the group handler,
    the rest one by one on the collector thread."""

    def __init__(
        self,
        *,
        queue_limit: int = 256,
        group_handler: Optional[Callable[[list], list]] = None,
    ):
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.queue_limit = int(queue_limit)
        #: When set, requests submitted with a ``payload`` are handed to
        #: this callable as one list per dispatch (lone payloads
        #: included), in arrival order. The handler returns one outcome
        #: per payload, aligned by index; an exception outcome fails
        #: just that request's future.
        self.group_handler = group_handler
        self._queue: "queue.Queue[_Request]" = queue.Queue(
            maxsize=queue_limit
        )
        self._closing = threading.Event()
        self.batches = 0
        self.shed = 0
        # EWMA of dispatch throughput (requests/second), maintained by
        # the collector thread; backs the Retry-After hint handed to
        # shed clients (how long until the queue plausibly has room).
        self._drain_rate = 0.0
        self._worker = threading.Thread(
            target=self._run, name="repro-serving-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[], Any],
        *,
        deadline: Optional[float] = None,
        expires_at: Optional[float] = None,
        payload: Any = None,
    ) -> Future:
        """Enqueue ``fn`` for the next micro-batch; returns its future.

        ``expires_at`` is an absolute ``time.monotonic()`` instant (wins
        over ``deadline``, a relative budget) — the hop that lets an
        end-to-end deadline propagate through the queue unchanged. Work
        already past its deadline is shed at submit time, before it ever
        occupies a queue slot.

        ``payload`` routes the request to the batcher's
        :attr:`group_handler` instead of ``fn``: all payloads of a
        dispatch are handed over together, in arrival order. Requests
        without a payload run ``fn``.
        """
        if self._closing.is_set():
            raise ServiceUnavailableError(
                "batcher is shut down; refusing new work"
            )
        request = _Request(fn, deadline, expires_at, payload)
        if (
            request.expires_at is not None
            and time.monotonic() > request.expires_at
        ):
            self.shed += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_serving_shed_total", {"reason": "deadline"}
                ).inc()
            raise DeadlineExceededError(request.deadline)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_serving_shed_total", {"reason": "queue_full"}
                ).inc()
            raise ServiceOverloadedError(
                self._queue.qsize(), self.queue_limit,
                retry_after=self.retry_after_hint(),
            ) from None
        if OBS.enabled:
            OBS.registry.gauge("repro_serving_queue_depth").set(
                float(self._queue.qsize())
            )
        return request.future

    # ------------------------------------------------------------------
    def _collect(self) -> list:
        """Block for one request, then take what is already queued."""
        try:
            first = self._queue.get(timeout=0.05)
        except queue.Empty:
            return []
        batch = [first]
        while True:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                return batch

    def _dispatch(self, batch: list) -> None:
        now = time.monotonic()
        live = []
        for request in batch:
            if not request.future.set_running_or_notify_cancel():
                continue  # caller cancelled while queued
            if request.expires_at is not None and now > request.expires_at:
                self.shed += 1
                if OBS.enabled:
                    OBS.registry.counter(
                        "repro_serving_shed_total", {"reason": "deadline"}
                    ).inc()
                request.future.set_exception(
                    DeadlineExceededError(request.deadline)
                )
                continue
            live.append(request)
        if not live:
            return
        self.batches += 1
        if OBS.enabled:
            registry = OBS.registry
            registry.histogram("repro_serving_batch_size").observe(
                float(len(live))
            )
            registry.gauge("repro_serving_queue_depth").set(
                float(self._queue.qsize())
            )
        batch_span = None
        if TRACER.enabled:
            traced = [r for r in live if r.trace_ctx is not None]
            if traced:
                # One shared span per dispatch, in its own trace: every
                # coalesced request records a queue-wait span carrying a
                # link to it, so the assembler can join a request's
                # timeline to the batch it rode in.
                batch_span = TRACER.span(
                    "batcher.batch", parent=NEW_TRACE,
                    requests=len(live),
                    linked_traces=[
                        r.trace_ctx.trace_id for r in traced[:32]
                    ],
                )
                now_wall = time.time()
                for request in traced:
                    TRACER.record(
                        "batcher.queue", request.trace_ctx,
                        start=request.enqueued_at,
                        duration=max(0.0, now_wall - request.enqueued_at),
                        batch_span=batch_span.ctx.span_id,
                        batch_trace=batch_span.ctx.trace_id,
                    )
        grouped = [r for r in live if r.payload is not None]
        singles = [r for r in live if r.payload is None]

        def execute() -> None:
            if grouped:
                self._dispatch_grouped(grouped)
            for request in singles:
                _run_single(request)

        t0 = time.monotonic()
        if batch_span is not None:
            with batch_span:
                execute()
        else:
            execute()
        elapsed = max(1e-6, time.monotonic() - t0)
        instant = len(live) / elapsed
        self._drain_rate = (
            instant if self._drain_rate == 0.0
            else 0.3 * instant + 0.7 * self._drain_rate
        )

    def _dispatch_grouped(self, grouped: list) -> None:
        """Run payload-carrying requests through the group handler.

        The handler returns one outcome per payload (exceptions as
        values); a handler-level failure fails every grouped future but
        never the collector.
        """
        try:
            outcomes = self.group_handler(
                [request.payload for request in grouped]
            )
            if len(outcomes) != len(grouped):
                raise RuntimeError(
                    f"group handler returned {len(outcomes)} outcomes "
                    f"for {len(grouped)} requests"
                )
        except BaseException as err:  # noqa: BLE001 - fail the group only
            _LOG.error("grouped dispatch failed: %s", err)
            for request in grouped:
                request.future.set_exception(err)
            return
        for request, outcome in zip(grouped, outcomes):
            if isinstance(outcome, BaseException):
                request.future.set_exception(outcome)
            else:
                request.future.set_result(outcome)

    def _run(self) -> None:
        while not (self._closing.is_set() and self._queue.empty()):
            batch = self._collect()
            if not batch:
                continue
            try:
                self._dispatch(batch)
            except BaseException as err:  # noqa: BLE001 - keep serving
                # A dispatch-level failure (tracing, bookkeeping, ...)
                # fails the whole batch but must not kill the collector.
                _LOG.error("batch dispatch failed: %s", err)
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(err)
        # Drain anything that raced past the closing check.
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ServiceUnavailableError("batcher shut down")
                )

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, finish the queue, join the collector."""
        self._closing.set()
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():  # pragma: no cover - pathological
            _LOG.warning("batcher collector did not exit within %.1fs",
                         timeout)

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    @property
    def drain_rate(self) -> float:
        """Smoothed dispatch throughput, requests per second."""
        return self._drain_rate

    def retry_after_hint(self) -> float:
        """Suggested client back-off (seconds) after a 429.

        Queue depth over the smoothed drain rate — roughly when the
        queue will have room again — clamped to [0.05 s, 5 s]. Before
        any batch has completed (no rate yet), the floor applies.
        """
        rate = self._drain_rate
        if rate <= 0.0:
            return 0.05
        return min(5.0, max(0.05, self._queue.qsize() / rate))
