"""In-thread admission gate for the service's one-step requests.

:meth:`MicroBatcher.submit` runs a request's ``fn`` on the calling
thread while it holds one lock, so a service executes one request at a
time, and the request's work stays in its own thread and its own trace.
Backpressure is explicit and immediate:

- ``queue_limit`` requests already waiting for the lock → the next one
  is refused with :class:`ServiceOverloadedError` (HTTP 429, the client
  should back off);
- a request past its deadline at submit, or still waiting for the lock
  when its deadline passes (the wait is bounded by the time it has
  left) → :class:`DeadlineExceededError` (HTTP 503), and its ``fn``
  never runs;
- after :meth:`close` new submits are refused with
  :class:`ServiceUnavailableError`; ``close`` waits for the requests
  already admitted.

The class name, the module and the ``group_handler=None`` keyword are
held for the ledger benchmark's span wrappers
(``benchmarks/ledger/spans.py``) until ROADMAP's "Ledger v2" item.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.obs import OBS, get_logger
from repro.obs.trace import TRACER

_LOG = get_logger("serving.batcher")


class MicroBatcher:
    """Run each request on its caller's thread, one at a time."""

    def __init__(
        self,
        *,
        queue_limit: int = 256,
        group_handler: Optional[Callable] = None,
    ):
        # Held for the ledger benchmark, which passes ``None``.
        if group_handler is not None:
            raise ConfigurationError(
                "group_handler is no longer supported: every request "
                "runs its own fn"
            )
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.queue_limit = int(queue_limit)
        self.shed = 0
        #: Held while a request's ``fn`` runs.
        self._gate = threading.Lock()
        #: Guards the counters below and wakes :meth:`close`.
        self._cond = threading.Condition()
        self._waiting = 0
        self._admitted = 0  # waiting or running
        self._closed = False
        # EWMA of one request's run time (seconds), updated under the
        # gate; backs the Retry-After hint handed to refused clients.
        self._request_seconds = 0.0

    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[], Any],
        *,
        deadline: Optional[float] = None,
        expires_at: Optional[float] = None,
    ) -> Any:
        """Run ``fn`` once the gate is free; return its result.

        ``expires_at`` is an absolute ``time.monotonic()`` instant (wins
        over ``deadline``, a relative budget), so an end-to-end deadline
        passes through unchanged. ``fn``'s exception propagates to the
        caller and leaves the gate free for the next request.
        """
        if expires_at is None and deadline is not None:
            expires_at = time.monotonic() + deadline
        with self._cond:
            if self._closed:
                raise ServiceUnavailableError(
                    "batcher is shut down; refusing new work"
                )
            if expires_at is not None and time.monotonic() > expires_at:
                self._shed_deadline()
                raise DeadlineExceededError(deadline)
            if self._waiting >= self.queue_limit:
                if OBS.enabled:
                    OBS.registry.counter(
                        "repro_serving_shed_total", {"reason": "queue_full"}
                    ).inc()
                raise ServiceOverloadedError(
                    self._waiting, self.queue_limit,
                    retry_after=self.retry_after_hint(),
                )
            self._waiting += 1
            self._admitted += 1
            self._set_depth()
        try:
            if not self._acquire(expires_at):
                with self._cond:
                    self._shed_deadline()
                raise DeadlineExceededError(deadline)
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                elapsed = time.perf_counter() - t0
                self._request_seconds = (
                    elapsed if self._request_seconds == 0.0
                    else 0.3 * elapsed + 0.7 * self._request_seconds
                )
                self._gate.release()
        finally:
            with self._cond:
                self._admitted -= 1
                self._cond.notify_all()

    def _acquire(self, expires_at: Optional[float]) -> bool:
        """Take the gate, waiting at most until ``expires_at``.

        A wait gets its own span, so a traced request's time in line is
        attributed rather than lost between spans.
        """
        try:
            if self._gate.acquire(blocking=False):
                return True
            with TRACER.child_span("gate.wait"):
                if expires_at is None:
                    return self._gate.acquire()
                return self._gate.acquire(
                    timeout=max(0.0, expires_at - time.monotonic())
                )
        finally:
            with self._cond:
                self._waiting -= 1
                self._set_depth()

    def _shed_deadline(self) -> None:
        self.shed += 1
        if OBS.enabled:
            OBS.registry.counter(
                "repro_serving_shed_total", {"reason": "deadline"}
            ).inc()

    def _set_depth(self) -> None:
        if OBS.enabled:
            OBS.registry.gauge("repro_serving_queue_depth").set(
                float(self._waiting)
            )

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Refuse new work, then wait for the admitted requests."""
        with self._cond:
            self._closed = True
            if not self._cond.wait_for(
                lambda: self._admitted == 0, timeout=timeout
            ):  # pragma: no cover - pathological
                _LOG.warning("%d request(s) still running after %.1fs",
                             self._admitted, timeout)

    @property
    def depth(self) -> int:
        """Requests waiting for the gate."""
        return self._waiting

    def retry_after_hint(self) -> float:
        """Suggested client back-off (seconds) after a 429.

        Waiters times the smoothed per-request time — roughly when the
        line will have cleared — clamped to [0.05 s, 5 s]. Before any
        request has run, the floor applies.
        """
        if self._request_seconds <= 0.0:
            return 0.05
        return min(5.0, max(0.05, self._waiting * self._request_seconds))
