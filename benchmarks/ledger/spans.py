"""Bench-side span recorder: times repro's layers from outside.

:func:`install` replaces public methods of each ``repro`` module with
wrappers that record one span per call into a :class:`Recorder`. The
program itself is not modified and its own tracing stays off. A span is
``(id, parent, name, start, end, rid, thread)``:

- ``name`` is ``<layer>.<method>``; the layer is the repro module the
  method lives in (``models``, ``rl``, ``core``, ``service``,
  ``supervisor``, ``batcher``, ``store``, ``checkpoint``, ``session``);
- ``parent`` is the innermost open span on the same thread, except for
  work the micro-batcher runs on another thread, which is parented to
  the service call that submitted it;
- ``rid`` is the request id ``"<session>#<seq>"`` (``"<session>#p<n>"``
  for the n-th predict of a session); the batched group handler carries
  the list of ids it served.

Spans stay in memory; :meth:`Recorder.flush` appends them to a JSONL
file. Shard workers are forked after :func:`install`, so they inherit
the wrappers; the fork hook empties their copy of the parent's spans and
the ``ForecastService.shutdown`` wrapper flushes each worker's spans
before it exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Optional

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """Thread-safe in-memory span list of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._predicts: dict = {}
        self._lock = threading.Lock()

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def current(self):
        """``(span id, rid)`` of the innermost open span on this thread."""
        frames = self._frames()
        return frames[-1] if frames else (0, None)

    def predict_rid(self, session_id: str) -> str:
        with self._lock:
            n = self._predicts.get(session_id, 0) + 1
            self._predicts[session_id] = n
        return f"{session_id}#p{n}"

    def call(self, name: str, fn: Callable, args, kwargs, *,
             parent=None, rid=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        frames = self._frames()
        top_parent, top_rid = frames[-1] if frames else (0, None)
        if parent is None:
            parent = top_parent
        if rid is None:
            rid = top_rid
        span_id = next(self._ids)
        frames.append((span_id, rid))
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            frames.pop()
            self.spans.append((span_id, parent, name, start, end, rid,
                               threading.get_ident()))

    def flush(self, path: str) -> None:
        """Append this process's spans to ``path`` and forget them."""
        spans, self.spans = self.spans, []
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, rid, tid in spans:
                handle.write(json.dumps({
                    "id": f"{pid}:{span_id}",
                    "parent": f"{pid}:{parent}" if parent else None,
                    "name": name, "start": start, "end": end,
                    "rid": rid, "pid": pid, "tid": tid,
                }) + "\n")


def _wrap(rec: Recorder, name: str, fn: Callable,
          rid_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rid = rid_of(args, kwargs) if rid_of is not None else None
        return rec.call(name, fn, args, kwargs, rid=rid)
    return wrapper


def _patch(rec: Recorder, cls, layer: str, methods, rid_of=None) -> None:
    for method in methods:
        # The raw attribute (possibly inherited) keeps staticmethods static.
        raw = next(base.__dict__[method] for base in cls.__mro__
                   if method in base.__dict__)
        if isinstance(raw, staticmethod):
            setattr(cls, method, staticmethod(
                _wrap(rec, f"{layer}.{method}", raw.__func__, rid_of)))
        else:
            setattr(cls, method, _wrap(rec, f"{layer}.{method}", raw, rid_of))


def _observe_rid(args, kwargs) -> str:
    return f"{args[1]}#{kwargs.get('seq')}"


class _TimedEnter:
    """Context-manager proxy whose ``__enter__`` is one span."""

    def __init__(self, rec: Recorder, name: str, cm):
        self._rec, self._name, self._cm = rec, name, cm

    def __enter__(self):
        return self._rec.call(self._name, self._cm.__enter__, (), {})

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def install(rec: Recorder, span_dir: str) -> None:
    """Wrap every layer boundary the ledger reports; see the module doc."""
    from repro.core.eadrl import EADRL
    from repro.models.pool import ForecasterPool
    from repro.rl.agents import get_agent_spec
    from repro.runtime.checkpoint import CheckpointManager
    from repro.serving.batcher import MicroBatcher
    from repro.serving.service import ForecastService
    from repro.serving.session import SeriesSession
    from repro.serving.store import SessionStore
    from repro.serving.supervisor import ShardSupervisor

    _patch(rec, ForecasterPool, "models", (
        "fit", "prediction_matrix", "prediction_matrix_with_mask",
        "predict_next_with_mask", "predict_next_batch_with_mask"))
    # The registry's concrete class: DDPGAgent overrides update/act, so
    # wrapping BaseAgent would record none of those calls.
    _patch(rec, get_agent_spec("ddpg").agent_cls, "rl", (
        "train", "update", "act", "policy_weights", "policy_weights_batch"))
    _patch(rec, EADRL, "core", (
        "fit_policy_from_matrix", "rolling_forecast_from_matrix",
        "rolling_forecast_online"))
    _patch(rec, SeriesSession, "session",
           ("observe", "apply_forecast", "predict"))
    _patch(rec, CheckpointManager, "checkpoint",
           ("save", "load", "restore_latest"))
    for cls, layer in ((ForecastService, "service"),
                       (ShardSupervisor, "supervisor")):
        _patch(rec, cls, layer, ("observe",), _observe_rid)
        _patch(rec, cls, layer, ("predict",),
               lambda args, kwargs: rec.predict_rid(args[1]))

    acquire = SessionStore.acquire

    @functools.wraps(acquire)
    def timed_acquire(self, session_id):
        return _TimedEnter(rec, "store.acquire", acquire(self, session_id))

    SessionStore.acquire = timed_acquire

    submit = MicroBatcher.submit

    @functools.wraps(submit)
    def timed_submit(self, fn, **kwargs):
        # The batcher runs ``fn`` on its own thread: parent that span to
        # the submitting service call so the request's tree stays whole.
        parent, rid = rec.current()

        def run():
            return rec.call("service.exec", fn, (), {},
                            parent=parent, rid=rid)

        return rec.call("batcher.submit", submit, (self, run), kwargs)

    MicroBatcher.submit = timed_submit

    init = MicroBatcher.__init__

    @functools.wraps(init)
    def timed_init(self, *args, group_handler=None, **kwargs):
        if group_handler is not None:
            handler = group_handler

            def group_handler(payloads):
                rids = [f"{sid}#{seq}" for sid, _, seq in payloads]
                return rec.call("service.group", handler, (payloads,), {},
                                parent=0, rid=rids)

        init(self, *args, group_handler=group_handler, **kwargs)

    MicroBatcher.__init__ = timed_init

    shutdown = ForecastService.shutdown

    @functools.wraps(shutdown)
    def flushing_shutdown(self):
        try:
            return shutdown(self)
        finally:
            rec.flush(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"))

    ForecastService.shutdown = flushing_shutdown
    os.register_at_fork(after_in_child=rec.reset)
