"""Pluggable parallel execution engine for pool-level fan-outs.

The paper trains the base models "in parallel and separately from each
other"; this module supplies the execution substrate that makes the three
pool fan-outs (member fitting, prequential prediction columns, online
one-step queries) actually scale with cores:

- ``"serial"`` — the default: a plain Python loop, bit-identical to the
  pre-executor behaviour with zero overhead;
- ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor`; it
  pays off when members spend their time in numpy (which releases the
  GIL).

Regardless of backend, :func:`run_ordered` returns results **in task
order**, so callers can merge worker output deterministically (member
order) and produce output bit-identical to the serial backend for any
worker count. Tasks are expected to *return* failure information rather
than raise — an exception escaping a task is treated as a programming
error and propagated.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.obs import OBS

#: Recognised backend names, in documentation order.
BACKENDS = ("serial", "thread")


def available_workers() -> int:
    """Usable CPU count (cgroup/affinity aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass
class ExecutorConfig:
    """Backend selection for the pool's parallel fan-outs.

    Attributes
    ----------
    backend:
        ``"serial"`` (default) or ``"thread"``.
    n_jobs:
        Worker count for the parallel backends. ``None`` means "use every
        available core"; values are clamped to at least 1. Ignored by the
        serial backend.
    """

    backend: str = "serial"
    n_jobs: Optional[int] = None

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"executor backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.n_jobs is not None and self.n_jobs < 1:
            raise ConfigurationError(
                f"n_jobs must be >= 1 or None, got {self.n_jobs}"
            )

    def resolved_jobs(self) -> int:
        """Effective worker count (1 for serial, capped at the CPU count)."""
        if self.backend == "serial":
            return 1
        if self.n_jobs is None:
            return available_workers()
        return max(1, self.n_jobs)

    @property
    def parallel(self) -> bool:
        """Whether this configuration can actually run tasks concurrently."""
        return self.backend != "serial" and self.resolved_jobs() > 1


def coerce_executor(
    executor: Optional[object], n_jobs: Optional[int] = None
) -> ExecutorConfig:
    """Normalise a user-facing executor spec into an :class:`ExecutorConfig`.

    Accepts ``None`` (serial), a backend name string, or an existing
    config instance (in which case ``n_jobs`` must not conflict).
    """
    if executor is None:
        config = ExecutorConfig(n_jobs=n_jobs)
    elif isinstance(executor, ExecutorConfig):
        config = executor
        if n_jobs is not None and config.n_jobs is None:
            config = ExecutorConfig(backend=config.backend, n_jobs=n_jobs)
    elif isinstance(executor, str):
        config = ExecutorConfig(backend=executor, n_jobs=n_jobs)
    else:
        raise ConfigurationError(
            f"executor must be a backend name, ExecutorConfig or None, "
            f"got {type(executor).__name__}"
        )
    config.validate()
    return config


def timed_call(fn: Callable[..., Any], args: tuple, submitted_at: float):
    """Run ``fn(*args)`` recording queue wait and work wall-clock.

    Returns ``(result, wait_seconds, work_seconds)``; the wait is
    clamped at 0 as a portability guard.
    """
    started = time.perf_counter()
    result = fn(*args)
    finished = time.perf_counter()
    return result, max(0.0, started - submitted_at), finished - started


def record_task_timing(
    backend: str, name: Optional[str], wait: float, work: float
) -> None:
    """Publish one fan-out task's queue-wait/work split (enabled only)."""
    registry = OBS.registry
    labels = {"backend": backend}
    registry.histogram("repro_executor_queue_wait_seconds", labels).observe(wait)
    registry.histogram("repro_executor_work_seconds", labels).observe(work)
    if name is not None:
        member = {"member": name}
        registry.counter(
            "repro_executor_member_queue_wait_seconds_total", member
        ).inc(wait)
        registry.counter(
            "repro_executor_member_work_seconds_total", member
        ).inc(work)


def run_ordered(
    fn: Callable[..., Any],
    argtuples: Sequence[tuple],
    config: ExecutorConfig,
    task_names: Optional[Sequence[str]] = None,
) -> List[Any]:
    """Run ``fn(*args)`` for every tuple in ``argtuples``; results in order.

    The serial backend (or a single worker) degenerates to a plain loop.
    When telemetry is enabled
    (:mod:`repro.obs`) every parallel task's queue wait (submit → start)
    and work time are recorded, labelled per member when ``task_names``
    is given; the serial loop and the disabled path are untouched.
    """
    jobs = config.resolved_jobs()
    if config.backend == "serial" or jobs == 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    workers = min(jobs, len(argtuples))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        if not OBS.enabled:
            futures = [pool.submit(fn, *args) for args in argtuples]
            return [future.result() for future in futures]
        futures = [
            pool.submit(timed_call, fn, args, time.perf_counter())
            for args in argtuples
        ]
        results: List[Any] = []
        for i, future in enumerate(futures):
            result, wait, work = future.result()
            record_task_timing(
                config.backend,
                task_names[i] if task_names is not None else None,
                wait, work,
            )
            results.append(result)
        return results
