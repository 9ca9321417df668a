"""Fault-tolerant pool runtime (beyond the paper).

The paper's online phase assumes every base forecaster answers every
step; this subsystem makes the ensemble survive individual member
degradation instead:

- :class:`GuardedForecaster` — per-call timeout, bounded retry with
  backoff, and NaN/Inf output rejection around any pool member;
- :class:`CircuitBreaker` — per-member CLOSED → OPEN → HALF_OPEN
  quarantine on consecutive failures, with step-based cooldown;
- :class:`PoolHealth` — the shared registry of failure events, breaker
  transitions, and per-member counters, exposed via
  :meth:`repro.models.ForecasterPool.health`;
- :func:`renormalise_healthy` — simplex renormalisation of a policy's
  weight vector over the currently healthy members;
- :class:`CheckpointManager` / :class:`CheckpointConfig`
  (:mod:`repro.runtime.checkpoint`) — atomic, checksummed snapshots of
  the full training/online state with corruption quarantine and
  bit-exact resume.

See ``docs/robustness.md`` for the fault model and guarantees. The pool
runs its per-member fan-outs as one serial loop in member order;
``docs/performance.md`` records why there is no parallel backend.
"""

from repro.runtime.breaker import BreakerState, CircuitBreaker
from repro.runtime.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    LoopCheckpointer,
    Snapshot,
    TrainingCheckpointer,
)
from repro.runtime.config import RuntimeGuardConfig
from repro.runtime.deadline import Deadline, coerce_deadline
from repro.runtime.retry import RetryPolicy
from repro.runtime.guards import (
    GuardedForecaster,
    combine_masked,
    renormalise_healthy,
)
from repro.runtime.health import (
    FailureEvent,
    MemberHealth,
    PoolHealth,
    TransitionEvent,
)

__all__ = [
    "BreakerState",
    "CheckpointConfig",
    "CheckpointManager",
    "CircuitBreaker",
    "Deadline",
    "LoopCheckpointer",
    "Snapshot",
    "TrainingCheckpointer",
    "FailureEvent",
    "GuardedForecaster",
    "MemberHealth",
    "PoolHealth",
    "RetryPolicy",
    "RuntimeGuardConfig",
    "TransitionEvent",
    "coerce_deadline",
    "combine_masked",
    "renormalise_healthy",
]
