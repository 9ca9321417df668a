"""Multi-tenant online forecasting service (paper Alg. 1 as a server).

Hosts many concurrent EA-DRL online-forecasting sessions in one
process, stdlib + numpy only:

- :class:`SeriesSession` — per-series resumable online state; the
  ``observe(y_t) -> forecast`` step API that
  :meth:`repro.core.EADRL.rolling_forecast_online` also drives (one
  shared code path, bit-identical outputs);
- :class:`ModelBundle` — fitted artefacts shared across tenants plus
  per-session policy-agent cloning;
- :class:`SessionStore` — bounded LRU with checkpoint-backed spill to
  disk; eviction + re-admission is bit-identical;
- :class:`MicroBatcher` — the admission gate: each one-step request
  runs on its caller's thread, one at a time, behind a bounded count of
  waiters;
- :class:`ForecastService` — the transport-agnostic core with admission
  control, per-request deadlines, and a service circuit breaker;
- :class:`ShardSupervisor` / :func:`make_service` — supervised shard
  *worker processes* (consistent hashing on session id, heartbeat
  monitoring, crash failover from the spill tier, per-shard restart
  breakers) behind the same operation surface as the in-process
  service;
- :class:`HashRing` — the consistent-hash placement of session ids on
  shards; the shard count is fixed for a supervisor's life, and a
  restart at a new count moves ~K/n spill directories to their owners;
- :class:`ForecastHTTPServer` — stdlib JSON-over-HTTP frontend
  (``repro serve``);
- :class:`TenantAccountant` — bounded-cardinality per-tenant request
  accounting surfaced on ``/stats`` (mergeable across shard workers);
- :class:`GracefulShutdown` — SIGTERM/SIGINT latch flushing checkpoints
  and telemetry sinks.

See ``docs/serving.md`` for architecture, protocol, and a runbook.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.bundle import ModelBundle, session_seed
from repro.serving.http import ForecastHTTPServer
from repro.serving.lifecycle import GracefulShutdown
from repro.serving.ring import HashRing
from repro.serving.service import ForecastService, ServiceConfig
from repro.serving.session import SeriesSession
from repro.serving.store import (
    DegradedSession,
    SessionStore,
    validate_session_id,
)
from repro.serving.supervisor import (
    ShardSupervisor,
    make_service,
)
from repro.serving.tenantstats import TenantAccountant

__all__ = [
    "DegradedSession",
    "ForecastHTTPServer",
    "ForecastService",
    "GracefulShutdown",
    "HashRing",
    "MicroBatcher",
    "ModelBundle",
    "SeriesSession",
    "ServiceConfig",
    "SessionStore",
    "ShardSupervisor",
    "TenantAccountant",
    "make_service",
    "session_seed",
    "validate_session_id",
]
