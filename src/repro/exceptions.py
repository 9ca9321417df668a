"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so that
callers can catch library-specific failures without masking programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before ``fit``."""

    def __init__(self, estimator_name: str):
        super().__init__(
            f"{estimator_name} is not fitted yet; call 'fit' before using "
            "this method."
        )
        self.estimator_name = estimator_name


class DataValidationError(ReproError, ValueError):
    """Input data failed validation (wrong shape, NaNs, too short, ...)."""


class ConfigurationError(ReproError, ValueError):
    """An estimator or experiment was configured with invalid parameters."""


class MemberFailureError(ReproError):
    """A guarded pool member failed at prediction time.

    Raised by :class:`repro.runtime.GuardedForecaster` in strict mode when
    a member call raises, times out, or returns non-finite output after
    the configured retries are exhausted.
    """

    def __init__(self, member: str, kind: str, detail: str):
        super().__init__(f"pool member {member!r} failed ({kind}): {detail}")
        self.member = member
        self.kind = kind
        self.detail = detail


class CircuitOpenError(MemberFailureError):
    """A call was denied because the member's circuit breaker is OPEN."""

    def __init__(self, member: str):
        super().__init__(member, "circuit_open", "breaker is quarantining this member")


class EnsembleUnavailableError(ReproError):
    """Every pool member is quarantined; no healthy forecast can be formed."""

    def __init__(self, step: int):
        super().__init__(
            f"ensemble unavailable at step {step}: every pool member is "
            "quarantined (circuit open) — no healthy prediction to combine"
        )
        self.step = step


class SerializationError(ReproError, KeyError):
    """A saved module/policy archive failed validation on load.

    Raised when an ``.npz`` archive is malformed or its key set / array
    shapes do not match the target module. Subclasses :class:`KeyError`
    so callers that historically caught the raw key mismatch keep
    working.
    """

    # KeyError.__str__ repr()s its single argument, which mangles
    # multi-word messages; restore normal exception formatting.
    def __str__(self) -> str:
        return Exception.__str__(self)


class CheckpointError(ReproError):
    """A checkpoint operation failed (I/O, schema, or context mismatch)."""


class CheckpointCorruptError(CheckpointError):
    """A snapshot failed integrity verification (torn write, bit rot).

    Snapshots that raise this during restore are quarantined and the
    manager falls back to the next most recent valid snapshot.
    """


class ServingError(ReproError):
    """Base class for errors raised by the online forecasting service."""


class SessionNotFoundError(ServingError, KeyError):
    """A request named a session the service does not know about."""

    def __init__(self, session_id: str):
        Exception.__init__(
            self, f"no such forecasting session: {session_id!r}"
        )
        self.session_id = session_id

    # KeyError.__str__ repr()s its argument; keep normal formatting.
    def __str__(self) -> str:
        return Exception.__str__(self)


class SessionExistsError(ServingError):
    """A create request named a session id that is already live."""

    def __init__(self, session_id: str):
        super().__init__(
            f"forecasting session already exists: {session_id!r}"
        )
        self.session_id = session_id


class ServiceOverloadedError(ServingError):
    """Admission control rejected a request (bounded queue full).

    Maps to HTTP 429: the client should back off and retry.
    ``retry_after`` is the suggested back-off in seconds, derived by the
    batcher from its current queue drain rate (how long until the queue
    has room again), and surfaced as the HTTP ``Retry-After`` header.
    """

    def __init__(
        self,
        queue_depth: int,
        queue_limit: int,
        retry_after: "float | None" = None,
    ):
        super().__init__(
            f"request queue is full ({queue_depth}/{queue_limit}); "
            "back off and retry"
        )
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        self.retry_after = 0.05 if retry_after is None else float(retry_after)


class DeadlineExceededError(ServingError):
    """A request spent longer than its deadline budget (HTTP 503).

    ``deadline`` is the relative budget in seconds when known; requests
    carrying only an absolute propagated expiry pass ``None``.
    """

    def __init__(self, deadline: "float | None" = None):
        if deadline is None:
            super().__init__(
                "request exceeded its deadline before completing"
            )
        else:
            super().__init__(
                f"request exceeded its {deadline:.3f}s deadline before "
                "completing"
            )
        self.deadline = deadline


class ServiceUnavailableError(ServingError):
    """The service refused a request (circuit open or shutting down)."""


class SessionCorruptError(ServingError):
    """Every spill snapshot of a session failed integrity verification.

    Raised by the session store when a restore finds snapshots on disk
    but quarantines all of them as corrupt (torn writes, bit rot). The
    session's learned state is unrecoverable; the service may still
    answer from the degraded ensemble-average path, and the HTTP layer
    maps this to a typed 503 with a ``Retry-After`` header otherwise.
    The session id stays reserved until the client deletes or recreates
    the session.
    """

    #: Suggested client back-off, surfaced as the HTTP ``Retry-After``.
    retry_after: float = 1.0

    def __init__(self, session_id: str):
        super().__init__(
            f"session {session_id!r} has only corrupt spill snapshots "
            "(quarantined); its learned state is unrecoverable — delete "
            "and recreate the session, or accept degraded forecasts"
        )
        self.session_id = session_id


class WorkerCrashedError(ServingError):
    """A shard worker died (or was killed) with this request in flight.

    Internal to the shard runtime: the supervisor retries idempotent
    requests against the restarted shard and maps exhausted retries to
    :class:`ServiceUnavailableError` before anything reaches a client.
    ``retry_after`` is how long until the shard's scheduled respawn
    (0 when it is not waiting out a crash-loop backoff); a retry sleeps
    at least that long.
    """

    def __init__(
        self,
        shard: int,
        detail: str = "worker process died",
        retry_after: float = 0.0,
    ):
        super().__init__(f"shard {shard}: {detail}")
        self.shard = shard
        self.retry_after = float(retry_after)


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped before reaching its tolerance."""


class GradientError(ReproError):
    """Autograd failure: backward called on an invalid graph or shape."""
