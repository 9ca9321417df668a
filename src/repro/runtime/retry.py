"""Jittered exponential-backoff retry for idempotent operations.

Retrying is only safe when the retried call cannot be applied twice —
the serving layer therefore uses this policy exclusively for idempotent
operations (sequence-numbered ``observe``, pure reads, conflict-tolerant
``create``). Backoff is exponential with full-range multiplicative
jitter so a fleet of clients retrying against a restarting shard does
not stampede it in lockstep, and every sleep is clamped to the
request's remaining :class:`~repro.runtime.deadline.Deadline` — a retry
never outlives the budget the caller is still waiting on. An error that
names its own ``retry_after`` (a shard waiting out its respawn backoff)
is waited out at least that long, within the same deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime.deadline import Deadline

__all__ = ["RetryPolicy"]

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """Bounded retry with jittered exponential backoff.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first call (1 = no retries).
    base / factor / max_backoff:
        Attempt ``k`` (0-based) sleeps ``base * factor**k`` seconds
        before retrying, capped at ``max_backoff``.
    jitter:
        Fraction of the backoff randomised symmetrically around it:
        ``0.5`` draws uniformly from ``[0.5b, 1.5b]``. ``0`` disables
        jitter (deterministic tests).
    """

    max_attempts: int = 3
    base: float = 0.05
    factor: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.5

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base < 0 or self.max_backoff < 0 or self.factor < 1:
            raise ConfigurationError(
                "base/max_backoff must be >= 0 and factor >= 1"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    # ------------------------------------------------------------------
    def backoff(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Sleep before retry number ``attempt`` (0-based), jittered."""
        delay = min(self.base * self.factor ** attempt, self.max_backoff)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(0.0, delay)

    def call(
        self,
        fn: Callable[[], T],
        *,
        retry_on: Tuple[Type[BaseException], ...],
        deadline: Optional[Deadline] = None,
        rng: Optional[np.random.Generator] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> T:
        """Run ``fn`` with retries on the listed exception types.

        The final failure (attempts exhausted, or no budget left to
        sleep and try again) re-raises the last exception unchanged so
        callers keep their typed error taxonomy.
        """
        self.validate()
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as err:
                attempt += 1
                if attempt >= self.max_attempts:
                    raise
                if deadline is not None and deadline.expired():
                    raise
                delay = max(
                    self.backoff(attempt - 1, rng),
                    getattr(err, "retry_after", 0.0),
                )
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline.remaining()))
                if on_retry is not None:
                    on_retry(attempt, err)
                if delay > 0:
                    time.sleep(delay)
