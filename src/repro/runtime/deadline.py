"""End-to-end request deadlines as absolute monotonic expiries.

A :class:`Deadline` pins a request's latency budget to one absolute
point on the monotonic clock, so the *remaining* budget shrinks as the
request moves through the stack (HTTP parse → admission → batcher queue
→ shard RPC → session step) instead of resetting at every hop. Each hop
sheds work whose deadline has already passed rather than spending
compute on an answer the client has given up on.

``time.monotonic`` is ``CLOCK_MONOTONIC`` on Linux and therefore
comparable across processes on the same host — the shard supervisor
ships ``expires_at`` to worker processes verbatim.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Union

from repro.exceptions import ConfigurationError

__all__ = ["Deadline", "coerce_deadline"]


class Deadline:
    """An absolute expiry on the monotonic clock.

    Construct with :meth:`from_budget` (relative seconds from now),
    :meth:`at` (an absolute ``time.monotonic()`` value, e.g. received
    over shard RPC), or :meth:`never` (no deadline; ``remaining()`` is
    ``inf`` and ``expired()`` is always False).
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    # ------------------------------------------------------------------
    @classmethod
    def from_budget(cls, seconds: float) -> "Deadline":
        if seconds <= 0:
            raise ConfigurationError(
                f"deadline budget must be > 0 seconds, got {seconds}"
            )
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def at(cls, expires_at: float) -> "Deadline":
        return cls(expires_at)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(math.inf)

    # ------------------------------------------------------------------
    def remaining(self) -> float:
        """Seconds left; negative once expired, ``inf`` for never()."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def clamped(self, budget: float) -> "Deadline":
        """The tighter of this deadline and ``budget`` seconds from now."""
        return Deadline(min(self.expires_at, time.monotonic() + budget))

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.expires_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.unbounded:
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


def coerce_deadline(
    deadline: Optional[Union[float, Deadline]], default_budget: float
) -> Deadline:
    """Normalise a user-facing deadline into an absolute :class:`Deadline`.

    ``None`` means "use the service's configured budget"; a float is a
    *relative* budget in seconds, capped at ``default_budget`` so a
    client cannot hold server resources longer than the operator allows;
    an existing :class:`Deadline` (already absolute, e.g. propagated
    from an upstream hop) is capped the same way.
    """
    if deadline is None:
        return Deadline.from_budget(default_budget)
    if isinstance(deadline, Deadline):
        return deadline.clamped(default_budget)
    budget = float(deadline)
    if budget <= 0:
        raise ConfigurationError(
            f"deadline budget must be > 0 seconds, got {budget}"
        )
    return Deadline.from_budget(min(budget, default_budget))
