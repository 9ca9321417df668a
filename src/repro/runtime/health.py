"""Structured health accounting for a guarded pool.

:class:`PoolHealth` is the shared registry every
:class:`~repro.runtime.guards.GuardedForecaster` in a pool reports into.
It records per-member counters, a log of failure events, every
circuit-breaker state transition, and per-member wall-clock timings, and
renders the operator-facing report surfaced by ``repro.cli forecast
--guard``.

The registry is thread-safe: every mutator and reader takes an internal
re-entrant lock. A served pool is shared by every HTTP thread: one
creates a session while another steps one through the service gate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List

from repro.runtime.breaker import BreakerState


@dataclass
class FailureEvent:
    """One recorded member failure.

    ``kind`` is one of ``"exception"``, ``"non_finite"``, ``"timeout"``,
    ``"circuit_open"`` (a denied call, not attempted) or ``"fit_error"``.
    ``step`` is the member's own monotonically increasing call counter
    (-1 for fit-time events).
    """

    member: str
    step: int
    kind: str
    detail: str


@dataclass
class TransitionEvent:
    """One circuit-breaker state change for a member."""

    member: str
    step: int
    old_state: BreakerState
    new_state: BreakerState


@dataclass
class MemberHealth:
    """Running counters for one pool member."""

    name: str
    calls: int = 0
    successes: int = 0
    failures: int = 0
    fallbacks: int = 0
    skips: int = 0
    state: BreakerState = BreakerState.CLOSED
    last_error: str = ""
    fit_seconds: float = 0.0
    predict_seconds: float = 0.0


class PoolHealth:
    """Registry of member health records plus the event logs."""

    def __init__(self) -> None:
        self._members: Dict[str, MemberHealth] = {}
        self.failures: List[FailureEvent] = []
        self.transitions: List[TransitionEvent] = []
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Locks do not pickle; a shard worker started without fork
        # receives the served bundle, this registry included, pickled.
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def member(self, name: str) -> MemberHealth:
        """The (lazily created) health record for ``name``."""
        with self._lock:
            if name not in self._members:
                self._members[name] = MemberHealth(name=name)
            return self._members[name]

    @property
    def members(self) -> List[MemberHealth]:
        with self._lock:
            return list(self._members.values())

    def quarantined(self) -> List[str]:
        """Names of members whose breaker is currently not CLOSED."""
        with self._lock:
            return [
                m.name for m in self._members.values()
                if m.state is not BreakerState.CLOSED
            ]

    # ------------------------------------------------------------------
    def record_success(self, name: str, count: int = 1) -> None:
        with self._lock:
            record = self.member(name)
            record.calls += count
            record.successes += count

    def record_failure(self, name: str, step: int, kind: str, detail: str) -> None:
        with self._lock:
            record = self.member(name)
            if kind != "circuit_open":
                record.calls += 1
            record.failures += 1
            record.last_error = f"{kind}: {detail}"
            self.failures.append(FailureEvent(name, step, kind, detail))

    def record_fallback(self, name: str) -> None:
        with self._lock:
            self.member(name).fallbacks += 1

    def record_skip(self, name: str) -> None:
        """A call denied without being attempted (breaker OPEN)."""
        with self._lock:
            self.member(name).skips += 1

    def record_transition(
        self, name: str, step: int, old: BreakerState, new: BreakerState
    ) -> None:
        with self._lock:
            self.member(name).state = new
            self.transitions.append(TransitionEvent(name, step, old, new))

    def record_timing(self, name: str, phase: str, seconds: float) -> None:
        """Accumulate wall-clock seconds for a member's ``fit``/``predict``."""
        with self._lock:
            record = self.member(name)
            if phase == "fit":
                record.fit_seconds += seconds
            else:
                record.predict_seconds += seconds

    # ------------------------------------------------------------------
    def timings(self) -> List[dict]:
        """Per-member wall-clock telemetry (stable registration order).

        ``fit_seconds`` and ``predict_seconds`` accumulate the time the
        pool spent inside the member's training and prequential
        prediction calls. Populated for guarded *and* unguarded pools.
        """
        with self._lock:
            return [
                {
                    "member": m.name,
                    "fit_seconds": m.fit_seconds,
                    "predict_seconds": m.predict_seconds,
                    "calls": m.calls,
                }
                for m in self._members.values()
            ]

    def summary(self) -> List[dict]:
        """One plain dict per member (stable order of registration)."""
        with self._lock:
            return [
                {
                    "member": m.name,
                    "state": m.state.value,
                    "calls": m.calls,
                    "successes": m.successes,
                    "failures": m.failures,
                    "fallbacks": m.fallbacks,
                    "skips": m.skips,
                    "last_error": m.last_error,
                }
                for m in self._members.values()
            ]

    def report(self) -> str:
        """Multi-line human-readable health report (CLI output).

        Per-member wall-clock timings (when recorded) are folded into the
        same lines as the guard counters, so operators read one coherent
        report instead of cross-referencing a separate timings table.
        """
        with self._lock:
            if not self._members:
                return "pool health: no guarded calls recorded"
            lines = ["pool health:"]
            for m in self._members.values():
                line = (
                    f"  {m.name:<24} {m.state.value:<9} "
                    f"calls={m.calls} failures={m.failures} "
                    f"fallbacks={m.fallbacks} skips={m.skips}"
                )
                if m.fit_seconds or m.predict_seconds:
                    line += (
                        f" fit={m.fit_seconds:.3f}s "
                        f"predict={m.predict_seconds:.3f}s"
                    )
                if m.last_error:
                    line += f"  last_error={m.last_error}"
                lines.append(line)
            n_quarantined = len(self.quarantined())
            lines.append(
                f"  ({len(self._members)} members, {n_quarantined} quarantined, "
                f"{len(self.failures)} failure events, "
                f"{len(self.transitions)} breaker transitions)"
            )
            return "\n".join(lines)

    def publish_metrics(self, registry) -> None:
        """Mirror this registry's state into a metrics registry.

        ``registry`` is duck-typed (any object with ``gauge(name,
        labels)`` returning something with ``set``) so this module never
        imports :mod:`repro.obs`; the pool calls it after each fan-out
        when telemetry is enabled, bridging the accumulated
        :meth:`timings` and guard counters into ``repro_pool_*`` gauges
        instead of duplicating the bookkeeping.
        """
        with self._lock:
            for m in self._members.values():
                labels = {"member": m.name}
                registry.gauge(
                    "repro_pool_member_fit_seconds", labels
                ).set(m.fit_seconds)
                registry.gauge(
                    "repro_pool_member_predict_seconds", labels
                ).set(m.predict_seconds)
                registry.gauge("repro_pool_member_calls", labels).set(m.calls)
                registry.gauge(
                    "repro_pool_member_failures", labels
                ).set(m.failures)
                registry.gauge(
                    "repro_pool_member_fallbacks", labels
                ).set(m.fallbacks)
            registry.gauge("repro_pool_quarantined_members").set(
                len(self.quarantined())
            )
            registry.gauge("repro_pool_failure_events").set(len(self.failures))
            registry.gauge("repro_pool_breaker_transitions").set(
                len(self.transitions)
            )
