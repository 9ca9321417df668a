"""Deadline propagation and jittered retry policy."""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, WorkerCrashedError
from repro.runtime import Deadline, RetryPolicy, coerce_deadline


class TestDeadline:
    def test_budget_counts_down(self):
        dl = Deadline.from_budget(10.0)
        assert 0 < dl.remaining() <= 10.0
        assert not dl.expired()
        assert not dl.unbounded

    def test_absolute_construction_is_cross_hop_stable(self):
        # The same expires_at instant reconstructs the same deadline —
        # the property shard RPC relies on when shipping it verbatim.
        dl = Deadline.from_budget(5.0)
        hop = Deadline.at(dl.expires_at)
        assert hop.expires_at == dl.expires_at

    def test_expired_deadline(self):
        dl = Deadline.at(time.monotonic() - 0.01)
        assert dl.expired()
        assert dl.remaining() < 0

    def test_never_is_unbounded(self):
        dl = Deadline.never()
        assert dl.unbounded
        assert math.isinf(dl.remaining())
        assert not dl.expired()

    def test_clamped_takes_the_tighter_bound(self):
        loose = Deadline.from_budget(100.0)
        tight = loose.clamped(0.5)
        assert tight.remaining() <= 0.5
        already_tight = Deadline.from_budget(0.1)
        assert already_tight.clamped(100.0).remaining() <= 0.1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.from_budget(0.0)
        with pytest.raises(ConfigurationError):
            Deadline.from_budget(-1.0)


class TestCoerceDeadline:
    def test_none_uses_default_budget(self):
        dl = coerce_deadline(None, 2.0)
        assert 0 < dl.remaining() <= 2.0

    def test_float_is_capped_at_default(self):
        dl = coerce_deadline(50.0, 2.0)
        assert dl.remaining() <= 2.0
        dl = coerce_deadline(0.5, 2.0)
        assert dl.remaining() <= 0.5

    def test_existing_deadline_is_clamped(self):
        upstream = Deadline.from_budget(100.0)
        dl = coerce_deadline(upstream, 2.0)
        assert dl.remaining() <= 2.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_deadline(0.0, 2.0)


class TestRetryPolicy:
    def test_succeeds_first_try_no_sleep(self):
        calls = []
        policy = RetryPolicy(max_attempts=3, base=10.0)
        start = time.monotonic()
        policy.call(lambda: calls.append(1), retry_on=(ValueError,))
        assert len(calls) == 1
        assert time.monotonic() - start < 1.0

    def test_retries_then_succeeds(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base=0.001, jitter=0.0)
        assert policy.call(flaky, retry_on=(ValueError,)) == "ok"
        assert attempts["n"] == 3

    def test_exhaustion_reraises_last_error_unchanged(self):
        policy = RetryPolicy(max_attempts=2, base=0.001, jitter=0.0)
        err = ValueError("persistent")

        def always():
            raise err

        with pytest.raises(ValueError) as exc_info:
            policy.call(always, retry_on=(ValueError,))
        assert exc_info.value is err

    def test_unlisted_exception_not_retried(self):
        attempts = {"n": 0}

        def boom():
            attempts["n"] += 1
            raise KeyError("not retryable")

        policy = RetryPolicy(max_attempts=5, base=0.001)
        with pytest.raises(KeyError):
            policy.call(boom, retry_on=(ValueError,))
        assert attempts["n"] == 1

    def test_expired_deadline_stops_retrying(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            raise ValueError("transient")

        policy = RetryPolicy(max_attempts=10, base=0.001, jitter=0.0)
        dead = Deadline.at(time.monotonic() - 0.01)
        with pytest.raises(ValueError):
            policy.call(flaky, retry_on=(ValueError,), deadline=dead)
        assert attempts["n"] == 1

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base=0.1, factor=2.0, max_backoff=0.5, jitter=0.0
        )
        delays = [policy.backoff(k) for k in range(5)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert delays[3] == delays[4] == 0.5

    def test_jitter_spreads_delays(self):
        policy = RetryPolicy(base=0.1, jitter=0.5)
        rng = np.random.default_rng(0)
        delays = {policy.backoff(0, rng) for _ in range(32)}
        assert len(delays) > 1
        assert all(0.05 <= d <= 0.15 for d in delays)

    def test_on_retry_callback_sees_each_failure(self):
        seen = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ValueError(f"fail-{attempts['n']}")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base=0.001, jitter=0.0)
        policy.call(
            flaky,
            retry_on=(ValueError,),
            on_retry=lambda n, err: seen.append((n, str(err))),
        )
        assert seen == [(1, "fail-1"), (2, "fail-2")]

    def test_error_retry_after_is_waited_out(self, monkeypatch):
        slept = []
        monkeypatch.setattr(
            "repro.runtime.retry.time", SimpleNamespace(sleep=slept.append)
        )
        attempts = {"n": 0}

        def down_then_up():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise WorkerCrashedError(0, "restarting", retry_after=2.5)
            return "ok"

        policy = RetryPolicy(max_attempts=3, base=0.05, jitter=0.0)
        assert policy.call(
            down_then_up, retry_on=(WorkerCrashedError,)
        ) == "ok"
        assert slept == [2.5]
        # The caller's deadline still bounds the wait.
        slept.clear()
        attempts["n"] = 0
        policy.call(
            down_then_up, retry_on=(WorkerCrashedError,),
            deadline=Deadline.from_budget(1.0),
        )
        assert len(slept) == 1 and slept[0] <= 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ConfigurationError):
            RetryPolicy(factor=0.5).validate()
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5).validate()
