"""MicroBatcher: coalescing, shedding, error isolation, clean close."""

from __future__ import annotations

import queue
import threading
import time

import pytest

from repro.exceptions import (
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serving import MicroBatcher


@pytest.fixture()
def batcher():
    b = MicroBatcher(queue_limit=64)
    yield b
    b.close()


class TestDispatch:
    def test_results_round_trip(self, batcher):
        futures = [
            batcher.submit(lambda i=i: i * i) for i in range(20)
        ]
        assert [f.result(timeout=5) for f in futures] == [
            i * i for i in range(20)
        ]

    def test_exceptions_are_isolated(self, batcher):
        def boom():
            raise ValueError("bad request")

        ok = batcher.submit(lambda: "fine")
        bad = batcher.submit(boom)
        ok2 = batcher.submit(lambda: "also fine")
        assert ok.result(timeout=5) == "fine"
        with pytest.raises(ValueError, match="bad request"):
            bad.result(timeout=5)
        assert ok2.result(timeout=5) == "also fine"

    def test_concurrent_submits_coalesce(self):
        """Requests queued while a dispatch runs ride in the next one."""
        batcher = MicroBatcher(queue_limit=64)
        entered, release = threading.Event(), threading.Event()

        def hold():
            entered.set()
            return release.wait(timeout=5)

        try:
            blocker = batcher.submit(hold)
            assert entered.wait(timeout=5)  # collector is inside it
            queued = [batcher.submit(lambda i=i: i) for i in range(12)]
            release.set()
            assert blocker.result(timeout=5) is True
            assert [f.result(timeout=5) for f in queued] == list(range(12))
            assert batcher.batches == 2
        finally:
            release.set()
            batcher.close()

    def test_lone_request_is_dispatched_without_waiting(self):
        """After the first request, the collector only takes what is
        already queued: it never blocks for company."""

        class SpyQueue(queue.Queue):
            def __init__(self):
                super().__init__()
                self.calls = []

            def get(self, block=True, timeout=None):
                self.calls.append(block)
                return super().get(block, timeout)

        batcher = MicroBatcher(queue_limit=8)
        batcher.close()  # stop the collector; drive _collect by hand
        spy = batcher._queue = SpyQueue()
        spy.put("only")
        assert batcher._collect() == ["only"]
        assert spy.calls[0] is True  # the wait for the first request
        assert True not in spy.calls[1:]


class TestBackpressure:
    def test_queue_full_sheds_with_overload_error(self):
        release = threading.Event()
        batcher = MicroBatcher(queue_limit=2)
        try:
            # Jam the collector with a blocking request, then fill the
            # queue; the next submit must be rejected immediately.
            blocker = batcher.submit(release.wait)
            time.sleep(0.1)  # let the collector pick the blocker up
            backlog = [batcher.submit(lambda: None) for _ in range(2)]
            with pytest.raises(ServiceOverloadedError) as excinfo:
                for _ in range(8):
                    backlog.append(batcher.submit(lambda: None))
            assert excinfo.value.queue_limit == 2
        finally:
            release.set()
            batcher.close()
        assert blocker.result(timeout=5) is True

    def test_expired_deadline_is_shed_at_dispatch(self):
        release = threading.Event()
        batcher = MicroBatcher(queue_limit=8)
        try:
            blocker = batcher.submit(release.wait)
            time.sleep(0.05)
            doomed = batcher.submit(lambda: "late", deadline=0.01)
            time.sleep(0.1)  # deadline passes while queued
            release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)
            assert blocker.result(timeout=5) is True
        finally:
            release.set()
            batcher.close()

    def test_already_expired_absolute_deadline_shed_at_submit(self):
        batcher = MicroBatcher(queue_limit=8)
        try:
            # An absolute expires_at in the past never takes a queue
            # slot — the submit itself raises.
            with pytest.raises(DeadlineExceededError):
                batcher.submit(
                    lambda: "late", expires_at=time.monotonic() - 0.01
                )
            assert batcher.shed == 1
        finally:
            batcher.close()

    def test_absolute_deadline_wins_over_relative(self):
        batcher = MicroBatcher(queue_limit=8)
        try:
            # Generous relative budget, expired absolute instant: the
            # absolute one (the propagated end-to-end deadline) rules.
            with pytest.raises(DeadlineExceededError):
                batcher.submit(
                    lambda: None,
                    deadline=60.0,
                    expires_at=time.monotonic() - 0.01,
                )
            # A live absolute deadline passes through normally.
            future = batcher.submit(
                lambda: 42, expires_at=time.monotonic() + 5.0
            )
            assert future.result(timeout=5) == 42
        finally:
            batcher.close()


class TestClose:
    def test_close_drains_pending_work(self):
        batcher = MicroBatcher(queue_limit=64)
        futures = [batcher.submit(lambda i=i: i) for i in range(10)]
        batcher.close()
        assert [f.result(timeout=1) for f in futures] == list(range(10))

    def test_submit_after_close_is_rejected(self):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(ServiceUnavailableError):
            batcher.submit(lambda: None)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher()
        batcher.close()
        batcher.close()


class TestRetryAfter:
    def test_hint_defaults_before_any_drain_history(self):
        batcher = MicroBatcher(queue_limit=4)
        try:
            assert batcher.drain_rate == 0.0
            assert batcher.retry_after_hint() == pytest.approx(0.05)
        finally:
            batcher.close()

    def test_shed_error_carries_drain_rate_hint(self):
        batcher = MicroBatcher(queue_limit=1)
        release = threading.Event()
        try:
            blocker = batcher.submit(release.wait)
            time.sleep(0.1)  # collector now parked on the event
            batcher.submit(lambda: None)  # fills the queue
            with pytest.raises(ServiceOverloadedError) as err:
                batcher.submit(lambda: None)
            assert 0.05 <= err.value.retry_after <= 5.0
            release.set()
            assert blocker.result(timeout=5) is True
        finally:
            release.set()
            batcher.close()

    def test_drain_rate_ewma_tracks_throughput(self):
        batcher = MicroBatcher(queue_limit=64)
        try:
            futures = [batcher.submit(lambda: 1) for _ in range(32)]
            for future in futures:
                assert future.result(timeout=5) == 1
            assert batcher.drain_rate > 0.0
            assert batcher.retry_after_hint() <= 5.0
        finally:
            batcher.close()
