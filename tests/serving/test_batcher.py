"""MicroBatcher: the in-thread admission gate — caller-thread execution,
error isolation, shedding, Retry-After, clean close."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serving import ForecastService, MicroBatcher, ServiceConfig


@pytest.fixture()
def batcher():
    b = MicroBatcher(queue_limit=64)
    yield b
    b.close()


class Holder:
    """Hold the gate from a helper thread until :meth:`release`."""

    def __init__(self, batcher):
        self.batcher = batcher
        self.entered = threading.Event()
        self._release = threading.Event()
        self.result = None
        self.thread = threading.Thread(target=self._run)
        self.thread.start()
        assert self.entered.wait(timeout=5)

    def _run(self):
        def hold():
            self.entered.set()
            return self._release.wait(timeout=10)

        self.result = self.batcher.submit(hold)

    def release(self):
        self._release.set()
        self.thread.join(timeout=10)
        return self.result


def start_waiter(batcher, fn, **kwargs):
    """Submit ``fn`` from a helper thread; returns (thread, outcome)."""
    outcome = {}

    def run():
        try:
            outcome["result"] = batcher.submit(fn, **kwargs)
        except BaseException as err:  # noqa: BLE001 - surfaced to the test
            outcome["error"] = err

    before = batcher.depth
    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 5
    while batcher.depth == before and "error" not in outcome:
        assert time.monotonic() < deadline, "waiter never reached the gate"
        time.sleep(0.001)
    return thread, outcome


class TestDispatch:
    def test_results_round_trip(self, batcher):
        assert [batcher.submit(lambda i=i: i * i) for i in range(20)] == [
            i * i for i in range(20)
        ]

    def test_result_runs_on_the_callers_thread(self, batcher):
        caller = threading.get_ident()
        assert batcher.submit(threading.get_ident) == caller

    def test_exceptions_are_isolated(self, batcher):
        def boom():
            raise ValueError("bad request")

        assert batcher.submit(lambda: "fine") == "fine"
        with pytest.raises(ValueError, match="bad request"):
            batcher.submit(boom)
        assert batcher.submit(lambda: "also fine") == "also fine"

    def test_lone_request_is_dispatched_without_waiting(self, batcher):
        """A free gate runs the request at once: nobody is counted as
        waiting while it runs."""
        assert batcher.submit(lambda: batcher.depth) == 0

    def test_requests_run_one_at_a_time(self, batcher):
        holder = Holder(batcher)
        thread, outcome = start_waiter(batcher, lambda: "second")
        assert "result" not in outcome  # parked behind the holder
        assert holder.release() is True
        thread.join(timeout=5)
        assert outcome == {"result": "second"}

    def test_no_lost_update_under_contention(self, batcher):
        """Eight threads race read-modify-write updates through the gate
        with a tiny switch interval; a lost update would show in the
        total, a leaked counter in ``depth``."""
        state = {"n": 0}

        def bump():
            n = state["n"]
            time.sleep(0)  # yield in the middle of the update
            state["n"] = n + 1

        def client():
            for _ in range(50):
                batcher.submit(bump)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        assert state["n"] == 8 * 50
        assert batcher.depth == 0

    def test_group_handler_is_refused(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(group_handler=lambda payloads: payloads)


class TestBackpressure:
    def test_queue_full_sheds_with_overload_error(self):
        batcher = MicroBatcher(queue_limit=2)
        holder = Holder(batcher)
        waiters = []
        try:
            waiters = [start_waiter(batcher, lambda: None)
                       for _ in range(2)]
            with pytest.raises(ServiceOverloadedError) as excinfo:
                batcher.submit(lambda: None)
            assert excinfo.value.queue_limit == 2
            assert excinfo.value.queue_depth == 2
        finally:
            assert holder.release() is True
            for thread, outcome in waiters:
                thread.join(timeout=5)
                assert outcome == {"result": None}
            batcher.close()

    def test_expired_deadline_is_shed_at_dispatch(self):
        """A waiter whose deadline passes while the gate is held is shed
        without running."""
        batcher = MicroBatcher(queue_limit=8)
        holder = Holder(batcher)
        calls = []
        try:
            thread, outcome = start_waiter(
                batcher, lambda: calls.append("ran"), deadline=0.05
            )
            thread.join(timeout=5)
            assert isinstance(outcome.get("error"), DeadlineExceededError)
            assert calls == []
            assert batcher.shed == 1
        finally:
            assert holder.release() is True
            batcher.close()

    def test_already_expired_absolute_deadline_shed_at_submit(self):
        batcher = MicroBatcher(queue_limit=8)
        try:
            # An absolute expires_at in the past never waits for the
            # gate — the submit itself raises.
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
            assert batcher.submit(
                lambda: 42, expires_at=time.monotonic() + 5.0
            ) == 42
        finally:
            batcher.close()


class TestClose:
    def test_close_drains_pending_work(self):
        batcher = MicroBatcher(queue_limit=64)
        holder = Holder(batcher)
        closer = threading.Thread(target=batcher.close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive()  # waiting for the in-flight request
        with pytest.raises(ServiceUnavailableError):
            batcher.submit(lambda: None)
        assert holder.release() is True
        closer.join(timeout=5)
        assert not closer.is_alive()

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
            assert batcher.retry_after_hint() == pytest.approx(0.05)
        finally:
            batcher.close()

    def test_shed_error_carries_drain_rate_hint(self):
        batcher = MicroBatcher(queue_limit=1)
        batcher.submit(lambda: time.sleep(0.01))  # seeds the smoothing
        holder = Holder(batcher)
        waiter = None
        try:
            waiter, _ = start_waiter(batcher, lambda: None)
            with pytest.raises(ServiceOverloadedError) as err:
                batcher.submit(lambda: None)
            assert 0.05 <= err.value.retry_after <= 5.0
        finally:
            assert holder.release() is True
            if waiter is not None:
                waiter.join(timeout=5)
            batcher.close()

    def test_service_time_ewma_tracks_requests(self):
        batcher = MicroBatcher(queue_limit=64)
        try:
            for _ in range(8):
                batcher.submit(lambda: time.sleep(0.002))
            # Nobody waits, so the hint sits at its floor.
            assert batcher.retry_after_hint() == pytest.approx(0.05)
            assert batcher._request_seconds >= 0.002
        finally:
            batcher.close()


def test_service_starts_no_batcher_thread(bundle, tmp_path):
    service = ForecastService(bundle, ServiceConfig(
        max_sessions=4, spill_dir=str(tmp_path),
    ))
    try:
        names = {thread.name for thread in threading.enumerate()}
        assert "repro-serving-batcher" not in names
    finally:
        service.shutdown()
