"""Elastic shard runtime: migration planning and live resize.

Covers the pure pieces without processes (plan determinism, migration
reports) and the end-to-end guarantees with real shard workers: a live resize migrates
every affected session with zero loss and bit-identical forecasts, the
admin HTTP surface drives it, a crash-looping worker cannot spin the
monitor thread hot, and shed requests carry a drain-rate Retry-After.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    ServiceOverloadedError,
)
from repro.serving import (
    ForecastHTTPServer,
    ForecastService,
    HashRing,
    MicroBatcher,
    ServiceConfig,
    ShardSupervisor,
)
from repro.serving.rebalance import Migration, MigrationReport, plan_migrations
from tests.serving.test_http import _json, _request


# ----------------------------------------------------------------------
# Pure planning
# ----------------------------------------------------------------------
class TestPlanMigrations:
    def test_plan_matches_ownership_diff_and_is_sorted(self):
        old, new = HashRing(2), HashRing(2).resized(4)
        keys = [f"tenant-{i}" for i in range(300)]
        plan = plan_migrations(old, new, keys)
        diff = HashRing.ownership_diff(old, new, keys)
        assert {m.session_id: (m.src, m.dst) for m in plan} == diff
        assert [m.session_id for m in plan] == sorted(diff)
        assert all(m.src != m.dst for m in plan)

    def test_identical_rings_plan_nothing(self):
        ring = HashRing(3)
        assert plan_migrations(ring, ring, ["a", "b", "c"]) == []

    def test_migration_is_hashable_and_frozen(self):
        m = Migration("s", 0, 1)
        assert m in {m}
        with pytest.raises(AttributeError):
            m.dst = 2

    def test_report_ok_iff_no_failures(self):
        report = MigrationReport("t", 0, 1, planned=3, moved=2, skipped=1)
        assert report.ok and report.to_dict()["ok"]
        report.failed = 1
        assert not report.ok
        payload = report.to_dict()
        assert payload["planned"] == 3 and payload["failed"] == 1
        json.dumps(payload)  # /admin responses must serialise


# ----------------------------------------------------------------------
# Live resize with real shard workers
# ----------------------------------------------------------------------
@pytest.fixture()
def elastic(bundle, tmp_path):
    sup = ShardSupervisor(
        bundle,
        ServiceConfig(
            shards=2,
            spill_dir=str(tmp_path / "sup"),
            deadline=15.0,
            max_sessions=32,
        ),
    )
    yield sup
    sup.shutdown()


def _owned_dirs(spill_root, session_id):
    """Shard subtrees currently holding this session's directory."""
    return sorted(
        shard_dir.name
        for shard_dir in spill_root.glob("shard-*")
        if (shard_dir / session_id).is_dir()
    )


class TestLiveResize:
    def test_grow_and_shrink_preserve_sessions_bit_identically(
        self, elastic, bundle, series, tmp_path
    ):
        twin = ForecastService(
            bundle,
            ServiceConfig(max_sessions=32, spill_dir=str(tmp_path / "twin")),
        )
        try:
            sids = [f"tenant-{i:02d}" for i in range(8)]
            for sid in sids:
                elastic.create_session(sid, series[:180])
                twin.create_session(sid, series[:180])
            cursor = 180
            for _ in range(3):
                for sid in sids:
                    a = elastic.observe(sid, float(series[cursor]))
                    b = twin.observe(sid, float(series[cursor]))
                    assert a["forecast"] == b["forecast"]
                cursor += 1

            # Grow 2 -> 4: every migrated session must keep serving the
            # exact forecasts of its never-migrated twin.
            result = elastic.resize(4)
            assert result["changed"] and result["kind"] == "grow"
            report = result["report"]
            assert report["ok"] and report["failed"] == 0
            assert report["moved"] + report["skipped"] == report["planned"]
            assert elastic.ring.n_shards == 4
            for _ in range(2):
                for sid in sids:
                    a = elastic.observe(sid, float(series[cursor]))
                    b = twin.observe(sid, float(series[cursor]))
                    assert a["forecast"] == b["forecast"]
                cursor += 1

            # Every session's durable state lives in exactly one shard
            # subtree — the one the committed ring routes it to.
            spill_root = tmp_path / "sup"
            for sid in sids:
                owners = _owned_dirs(spill_root, sid)
                assert owners == [f"shard-{elastic.ring.shard_for(sid):02d}"]

            # Shrink 4 -> 3 under the same contract.
            result = elastic.resize(3)
            assert result["changed"] and result["kind"] == "shrink"
            assert result["report"]["failed"] == 0
            for _ in range(2):
                for sid in sids:
                    a = elastic.observe(sid, float(series[cursor]))
                    b = twin.observe(sid, float(series[cursor]))
                    assert a["forecast"] == b["forecast"]
                cursor += 1
            for sid in sids:
                info = elastic.session_info(sid)
                assert info["step"] == cursor - 180
        finally:
            twin.shutdown()

        # The journal holds the committed ring for crash recovery.
        journal = json.loads((tmp_path / "sup" / "ring.json").read_text())
        assert journal["committed"]["n_shards"] == 3
        assert journal.get("pending") is None

    def test_resize_to_same_size_is_a_no_op(self, elastic):
        result = elastic.resize(2)
        assert result == {"changed": False, "ring": elastic.ring.describe()}

    def test_resize_validation_and_ring_info(self, elastic):
        with pytest.raises(ConfigurationError):
            elastic.resize(0)
        with pytest.raises(ConfigurationError):
            elastic.rebalance_shard(0, factor=1.5)
        info = elastic.ring_info()
        assert info["n_shards"] == 2
        assert info["transition"] is None
        assert info["overrides"] == {} and info["migrating"] == []

    def test_hot_shard_rebalance_moves_sessions_off(
        self, elastic, series, tmp_path
    ):
        sids = [f"tenant-{i:02d}" for i in range(10)]
        for sid in sids:
            elastic.create_session(sid, series[:180])
        hot = max(range(2), key=lambda s: sum(
            1 for sid in sids if elastic.ring.shard_for(sid) == s
        ))
        before = {sid: elastic.ring.shard_for(sid) for sid in sids}
        result = elastic.rebalance_shard(hot, factor=0.5)
        assert result["changed"] and result["report"]["failed"] == 0
        after = {sid: elastic.ring.shard_for(sid) for sid in sids}
        moved = [sid for sid in sids if before[sid] != after[sid]]
        assert all(before[sid] == hot for sid in moved)
        for sid in sids:  # still serveable wherever they landed
            assert elastic.observe(sid, float(series[180]))["step"] == 1


class TestAdminRoutes:
    def test_resize_and_ring_over_http(self, elastic, series):
        srv = ForecastHTTPServer(elastic, port=0).start()
        try:
            _json(srv, "POST", "/v1/sessions", {
                "session": "web", "history": series[:180].tolist(),
            })
            status, out = _json(srv, "POST", "/admin/resize", {"shards": 3})
            assert status == 200 and out["changed"]
            assert out["report"]["failed"] == 0

            status, ring = _json(srv, "GET", "/admin/ring")
            assert status == 200 and ring["n_shards"] == 3

            status, out = _json(
                srv, "POST", "/admin/rebalance",
                {"shard": 0, "factor": 0.5},
            )
            assert status == 200 and "ring" in out

            assert _json(
                srv, "POST", "/admin/resize", {"shards": "three"}
            )[0] == 400
            assert _json(
                srv, "POST", "/admin/resize", {"shards": True}
            )[0] == 400
            # The fleet still serves after the dance.
            status, obs = _json(
                srv, "POST", "/v1/sessions/web/observe",
                {"y": float(series[180])},
            )
            assert status == 200 and obs["step"] == 1
        finally:
            srv.shutdown()

    def test_admin_routes_404_on_in_process_service(
        self, bundle, tmp_path
    ):
        service = ForecastService(
            bundle, ServiceConfig(max_sessions=8, spill_dir=str(tmp_path))
        )
        srv = ForecastHTTPServer(service, port=0).start()
        try:
            status, out = _json(srv, "POST", "/admin/resize", {"shards": 2})
            assert status == 404 and "supervised" in out["detail"]
            assert _json(srv, "GET", "/admin/ring")[0] == 404
            assert _json(srv, "POST", "/admin/rebalance", {})[0] == 404
        finally:
            srv.shutdown()
            service.shutdown()


# ----------------------------------------------------------------------
# Satellite: crash-loop respawn backoff
# ----------------------------------------------------------------------
def _instant_death_worker(shard_index, conn, heartbeat, bundle, config):
    conn.close()
    os._exit(1)


class TestRespawnBackoff:
    def test_crash_loop_backs_off_instead_of_spinning(
        self, bundle, tmp_path, monkeypatch
    ):
        # Fork start method: the child runs the patched target directly.
        monkeypatch.setattr(
            "repro.serving.supervisor.worker_main", _instant_death_worker
        )
        sup = ShardSupervisor(
            bundle,
            ServiceConfig(
                shards=1, spill_dir=str(tmp_path)
            ),
        )
        try:
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                if sup.respawn_backoffs >= 2:
                    break
                time.sleep(0.1)
            shard = sup._shards[0]
            # Exponential backoff engaged...
            assert sup.respawn_backoffs >= 2
            assert shard.crashes_in_row >= 2
            # ...and bounded the respawn churn: without it a worker that
            # dies in ~50ms would burn through dozens of generations.
            assert shard.generation <= 8
        finally:
            sup.shutdown()


# ----------------------------------------------------------------------
# Satellite: Retry-After on overload
# ----------------------------------------------------------------------
class TestRetryAfter:
    def test_hint_defaults_before_any_drain_history(self):
        batcher = MicroBatcher(queue_limit=4)
        try:
            assert batcher.drain_rate == 0.0
            assert batcher.retry_after_hint() == pytest.approx(0.05)
        finally:
            batcher.close()

    def test_shed_error_carries_drain_rate_hint(self):
        batcher = MicroBatcher(max_batch=1, max_wait=0.0, queue_limit=1)
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
        batcher = MicroBatcher(max_batch=8, max_wait=0.0, queue_limit=64)
        try:
            futures = [batcher.submit(lambda: 1) for _ in range(32)]
            for future in futures:
                assert future.result(timeout=5) == 1
            assert batcher.drain_rate > 0.0
            assert batcher.retry_after_hint() <= 5.0
        finally:
            batcher.close()

    def test_http_429_carries_retry_after_header(
        self, bundle, series, tmp_path
    ):
        service = ForecastService(
            bundle,
            ServiceConfig(
                max_sessions=8,
                spill_dir=str(tmp_path),
                queue_limit=1,
                batch_size=1,
                batch_wait=0.0,
                deadline=5.0,
            ),
        )
        srv = ForecastHTTPServer(service, port=0).start()
        release = threading.Event()
        try:
            _json(srv, "POST", "/v1/sessions", {
                "session": "shed", "history": series[:180].tolist(),
            })
            blocker = service.batcher.submit(release.wait)
            time.sleep(0.1)
            service.batcher.submit(lambda: None)  # queue now full
            status, raw, headers = _request(
                srv, "POST", "/v1/sessions/shed/observe", {"y": 1.0}
            )
            payload = json.loads(raw)
            assert status == 429
            assert payload["error"] == "ServiceOverloadedError"
            assert "Retry-After" in headers
            assert 0.05 <= float(headers["Retry-After"]) <= 5.0
            assert payload["retry_after"] == float(headers["Retry-After"])
            release.set()
            assert blocker.result(timeout=5) is True
        finally:
            release.set()
            srv.shutdown()
