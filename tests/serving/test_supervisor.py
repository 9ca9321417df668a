"""ShardSupervisor: RPC parity, SIGKILL failover, restarts, shutdown."""

from __future__ import annotations

import json
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    ServingError,
    SessionCorruptError,
    SessionExistsError,
    SessionNotFoundError,
    WorkerCrashedError,
)
from repro.serving import (
    ForecastService,
    HashRing,
    ServiceConfig,
    ShardSupervisor,
    make_service,
)
from repro.serving.shard import _DECODERS, decode_error, encode_error
from tests.serving.conftest import observe_subtree_names


#: One instance of every type the worker-to-supervisor transport knows.
TRANSPORT_CASES = [
    SessionNotFoundError("sx"),
    SessionExistsError("sx"),
    ServiceOverloadedError(9, 10),
    DeadlineExceededError(1.5),
    ServiceUnavailableError("shutting down"),
    DataValidationError("bad y"),
    WorkerCrashedError(3, "killed"),
    SessionCorruptError("sx"),
    ConfigurationError("bad knob"),
    ServingError("unknown op"),
]


class TestErrorTransport:
    @pytest.mark.parametrize("error", TRANSPORT_CASES)
    def test_roundtrip_preserves_type(self, error):
        decoded = decode_error(encode_error(error))
        assert type(decoded) is type(error)

    def test_cases_cover_every_decoder(self):
        # A type added to (or removed from) the transport must show up
        # here, so no decoder goes untested and none lingers unused.
        assert {type(e).__name__ for e in TRANSPORT_CASES} == set(_DECODERS)

    def test_overload_attributes_survive(self):
        decoded = decode_error(encode_error(ServiceOverloadedError(9, 10)))
        assert decoded.queue_depth == 9 and decoded.queue_limit == 10

    def test_unknown_type_decodes_to_internal_error(self):
        decoded = decode_error(encode_error(ValueError("a bug")))
        assert type(decoded) is RuntimeError
        assert "a bug" in str(decoded)


@pytest.fixture()
def supervisor(bundle, tmp_path):
    sup = ShardSupervisor(
        bundle,
        ServiceConfig(
            shards=2,
            spill_dir=str(tmp_path),
            deadline=10.0,
            max_sessions=8,
        ),
    )
    yield sup
    sup.shutdown()


class TestSupervisorOperations:
    def test_make_service_picks_runtime(self, bundle, tmp_path):
        from repro.serving import ForecastService

        svc = make_service(
            bundle, ServiceConfig(spill_dir=str(tmp_path))
        )
        assert isinstance(svc, ForecastService)
        svc.shutdown()

    def test_full_cycle_across_shards(self, supervisor, series):
        for sid in ("alpha", "beta", "gamma"):
            info = supervisor.create_session(sid, series[:180])
            assert info["step"] == 0
        out = supervisor.observe("alpha", float(series[180]), seq=1)
        assert out["step"] == 1 and out["degraded"] is False
        peek = supervisor.predict("alpha")
        assert np.isfinite(peek["forecast"])
        assert supervisor.session_info("alpha")["step"] == 1
        supervisor.close_session("beta")
        with pytest.raises(SessionNotFoundError):
            supervisor.observe("beta", 1.0)

    def test_duplicate_create_conflicts(self, supervisor, series):
        supervisor.create_session("dup", series[:180])
        with pytest.raises(SessionExistsError):
            supervisor.create_session("dup", series[:180])

    def test_typed_errors_cross_the_process_boundary(self, supervisor):
        with pytest.raises(SessionNotFoundError):
            supervisor.observe("ghost", 1.0)
        with pytest.raises(DataValidationError):
            supervisor.create_session("short", [1.0, 2.0])

    def test_health_reports_every_shard(self, supervisor):
        health = supervisor.health()
        assert health["status"] == "ok"
        assert health["shards_up"] == 2
        assert all(s["alive"] for s in health["shards"])

    def test_stats_aggregates_shards(self, supervisor, series):
        supervisor.create_session("st", series[:180])
        stats = supervisor.stats()
        assert stats["n_shards"] == 2
        resident = sum(
            s.get("sessions", {}).get("resident", 0)
            for s in stats["shards"].values()
        )
        assert resident == 1


class TestFailover:
    def _kill_owner(self, supervisor, sid):
        shard = supervisor._shards[supervisor.ring.shard_for(sid)]
        os.kill(shard.process.pid, signal.SIGKILL)
        return shard.index

    def test_sigkill_failover_is_lossless_and_bit_identical(
        self, supervisor, bundle, series
    ):
        # A local twin session with the same id evolves from the same
        # per-id seed: the supervised path must match it bit-for-bit
        # even across a SIGKILL + restore.
        twin = bundle.create_session("twin", series[:180])
        supervisor.create_session("twin", series[:180])
        seq = 0
        for value in series[180:186]:
            seq += 1
            out = supervisor.observe("twin", float(value), seq=seq)
            assert out["forecast"] == twin.observe(float(value))
        self._kill_owner(supervisor, "twin")
        for value in series[186:192]:
            seq += 1
            out = supervisor.observe("twin", float(value), seq=seq)
            assert out["forecast"] == twin.observe(float(value))
        assert out["step"] == 12
        assert supervisor.health()["restarts"] >= 1

    def test_acknowledged_observe_survives_crash_as_duplicate(
        self, supervisor, series
    ):
        supervisor.create_session("ack", series[:180])
        acked = supervisor.observe("ack", float(series[180]), seq=1)
        self._kill_owner(supervisor, "ack")
        # Retrying the acknowledged seq after the crash must return the
        # cached ack (exactly-once), not re-apply the observation.
        replay = supervisor.observe("ack", float(series[180]), seq=1)
        assert replay["duplicate"] is True
        assert replay["forecast"] == acked["forecast"]
        assert supervisor.session_info("ack")["step"] == 1

    def test_unsequenced_observe_is_not_retried(
        self, supervisor, series, monkeypatch
    ):
        supervisor.create_session("noseq", series[:180])
        shard = supervisor._shards[supervisor.ring.shard_for("noseq")]

        calls = {"n": 0}
        original = supervisor._call_shard

        def dying_call(s, op, args, dl):
            if op == "observe":
                calls["n"] += 1
                raise WorkerCrashedError(s.index, "injected")
            return original(s, op, args, dl)

        monkeypatch.setattr(supervisor, "_call_shard", dying_call)
        with pytest.raises(WorkerCrashedError):
            supervisor.observe("noseq", float(series[180]))
        assert calls["n"] == 1  # exactly one attempt without a seq
        with pytest.raises(WorkerCrashedError):
            supervisor.observe("noseq", float(series[180]), seq=1)
        assert calls["n"] > 2  # sequenced observe retried

    def test_shutdown_drains_and_refuses(self, bundle, series, tmp_path):
        sup = ShardSupervisor(
            bundle,
            ServiceConfig(
                shards=2,
                spill_dir=str(tmp_path),
                deadline=10.0,
            ),
        )
        sup.create_session("bye", series[:180])
        sup.observe("bye", float(series[180]), seq=1)
        summary = sup.shutdown()
        assert summary["drained"] == 2
        with pytest.raises(ServiceUnavailableError):
            sup.observe("bye", 1.0)
        # The drained sessions are on disk: a fresh supervisor over the
        # same spill root serves them where they left off.
        sup2 = ShardSupervisor(
            bundle,
            ServiceConfig(
                shards=2,
                spill_dir=str(tmp_path),
                deadline=10.0,
            ),
        )
        try:
            assert sup2.session_info("bye")["step"] == 1
        finally:
            sup2.shutdown()


class TestObservability:
    def test_health_reports_worker_state(self, supervisor):
        for row in supervisor.health()["shards"]:
            assert row["state"] == "alive"
            assert row["stable"] in (False, True)
            assert row["heartbeat_age_seconds"] is not None
            assert 0.0 <= row["heartbeat_age_seconds"] < 5.0

    def test_dead_shard_reports_restarting_or_breaker_open(
        self, supervisor, series
    ):
        shard = supervisor._shards[0]
        os.kill(shard.process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        state = None
        while time.monotonic() < deadline:
            row = supervisor.health()["shards"][0]
            if not row["alive"]:
                state = row["state"]
                break
            time.sleep(0.02)
        # The window between death and respawn is narrow; accept either
        # a caught-in-the-act down state or an already-respawned shard.
        assert state in (None, "restarting", "breaker_open")

    def test_stats_merges_tenant_accounting(self, supervisor, series):
        supervisor.create_session("tn-a", series[:180])
        supervisor.observe("tn-a", float(series[180]), seq=1)
        tenants = supervisor.stats()["tenants"]
        assert tenants["totals"]["requests"] >= 2
        assert any(r["tenant"] == "tn-a" for r in tenants["top"])

    def test_metrics_merged_across_worker_processes(
        self, bundle, series, tmp_path
    ):
        sup = ShardSupervisor(
            bundle,
            ServiceConfig(
                shards=2,
                spill_dir=str(tmp_path / "wt"),
                deadline=10.0,
                max_sessions=8,
                worker_telemetry=True,
            ),
        )
        try:
            for sid in ("m-a", "m-b", "m-c"):
                sup.create_session(sid, series[:180])
                sup.observe(sid, float(series[180]), seq=1)
            snapshot = sup.metrics_snapshot()
            observed = sum(
                row["value"]
                for row in snapshot["counters"]
                if row["name"] == "repro_serving_requests_total"
                and row["labels"].get("op") == "observe"
            )
            assert observed == 3.0
            text = sup.metrics_text()
            assert "# TYPE repro_serving_requests_total counter" in text
        finally:
            sup.shutdown()


class TestDistributedTracing:
    def test_rpc_trace_crosses_process_boundary(
        self, bundle, series, tmp_path
    ):
        from repro.obs import TRACER, assemble_trace_dir

        trace_dir = tmp_path / "traces"
        sup = ShardSupervisor(
            bundle,
            ServiceConfig(
                shards=2,
                spill_dir=str(tmp_path / "spill"),
                deadline=10.0,
                max_sessions=8,
                trace_dir=str(trace_dir),
            ),
        )
        try:
            sup.create_session("traced", series[:180])
            with TRACER.span("http.request", path="/test"):
                sup.observe("traced", float(series[180]), seq=1)
        finally:
            sup.shutdown()
        assembler = assemble_trace_dir(trace_dir)
        traces = [
            t for t in assembler.traces()
            if t.root is not None and t.root.name == "http.request"
        ]
        assert len(traces) == 1
        trace = traces[0]
        names = {s.name for s in trace.spans}
        assert {"http.request", "service.observe", "rpc.shard",
                "worker.handle"} <= names
        assert "service.observe" in {
            s.name for s in trace.children(trace.root)
        }
        assert any(p.startswith("shard-") for p in trace.processes)
        assert "frontend" in trace.processes
        assert trace.orphans == 0
        assert {"worker.handle", "pool.eval", "actor.forward"} <= (
            observe_subtree_names(trace)
        )


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

    def test_retry_waits_out_a_scheduled_respawn(
        self, bundle, series, tmp_path, monkeypatch
    ):
        sup = ShardSupervisor(
            bundle, ServiceConfig(shards=1, spill_dir=str(tmp_path))
        )
        try:
            sup.create_session("held", series[:180])
            shard = sup._shards[0]
            slept = []

            def sleep(seconds):
                # Stands in for the monitor's respawn at the end of
                # the backoff: the shard is back when the retry wakes.
                slept.append(seconds)
                with shard.lock:
                    shard.alive = True
                    shard.next_respawn_at = 0.0

            monkeypatch.setattr(
                "repro.runtime.retry.time", SimpleNamespace(sleep=sleep)
            )
            with shard.lock:
                shard.alive = False
                shard.next_respawn_at = time.monotonic() + 1.0
            assert sup.predict("held")["session"] == "held"
            # One retry, and it slept through the whole backoff instead
            # of the policy's 0.05 s first step.
            assert len(slept) == 1 and slept[0] >= 1.0
        finally:
            sup.shutdown()


def _owning_subtrees(spill_root, session_id):
    """Shard subtrees currently holding this session's directory."""
    return sorted(
        shard_dir.name
        for shard_dir in spill_root.glob("shard-*")
        if (shard_dir / session_id).is_dir()
    )


def _start(bundle, spill_root, shards):
    return ShardSupervisor(
        bundle,
        ServiceConfig(
            shards=shards,
            spill_dir=str(spill_root),
            deadline=15.0,
            max_sessions=32,
        ),
    )


class TestRestartAtNewShardCount:
    """The shard count is fixed per supervisor; a restart changes it."""

    def test_restart_sequence_keeps_every_session(
        self, bundle, series, tmp_path
    ):
        root = tmp_path / "fleet"
        twin = ForecastService(
            bundle,
            ServiceConfig(max_sessions=32, spill_dir=str(tmp_path / "twin")),
        )
        sids = [f"tenant-{i:02d}" for i in range(8)]
        # Both restarts must move directories for the test to bite.
        for a, b in ((2, 4), (4, 3)):
            assert any(
                HashRing(a).shard_for(s) != HashRing(b).shard_for(s)
                for s in sids
            )
        acked = dict.fromkeys(sids, 0)
        cursor = 180
        try:
            for shards in (2, 4, 3):
                sup = _start(bundle, root, shards)
                try:
                    assert sup.health()["shards_total"] == shards
                    ring = HashRing(shards)
                    if shards == 2:
                        for sid in sids:
                            sup.create_session(sid, series[:180])
                            twin.create_session(sid, series[:180])
                    else:
                        # Reconciliation ran before the first spawn:
                        # each session sits in exactly one subtree, the
                        # one the new ring routes it to.
                        for sid in sids:
                            assert _owning_subtrees(root, sid) == [
                                f"shard-{ring.shard_for(sid):02d}"
                            ]
                    for _ in range(3):
                        value = float(series[cursor])
                        for sid in sids:
                            acked[sid] += 1
                            out = sup.observe(sid, value, seq=acked[sid])
                            assert out["forecast"] == twin.observe(
                                sid, value
                            )["forecast"]
                        cursor += 1
                    for sid in sids:
                        assert sup.session_info(sid)["step"] == acked[sid]
                finally:
                    sup.shutdown()
        finally:
            twin.shutdown()

    def test_interrupted_reconciliation_finishes_on_next_start(
        self, bundle, series, tmp_path
    ):
        root = tmp_path / "fleet"
        sids = [f"tenant-{i:02d}" for i in range(8)]
        sup = _start(bundle, root, 2)
        try:
            for sid in sids:
                sup.create_session(sid, series[:180])
                for seq in (1, 2):
                    sup.observe(sid, float(series[179 + seq]), seq=seq)
        finally:
            sup.shutdown()

        # A start at 3 shards that crashed after one rename: one
        # directory already sits with its new owner, the rest do not.
        old, new = HashRing(2), HashRing(3)
        movers = [s for s in sids if old.shard_for(s) != new.shard_for(s)]
        assert len(movers) >= 2
        first = movers[0]
        dst = root / f"shard-{new.shard_for(first):02d}"
        dst.mkdir(exist_ok=True)
        os.rename(root / f"shard-{old.shard_for(first):02d}" / first,
                  dst / first)

        sup = _start(bundle, root, 3)
        try:
            for sid in sids:
                assert _owning_subtrees(root, sid) == [
                    f"shard-{new.shard_for(sid):02d}"
                ]
                assert sup.session_info(sid)["step"] == 2
                out = sup.observe(sid, float(series[182]), seq=3)
                assert out["step"] == 3
        finally:
            sup.shutdown()

    def test_stale_ring_journal_does_not_override_config(
        self, bundle, series, tmp_path
    ):
        root = tmp_path / "fleet"
        root.mkdir()
        journal = root / "ring.json"
        journal.write_text(json.dumps({
            "committed": {
                "n_shards": 5, "vnodes": 256, "version": 3,
                "weights": [1.0] * 5,
            },
        }))
        before = journal.read_text()
        sup = _start(bundle, root, 2)
        try:
            assert sup.health()["shards_total"] == 2
            assert len(sup._shards) == 2
            sup.create_session("after", series[:180])
            assert sup.observe("after", float(series[180]), seq=1)[
                "step"
            ] == 1
        finally:
            sup.shutdown()
        assert _owning_subtrees(root, "after") == [
            f"shard-{HashRing(2).shard_for('after'):02d}"
        ]
        # Ignored, not deleted: an older version's file is left alone.
        assert journal.read_text() == before
