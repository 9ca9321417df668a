"""Tests for the crash-safe checkpoint subsystem (repro.runtime.checkpoint)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigurationError,
)
from repro.persistence import (
    atomic_write_bytes,
    load_npz_bytes,
    npz_bytes,
    resolve_npz_path,
    save_npz_atomic,
)
from repro.runtime import CheckpointConfig, CheckpointManager, LoopCheckpointer
from repro.runtime.checkpoint import FORMAT_VERSION
from repro.testing import FailureSchedule, SimulatedCrash, TornWriter


def _arrays(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {"weights": rng.normal(size=(4, 3)), "cursor": np.arange(5.0)}


class TestPersistencePrimitives:
    def test_atomic_write_roundtrip(self, tmp_path):
        target = tmp_path / "artefact.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(tmp_path / "a.bin", b"x" * 1024)
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_atomic_write_replaces_existing(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_npz_bytes_roundtrip_bit_exact(self):
        arrays = _arrays()
        restored = load_npz_bytes(npz_bytes(arrays))
        assert set(restored) == set(arrays)
        for name in arrays:
            assert np.array_equal(restored[name], arrays[name])
            assert restored[name].dtype == arrays[name].dtype

    def test_resolve_npz_path_appends_suffix(self, tmp_path):
        assert resolve_npz_path(tmp_path / "p").name == "p.npz"
        assert resolve_npz_path(tmp_path / "p.npz").name == "p.npz"

    def test_save_npz_atomic_returns_real_path(self, tmp_path):
        written = save_npz_atomic(tmp_path / "policy", _arrays())
        assert written.name == "policy.npz"
        assert written.exists()


class TestCheckpointConfig:
    def test_defaults_valid(self):
        CheckpointConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("directory", ""), ("every", 0), ("train_every", 0), ("keep", 0),
    ])
    def test_invalid_rejected(self, field, value):
        config = CheckpointConfig(**{field: value})
        with pytest.raises(ConfigurationError):
            config.validate()


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        arrays = _arrays()
        meta = {"next_episode": 3, "rng": np.random.default_rng(0).bit_generator.state}
        path = manager.save("train", 2, arrays, meta=meta, context={"m": 4})
        snapshot = manager.load(path)
        assert snapshot.kind == "train"
        assert snapshot.step == 2
        assert snapshot.next_step == 3
        assert snapshot.meta["next_episode"] == 3
        assert snapshot.manifest["context"] == {"m": 4}
        for name in arrays:
            assert np.array_equal(snapshot.arrays[name], arrays[name])

    def test_rng_state_roundtrips_through_manifest(self, tmp_path):
        rng = np.random.default_rng(123)
        rng.normal(size=17)  # advance
        manager = CheckpointManager(tmp_path)
        path = manager.save("train", 0, _arrays(),
                            meta={"rng": rng.bit_generator.state})
        restored = np.random.default_rng(0)
        restored.bit_generator.state = manager.load(path).meta["rng"]
        assert np.array_equal(rng.normal(size=8), restored.normal(size=8))

    def test_kind_with_dash_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path).save("a-b", 0, _arrays())

    def test_negative_step_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path).save("train", -1, _arrays())

    def test_restore_latest_empty_dir_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "nowhere").restore_latest("train") is None

    def test_restore_latest_picks_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for step in (0, 5, 3):
            manager.save("online", step, _arrays(step), meta={"step": step})
        snapshot = manager.restore_latest("online")
        assert snapshot.step == 5

    def test_kinds_are_isolated(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 9, _arrays())
        manager.save("online", 2, _arrays())
        assert manager.restore_latest("online").step == 2
        assert manager.restore_latest("train").step == 9


class TestRetention:
    def test_keeps_newest_k(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in range(5):
            manager.save("train", step, _arrays())
        steps = sorted(int(p.stem.rpartition("-")[2])
                       for p in tmp_path.glob("train-*.json"))
        assert steps == [3, 4]
        assert len(list(tmp_path.glob("train-*.npz"))) == 2

    def test_orphan_payload_swept(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save("train", 0, _arrays())
        # A crash between payload and manifest leaves an orphan npz.
        (tmp_path / "train-0000000009.npz").write_bytes(b"orphan")
        manager.save("train", 1, _arrays())
        assert not (tmp_path / "train-0000000009.npz").exists()


class TestCorruptionQuarantine:
    def _save_two(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 0, _arrays(0), meta={"step": 0})
        newest = manager.save("train", 1, _arrays(1), meta={"step": 1})
        return manager, newest

    def test_truncated_payload_falls_back(self, tmp_path):
        manager, newest = self._save_two(tmp_path)
        payload = newest.with_suffix(".npz")
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        snapshot = manager.restore_latest("train")
        assert snapshot.step == 0
        assert (manager.quarantine_dir / payload.name).exists()
        assert not payload.exists()

    def test_garbage_manifest_falls_back(self, tmp_path):
        manager, newest = self._save_two(tmp_path)
        newest.write_bytes(b'{"format_version": 1, "tor')
        assert manager.restore_latest("train").step == 0

    def test_tampered_manifest_digest_detected(self, tmp_path):
        manager, newest = self._save_two(tmp_path)
        manifest = json.loads(newest.read_text())
        manifest["step"] = 7
        newest.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptError):
            manager.load(newest)

    def test_missing_fields_detected(self, tmp_path):
        manager, newest = self._save_two(tmp_path)
        newest.write_text(json.dumps({"format_version": FORMAT_VERSION}))
        with pytest.raises(CheckpointCorruptError, match="missing field"):
            manager.load(newest)

    def test_format_version_mismatch_is_not_corrupt(self, tmp_path):
        manager, newest = self._save_two(tmp_path)
        manifest = json.loads(newest.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        newest.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as info:
            manager.load(newest)
        assert not isinstance(info.value, CheckpointCorruptError)

    def test_all_corrupt_returns_none(self, tmp_path):
        manager, _ = self._save_two(tmp_path)
        for path in tmp_path.glob("train-*.npz"):
            path.write_bytes(b"rot")
        assert manager.restore_latest("train") is None


class TestContextMatching:
    def test_mismatch_skipped_with_fallback(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 0, _arrays(), context={"action_dim": 4})
        manager.save("train", 1, _arrays(), context={"action_dim": 8})
        snapshot = manager.restore_latest("train", context={"action_dim": 4})
        assert snapshot.step == 0

    def test_no_match_returns_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save("train", 0, _arrays(), context={"action_dim": 4})
        assert manager.restore_latest("train", context={"action_dim": 5}) is None


class TestTornWrites:
    def test_torn_payload_never_restored(self, tmp_path):
        """The headline guarantee: a torn snapshot cannot be loaded."""
        good = CheckpointManager(tmp_path)
        good.save("online", 0, _arrays(0), meta={"step": 0})
        torn_writer = TornWriter(FailureSchedule.at(0), fraction=0.4)
        crashing = CheckpointManager(tmp_path, writer=torn_writer)
        with pytest.raises(SimulatedCrash):
            crashing.save("online", 1, _arrays(1), meta={"step": 1})
        # The torn payload is on disk but has no manifest: invisible.
        assert (tmp_path / "online-0000000001.npz").exists()
        snapshot = CheckpointManager(tmp_path).restore_latest("online")
        assert snapshot.step == 0

    def test_torn_manifest_quarantined_and_fallback(self, tmp_path):
        good = CheckpointManager(tmp_path)
        good.save("online", 0, _arrays(0), meta={"step": 0})
        # Call 0 = payload (atomic), call 1 = manifest (torn).
        torn_writer = TornWriter(FailureSchedule.at(1), fraction=0.5)
        crashing = CheckpointManager(tmp_path, writer=torn_writer)
        with pytest.raises(SimulatedCrash):
            crashing.save("online", 1, _arrays(1), meta={"step": 1})
        snapshot = CheckpointManager(tmp_path).restore_latest("online")
        assert snapshot.step == 0
        assert (tmp_path / "quarantine" / "online-0000000001.json").exists()

    def test_simulated_crash_not_an_exception(self):
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

    def test_torn_writer_validation(self):
        with pytest.raises(ConfigurationError):
            TornWriter(FailureSchedule.at(0), fraction=1.0)
        with pytest.raises(ConfigurationError):
            TornWriter(FailureSchedule.at(0), crash="explode")


class TestObservability:
    def test_save_restore_and_quarantine_events(self, tmp_path):
        from repro.obs import MemorySink, configure, shutdown

        sink = MemorySink()
        configure(sinks=[sink])
        try:
            manager = CheckpointManager(tmp_path)
            manager.save("train", 0, _arrays(), meta={"next_episode": 1})
            newest = manager.save("train", 1, _arrays())
            newest.with_suffix(".npz").write_bytes(b"rot")
            restored = manager.restore_latest("train")
        finally:
            shutdown()
        assert restored.step == 0
        saved = sink.events_of("checkpoint_saved")
        assert [e["step"] for e in saved] == [0, 1]
        assert all(e["snapshot_kind"] == "train" for e in saved)
        assert sink.events_of("checkpoint_quarantined")
        (event,) = sink.events_of("checkpoint_restored")
        assert event["step"] == 0
        names = {e["name"] for e in sink.events if "trace" in e}
        assert {"checkpoint.save", "checkpoint.restore"} <= names


class TestLoopCheckpointer:
    def test_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        hook = LoopCheckpointer(manager, "online", every=10, resume=False)
        for step in range(25):
            assert hook.due(step) == ((step + 1) % 10 == 0)
            hook.after_step(step, _arrays(), {"x": 1})
        steps = sorted(int(p.stem.rpartition("-")[2])
                       for p in tmp_path.glob("online-*.json"))
        assert steps == [9, 19]

    def test_restore_respects_resume_flag(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        saver = LoopCheckpointer(manager, "online", every=1, resume=False)
        saver.after_step(4, _arrays(), {})
        assert saver.restore() is None
        resumer = LoopCheckpointer(manager, "online", every=1, resume=True)
        snapshot = resumer.restore()
        assert snapshot is not None
        assert snapshot.meta["next_step"] == 5
