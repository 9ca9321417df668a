"""Property tests for the consistent-hash ring.

These pin the guarantees the shard runtime leans on (see the module
docstring of :mod:`repro.serving.ring`): balanced ownership, placement
stability across restarts, and minimal disruption when the fleet is
restarted at one shard more or fewer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving.ring import HashRing


def key_corpus(n: int = 4000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [f"tenant-{rng.integers(0, 10**9)}-{i}" for i in range(n)]


def moved_keys(old: HashRing, new: HashRing, keys) -> dict:
    """``{key: (old_owner, new_owner)}`` for every key that moves."""
    moved = {}
    for key in keys:
        src, dst = old.shard_for(key), new.shard_for(key)
        if src != dst:
            moved[key] = (src, dst)
    return moved


class TestBalance:
    @pytest.mark.parametrize("n_shards", [2, 3, 4, 8, 16, 32])
    def test_ownership_balance_across_shard_counts(self, n_shards):
        # With 256 vnodes/shard the per-shard key share should sit near
        # 1/n: bound the relative stddev and the worst single shard.
        ring = HashRing(n_shards)
        keys = key_corpus()
        counts = np.bincount(
            [ring.shard_for(k) for k in keys], minlength=n_shards
        ).astype(float)
        share = counts / len(keys)
        expected = 1.0 / n_shards
        rel_std = float(share.std() / expected)
        assert rel_std < 0.40, f"relative stddev {rel_std:.3f}"
        assert share.max() < 2.0 * expected
        assert share.min() > 0.25 * expected

    def test_every_shard_owns_vnodes(self):
        for n in (2, 8, 32):
            assert set(HashRing(n)._owners) == set(range(n))


class TestStability:
    def test_identical_config_identical_placement(self):
        # A supervisor restart rebuilds the ring from the shard count;
        # every session must route back to the shard whose spill
        # subtree holds its checkpoints.
        keys = key_corpus()
        for n in (2, 5, 16):
            a, b = HashRing(n), HashRing(n)
            assert [a.shard_for(k) for k in keys] == [
                b.shard_for(k) for k in keys
            ]

    def test_golden_placement(self):
        # Values taken from the ring every existing spill tree was laid
        # out by: a change here strands sessions in the wrong subtree.
        keys = ["tenant-00", "tenant-01", "alpha", "beta", "s1999", "x"]
        golden = {
            2: [1, 1, 0, 0, 0, 0],
            3: [1, 1, 2, 2, 0, 0],
            4: [1, 1, 2, 2, 0, 0],
        }
        for n, owners in golden.items():
            assert [HashRing(n).shard_for(k) for k in keys] == owners


class TestMinimalDisruption:
    @pytest.mark.parametrize("n_shards", [2, 4, 8, 16])
    def test_grow_by_one_moves_about_k_over_n(self, n_shards):
        keys = key_corpus()
        moved = moved_keys(HashRing(n_shards), HashRing(n_shards + 1), keys)
        bound = 1.5 * len(keys) / (n_shards + 1)
        assert len(moved) <= bound, f"{len(moved)} moved > {bound:.0f}"
        # Every move lands on the new shard; nothing reshuffles between
        # surviving shards.
        assert all(dst == n_shards for _, dst in moved.values())

    @pytest.mark.parametrize("n_shards", [3, 4, 8, 16])
    def test_shrink_by_one_moves_about_k_over_n(self, n_shards):
        keys = key_corpus()
        moved = moved_keys(HashRing(n_shards), HashRing(n_shards - 1), keys)
        bound = 1.5 * len(keys) / n_shards
        assert len(moved) <= bound
        # Only keys leaving the removed shard move.
        assert all(src == n_shards - 1 for src, _ in moved.values())


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: HashRing(0),
            lambda: HashRing(2, 0),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            bad()
