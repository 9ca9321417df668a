"""Consistent-hash ring placing session ids on shards.

Extracted from :mod:`repro.serving.supervisor` so the placement
function has a life of its own: the supervisor routes sessions with it
and reconciles its spill tree against it at startup, and the property
tests can exercise placement without any processes.

Properties the shard runtime leans on:

- **stability** — placement depends only on ``(key, n_shards,
  vnodes)``; a restarted supervisor with the same shard count routes
  every session back to the shard whose spill subtree holds its
  checkpoints. The vnode label format (``shard-<i>-vn-<v>``) is frozen:
  changing it would silently strand every spilled session;
- **minimal disruption** — a ring with one shard more or fewer moves
  only the keys owned by the added/removed vnodes, ~``K/n`` of the key
  set, never a full reshuffle (``tests/serving/test_ring.py`` bounds
  the moved fraction at ``1.5 * K/n``). Restarting the fleet at a new
  shard count therefore renames only that slice of the spill tree.
"""

from __future__ import annotations

import bisect
import zlib

from repro.exceptions import ConfigurationError

#: Virtual nodes per shard (smooths the partition). CRC32 mixes these
#: short labels unevenly, so the count is set high enough that
#: per-shard ownership stays within the balance / minimal-disruption
#: bounds pinned by ``tests/serving/test_ring.py`` up to 32 shards (8k
#: points at 32 shards — still microseconds to build).
VNODES = 256


def _hash_point(label: str) -> int:
    return zlib.crc32(label.encode()) & 0xFFFFFFFF


class HashRing:
    """Consistent CRC32 hash ring with virtual nodes.

    Shard ``i`` owns ``vnodes`` virtual nodes labelled
    ``shard-i-vn-0 .. shard-i-vn-(vnodes-1)``; a key belongs to the
    owner of the first vnode point at or after its own CRC32.
    """

    def __init__(self, n_shards: int, vnodes: int = VNODES):
        if n_shards < 1:
            raise ConfigurationError(
                f"hash ring needs >= 1 shard, got {n_shards}"
            )
        if vnodes < 1:
            raise ConfigurationError(
                f"hash ring needs >= 1 vnode per shard, got {vnodes}"
            )
        self.n_shards = int(n_shards)
        self.vnodes = int(vnodes)
        pairs = sorted(
            (_hash_point(f"shard-{shard}-vn-{v}"), shard)
            for shard in range(self.n_shards)
            for v in range(self.vnodes)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def shard_for(self, key: str) -> int:
        h = zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
        index = bisect.bisect_right(self._points, h)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(n_shards={self.n_shards}, vnodes={self.vnodes})"
