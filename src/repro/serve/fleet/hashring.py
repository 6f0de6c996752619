"""Consistent-hash shard map over replicas, with virtual nodes.

Sharding the tile-key space across replicas is what lets warm tiles
survive scale events: with plain modulo hashing, adding one replica to a
pool of N remaps ~(N-1)/N of all keys — every cache in the fleet goes
cold at once.  A consistent-hash ring remaps only the slice the new
replica takes over (~1/N in expectation), so the steady-state hit rate
dips by one shard's worth and recovers, instead of collapsing.

Implementation notes:

* **Deterministic across processes.**  Points come from SHA-1 of
  ``"{salt}/{node}#{vnode}"`` — never the builtin ``hash()``, whose
  per-process randomization would scatter the shard map between the
  server, its tests, and a replayed run.
* **Virtual nodes** smooth ownership: each replica contributes
  ``vnodes`` points, so the max/mean ownership ratio concentrates toward
  1 as ``vnodes`` grows (the balance the fleet's least-loaded fallback
  no longer has to correct).
* **Exclusion lookup.**  ``assign(key, exclude={r})`` walks past a
  replica's points, yielding the key's *next* owner — the routing used
  both for the warm-up admission ramp (keys not yet ramped onto a new
  replica stay with their previous owner) and for draining a dead one.
"""
from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "remap_fraction"]

_HASH_BITS = 64
_HASH_MASK = (1 << _HASH_BITS) - 1


def _digest(text: str) -> int:
    """Stable 64-bit hash of ``text`` (SHA-1 prefix, process-independent)."""
    return int.from_bytes(
        hashlib.sha1(text.encode()).digest()[:8], "big") & _HASH_MASK


class HashRing:
    """Consistent hashing of keys onto integer node ids.

    Nodes join with :meth:`add`.

    Parameters
    ----------
    vnodes:
        Virtual nodes per node; more points = tighter balance.
    salt:
        Namespace mixed into every point hash, so two rings over the same
        node ids (e.g. two cells) shard the key space independently.
    """

    def __init__(self, vnodes: int = 64, salt: str = ""):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self.salt = str(salt)
        self._nodes: set[int] = set()
        self._points: list[tuple[int, int]] = []    # sorted (hash, node)
        self._hashes: list[int] = []                # parallel hash column
        self._key_cache: dict[int, int] = {}

    # -- membership ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return int(node) in self._nodes

    @property
    def nodes(self) -> list[int]:
        return sorted(self._nodes)

    def add(self, node: int) -> None:
        """Insert ``node``'s virtual points (no-op if already present)."""
        node = int(node)
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            h = _digest(f"{self.salt}/{node}#{v}")
            idx = bisect.bisect_left(self._hashes, h)
            self._points.insert(idx, (h, node))
            self._hashes.insert(idx, h)

    def remove(self, node: int) -> None:
        """Drop ``node``'s points; its keys flow to their ring successors."""
        node = int(node)
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]
        self._hashes = [h for h, _ in self._points]

    # -- lookup --------------------------------------------------------------

    def key_hash(self, key) -> int:
        """Position of ``key`` on the ring (cached for int keys)."""
        if isinstance(key, int):
            h = self._key_cache.get(key)
            if h is None:
                h = self._key_cache[key] = _digest(f"{self.salt}?{key}")
            return h
        return _digest(f"{self.salt}?{key}")

    def key_fraction(self, key) -> float:
        """Stable per-key uniform in [0, 1) — the admission-ramp coin."""
        return (self.key_hash(key) & 0xFFFF) / 65536.0

    def assign(self, key, exclude=()) -> int | None:
        """Owner of ``key``: the first point at/after its hash, clockwise.

        ``exclude`` skips nodes (warm-up fallback, drain routing); returns
        ``None`` when the ring is empty or fully excluded.
        """
        points = self._points
        if not points:
            return None
        n = len(points)
        idx = bisect.bisect_left(self._hashes, self.key_hash(key))
        if not exclude:
            return points[idx % n][1]
        if not self._nodes.difference(exclude):
            return None
        for step in range(n):
            node = points[(idx + step) % n][1]
            if node not in exclude:
                return node
        return None

    # -- diagnostics ---------------------------------------------------------

    def ownership(self) -> dict[int, float]:
        """Fraction of the hash space each node owns (sums to 1.0)."""
        if not self._points:
            return {}
        spans: dict[int, int] = {n: 0 for n in self._nodes}
        prev = self._hashes[-1] - (1 << _HASH_BITS)    # wraparound arc
        for h, node in self._points:
            spans[node] += h - prev
            prev = h
        total = float(1 << _HASH_BITS)
        return {n: spans[n] / total for n in sorted(spans)}

    def assignment(self, keys) -> dict:
        """Current owner for every key in ``keys`` (remap measurement)."""
        return {k: self.assign(k) for k in keys}


def remap_fraction(before: dict, after: dict) -> float:
    """Fraction of shared keys whose owner changed between two snapshots."""
    common = before.keys() & after.keys()
    if not common:
        return 0.0
    moved = sum(1 for k in common if before[k] != after[k])
    return moved / len(common)
