"""Content-keyed LRU tile cache over sliding-window logits.

Climate snapshots arrive with heavy temporal redundancy — bulk
re-scoring and repeated analyst queries re-submit whole snapshots.  Since
tiled inference decomposes every request into fixed-size windows, caching
*per-window logits* keyed on snapshot **content** lets a repeated snapshot
skip the model forward entirely, across requests and across replicas (all
replicas share one cache because they share identical weights).

A request is hashed once: :meth:`TileCache.key` is SHA-1 over the pool's
``model_key``, the snapshot's shape and dtype, and its raw bytes (read in
place, with no copy, when the array is C-contiguous).
:meth:`TileCache.window_keys` then derives each window's key from that
digest and the window's ``(y0, x0, wh, ww)``, so keying costs one pass
over the snapshot instead of one copy and one hash per (overlapping)
window.  A weight change (new ``model_key``) invalidates everything, and
an identical snapshot from another request hits every window.  Identical
windows inside *different* snapshots do not share an entry.

The budget is in *bytes* of stored logits, evicting least-recently-used
entries; an entry larger than the whole budget is simply not stored.
"""
from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "TileCache"]


@dataclass
class CacheStats:
    """Monotonic counters for one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stored_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "stored_bytes": self.stored_bytes,
                "hit_rate": self.hit_rate}


class TileCache:
    """Byte-budgeted LRU of per-window logit blocks.

    Satisfies the duck type tiled inference consults
    (:func:`repro.core.inference.sliding_window_logits`,
    :meth:`repro.serve.replica.Replica.run_batch`): ``key(snapshot)`` and
    ``window_keys(...)`` to key a request, then ``get(key)`` and
    ``put(key, value)`` inside :func:`repro.core.inference.forward_windows`.
    """

    def __init__(self, budget_bytes: int, model_key: str = ""):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self.model_key = str(model_key)
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # -- keying ------------------------------------------------------------

    def key(self, array: np.ndarray) -> str:
        """Content key: array bytes + shape + dtype + model version."""
        h = hashlib.sha1()
        h.update(self.model_key.encode())
        h.update(str(array.shape).encode())
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array))   # copies only if strided
        return h.hexdigest()

    @staticmethod
    def window_keys(snapshot_key: str, ys: list[int], xs: list[int],
                    window_hw: tuple[int, int]) -> list[tuple]:
        """Keys of a snapshot's windows, in ``for y in ys: for x in xs``
        order, derived from the snapshot's :meth:`key`."""
        wh, ww = window_hw
        return [(snapshot_key, y0, x0, wh, ww) for y0 in ys for x0 in xs]

    # -- lookup / insert ---------------------------------------------------

    def get(self, key: Hashable) -> np.ndarray | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Hashable, value: np.ndarray) -> None:
        if value.nbytes > self.budget_bytes:
            return                  # would evict the whole cache for nothing
        old = self._entries.pop(key, None)
        if old is not None:
            self.stats.stored_bytes -= old.nbytes
        self._entries[key] = value
        self.stats.stored_bytes += value.nbytes
        while self.stats.stored_bytes > self.budget_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.stats.stored_bytes -= evicted.nbytes
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self.stats.stored_bytes = 0
