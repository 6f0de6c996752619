"""Tile cache: content keying, LRU eviction, byte budget, stats."""
import numpy as np
import pytest

from repro.core.inference import tile_positions
from repro.serve import TileCache


def tile(seed, shape=(3, 8, 8)):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


class TestKeying:
    def test_same_content_same_key(self):
        cache = TileCache(1 << 20)
        a = tile(0)
        assert cache.key(a) == cache.key(a.copy())

    def test_different_content_different_key(self):
        cache = TileCache(1 << 20)
        assert cache.key(tile(0)) != cache.key(tile(1))

    def test_key_covers_shape_and_dtype(self):
        cache = TileCache(1 << 20)
        a = tile(0)
        assert cache.key(a) != cache.key(a.reshape(3, 4, 16))
        assert cache.key(a) != cache.key(a.astype(np.float64))

    def test_model_key_invalidates(self):
        a = tile(0)
        assert (TileCache(1, model_key="v0").key(a)
                != TileCache(1, model_key="v1").key(a))

    def test_noncontiguous_tile_keys_like_contiguous(self):
        cache = TileCache(1 << 20)
        big = tile(0, (3, 16, 16))
        view = big[:, 2:10, 4:12]
        assert not view.flags["C_CONTIGUOUS"]
        assert cache.key(view) == cache.key(np.ascontiguousarray(view))
        fortran = np.asfortranarray(big)
        assert not fortran.flags["C_CONTIGUOUS"]
        assert cache.key(fortran) == cache.key(big)

    def test_digest_pinned(self):
        # Recorded when keys were built from a tobytes() copy: hashing the
        # buffer in place must not move a single digest.
        assert (TileCache(1, model_key="m").key(tile(0))
                == "3289b4adebae15a6f35616730e2d6ea9f0a1861e")


SNAPSHOT_HW = (16, 20)
WINDOW_HW = (8, 8)
YS = tile_positions(SNAPSHOT_HW[0], WINDOW_HW[0], 4)
XS = tile_positions(SNAPSHOT_HW[1], WINDOW_HW[1], 4)


def window_keys(cache, snapshot):
    return cache.window_keys(cache.key(snapshot), YS, XS, WINDOW_HW)


class TestWindowKeys:
    """Window keys derive from one digest of the whole snapshot."""

    def test_one_distinct_key_per_window(self):
        keys = window_keys(TileCache(1), tile(0, (3, *SNAPSHOT_HW)))
        assert len(keys) == len(YS) * len(XS) == len(set(keys))

    def test_copy_of_snapshot_gives_same_window_keys(self):
        cache = TileCache(1)
        snap = tile(0, (3, *SNAPSHOT_HW))
        assert window_keys(cache, snap) == window_keys(cache, snap.copy())

    def test_one_element_change_moves_every_window_key(self):
        cache = TileCache(1)
        snap = tile(0, (3, *SNAPSHOT_HW))
        before = window_keys(cache, snap)
        for index in ((0, 0, 0), (1, 7, 9), (2, 15, 19)):
            changed = snap.copy()
            changed[index] += 1.0
            after = window_keys(cache, changed)
            assert all(a != b for a, b in zip(before, after)), index

    def test_position_and_size_change_the_key(self):
        cache = TileCache(1)
        digest = cache.key(tile(0, (3, *SNAPSHOT_HW)))
        (base,) = cache.window_keys(digest, [0], [0], (8, 8))
        for ys, xs, hw in (([4], [0], (8, 8)), ([0], [4], (8, 8)),
                           ([0], [0], (4, 8)), ([0], [0], (8, 4))):
            (moved,) = cache.window_keys(digest, ys, xs, hw)
            assert moved != base, (ys, xs, hw)

    def test_model_key_changes_every_window_key(self):
        snap = tile(0, (3, *SNAPSHOT_HW))
        v0 = window_keys(TileCache(1, model_key="v0"), snap)
        v1 = window_keys(TileCache(1, model_key="v1"), snap)
        assert set(v0).isdisjoint(v1)

    def test_noncontiguous_snapshot_keys_like_contiguous_copy(self):
        cache = TileCache(1)
        big = tile(0, (3, 24, 24))
        view = big[:, 3:3 + SNAPSHOT_HW[0], 2:2 + SNAPSHOT_HW[1]]
        assert not view.flags["C_CONTIGUOUS"]
        assert (window_keys(cache, view)
                == window_keys(cache, np.ascontiguousarray(view)))


class TestLRU:
    def test_hit_after_put(self):
        cache = TileCache(1 << 20)
        t = tile(0)
        k = cache.key(t)
        assert cache.get(k) is None
        value = np.ones((2, 8, 8), np.float32)
        cache.put(k, value)
        np.testing.assert_array_equal(cache.get(k), value)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_evicts_least_recently_used(self):
        block = np.ones((1, 8, 8), np.float32)      # 256 bytes
        cache = TileCache(3 * block.nbytes)
        for name in ("a", "b", "c"):
            cache.put(name, block.copy())
        assert cache.get("a") is not None           # refresh "a"
        cache.put("d", block.copy())                # evicts "b", not "a"
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 3

    def test_stored_bytes_tracks_budget(self):
        block = np.ones((1, 8, 8), np.float32)
        cache = TileCache(2 * block.nbytes)
        for name in ("a", "b", "c", "d"):
            cache.put(name, block.copy())
        assert cache.stats.stored_bytes <= cache.budget_bytes
        assert len(cache) == 2

    def test_oversized_entry_not_stored(self):
        cache = TileCache(16)
        cache.put("big", np.ones((4, 8, 8), np.float32))
        assert len(cache) == 0
        assert cache.get("big") is None

    def test_replace_same_key_no_double_count(self):
        block = np.ones((1, 8, 8), np.float32)
        cache = TileCache(10 * block.nbytes)
        cache.put("a", block.copy())
        cache.put("a", block.copy())
        assert cache.stats.stored_bytes == block.nbytes
        assert len(cache) == 1

    def test_clear(self):
        cache = TileCache(1 << 20)
        cache.put("a", np.ones((1, 4, 4), np.float32))
        cache.clear()
        assert len(cache) == 0 and cache.stats.stored_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            TileCache(-1)


class TestStats:
    def test_hit_rate(self):
        cache = TileCache(1 << 20)
        cache.put("a", np.ones((1, 4, 4), np.float32))
        cache.get("a")
        cache.get("missing")
        doc = cache.stats.as_dict()
        assert doc["hit_rate"] == 0.5
        assert doc["hits"] == 1 and doc["misses"] == 1

    def test_empty_hit_rate_zero(self):
        assert TileCache(1).stats.hit_rate == 0.0
