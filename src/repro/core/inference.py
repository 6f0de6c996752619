"""Tiled inference for snapshots larger than trainable window sizes.

The paper trains at the native 1152x768 on Summit; anyone reproducing on
smaller hardware (or applying a trained model to even larger grids — the
paper's "images can be millions of pixels" point) needs tiled prediction:
split the snapshot into overlapping windows, predict per window, and blend
the overlaps so tile seams don't show up as segmentation artifacts.

Windows are blended in *logit* space with separable linear (tent) weights,
so a constant-logit model produces exactly constant output regardless of
the tiling — the invariant the tests pin down.

The window forward path is factored so the serving layer
(:mod:`repro.serve`) can reuse it across requests:

* :func:`forward_windows` — run a list of (C, h, w) tiles through the
  model, stacking them into batches of ``batch_size`` and consulting an
  optional tile cache (:class:`repro.serve.TileCache` duck type:
  ``get``/``put``) under per-window keys the caller derived once per
  snapshot (``key`` + ``window_keys``);
* :func:`blend_windows` — tent-blend per-window logits back into one
  (K, H, W) logit map.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..framework import Tensor, no_grad
from ..framework.module import Module

__all__ = ["tile_positions", "tent_window", "forward_windows",
           "blend_windows", "sliding_window_logits", "predict_tiled"]


def tile_positions(size: int, window: int, stride: int) -> list[int]:
    """Start offsets covering [0, size) with a final flush-right window."""
    if window > size:
        raise ValueError(f"window {window} larger than extent {size}")
    if stride < 1 or stride > window:
        raise ValueError("stride must be in [1, window]")
    positions = list(range(0, size - window + 1, stride))
    if positions[-1] != size - window:
        positions.append(size - window)
    return positions


def tent_window(window: int) -> np.ndarray:
    """1-D triangular blending weights, strictly positive."""
    ramp = np.minimum(np.arange(1, window + 1), np.arange(window, 0, -1))
    return ramp.astype(np.float64) / ramp.max()


def forward_windows(model: Module, tiles: list[np.ndarray],
                    batch_size: int = 1, cache=None,
                    keys: list | None = None) -> list[np.ndarray]:
    """Per-tile (K, h, w) float32 logits for a list of (C, h, w) tiles.

    Tiles are forwarded in stacked batches of ``batch_size`` (one model
    call per chunk instead of one per window — the hot-path saving the
    serving benchmarks measure).  ``cache``, when given, must expose
    ``get(key)`` and ``put(key, value)``, and ``keys`` must hold one cache
    key per tile (see :meth:`repro.serve.TileCache.window_keys`); tiles
    whose key hits skip the forward entirely, and every computed logit
    block is stored back.  When every tile hits, the model is not touched.
    Otherwise it runs in eval mode under :func:`~repro.framework.no_grad`
    and is restored to whatever mode it was in before the call, even when
    a forward raises (frozen models stay in eval regardless).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    outs: list[np.ndarray | None] = [None] * len(tiles)
    if cache is not None:
        if keys is None or len(keys) != len(tiles):
            raise ValueError("a cache needs exactly one key per tile")
        misses = []
        for i, k in enumerate(keys):
            hit = cache.get(k)
            if hit is not None:
                outs[i] = hit
            else:
                misses.append(i)
    else:
        misses = list(range(len(tiles)))
    if not misses:
        return outs  # type: ignore[return-value]
    was_training = model.training
    model.train(False)
    try:
        with no_grad():
            for at in range(0, len(misses), batch_size):
                chunk = misses[at:at + batch_size]
                stack = np.stack([tiles[i] for i in chunk]).astype(np.float32)
                logits = model(Tensor(stack)).data.astype(np.float32)
                for j, i in enumerate(chunk):
                    outs[i] = logits[j]
                    if cache is not None:
                        cache.put(keys[i], logits[j])
    finally:
        model.train(was_training)
    return outs  # type: ignore[return-value]


@lru_cache(maxsize=8)
def _blend_weights(image_hw: tuple[int, int], window_hw: tuple[int, int],
                   ys: tuple[int, ...], xs: tuple[int, ...]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """A tiling's 2-D tent weights and its per-pixel normalizer.

    They depend on the geometry alone, so every snapshot of one geometry
    shares them; both are read-only because every caller gets the same
    arrays.
    """
    h, w = image_hw
    wh, ww = window_hw
    weight_2d = tent_window(wh)[:, None] * tent_window(ww)[None, :]
    weight_acc = np.zeros((h, w))
    for y0 in ys:
        for x0 in xs:
            weight_acc[y0: y0 + wh, x0: x0 + ww] += weight_2d
    norm = np.maximum(weight_acc, 1e-12)
    weight_2d.flags.writeable = False
    norm.flags.writeable = False
    return weight_2d, norm


def blend_windows(outs: list[np.ndarray], ys: list[int], xs: list[int],
                  image_hw: tuple[int, int], window_hw: tuple[int, int]
                  ) -> np.ndarray:
    """Tent-blend per-window logits into a full (K, H, W) logit map.

    ``outs`` holds one (K, wh, ww) block per (y, x) position, ordered as
    the nested ``for y in ys: for x in xs`` loop produces them.
    """
    h, w = image_hw
    wh, ww = window_hw
    weight_2d, norm = _blend_weights((h, w), (wh, ww), tuple(ys), tuple(xs))
    acc = None
    i = 0
    for y0 in ys:
        for x0 in xs:
            out = outs[i].astype(np.float64)
            i += 1
            if acc is None:
                acc = np.zeros((out.shape[0], h, w))
            acc[:, y0: y0 + wh, x0: x0 + ww] += out * weight_2d
    if acc is None:
        raise RuntimeError("no tiles generated")
    return (acc / norm).astype(np.float32)


def sliding_window_logits(
    model: Module,
    image: np.ndarray,
    window_hw: tuple[int, int],
    stride_hw: tuple[int, int] | None = None,
    batch_size: int = 1,
    cache=None,
) -> np.ndarray:
    """Blend per-window logits into a full-image logit map.

    ``image`` is (C, H, W); returns (K, H, W).  ``batch_size`` stacks that
    many windows per model call (identical logits up to float
    reassociation); ``cache`` is an optional tile cache, keyed once per
    ``image`` exactly as the serving replicas key it, so offline and served
    calls share entries — see :func:`forward_windows`.
    """
    c, h, w = image.shape
    wh, ww = window_hw
    sh, sw = stride_hw or (wh // 2, ww // 2)
    ys = tile_positions(h, wh, sh)
    xs = tile_positions(w, ww, sw)
    tiles = [image[:, y0: y0 + wh, x0: x0 + ww] for y0 in ys for x0 in xs]
    keys = (cache.window_keys(cache.key(image), ys, xs, (wh, ww))
            if cache is not None else None)
    outs = forward_windows(model, tiles, batch_size=batch_size, cache=cache,
                           keys=keys)
    return blend_windows(outs, ys, xs, (h, w), (wh, ww))


def predict_tiled(model: Module, image: np.ndarray,
                  window_hw: tuple[int, int]) -> np.ndarray:
    """Class-id map for one (C, H, W) snapshot via tiled inference at
    half-window stride."""
    logits = sliding_window_logits(model, image, window_hw)
    return np.argmax(logits, axis=0)
