"""File-backed sample store (the HDF5 stand-in) with a serialization gate.

The paper's input pipeline reads one HDF5 file per sample and discovered that
"the HDF5 library used to read the climate data serializes all operations,
negating the benefit of parallel operation" (Section V-A2) — the fix was
multi*process* readers.  We mimic both facts:

* samples live one-per-file on disk (``.npz``), so staging and the input
  pipeline work with real file I/O and real file sizes;
* all reads go through a per-process :class:`SerializationGate`, an
  explicit stand-in for HDF5's global library lock.  Threads within one
  process contend on it (and the gate counts the contention); separate
  processes each have their own gate, which is exactly why the paper's
  multiprocessing fix works.
"""
from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np

from .grid import CHANNEL_NAMES, Grid

__all__ = ["SerializationGate", "SampleFileStore", "GATE"]


class SerializationGate:
    """A global lock with contention accounting (models the HDF5 lock).

    Lock wait/held times are genuine thread-contention measurements, so
    the gate reads an explicit :class:`~repro.telemetry.clock.WallClock`
    rather than the session clock — simulated time does not advance while
    a thread blocks on a mutex.
    """

    def __init__(self):
        from ..telemetry.clock import WallClock

        self._lock = threading.Lock()
        self._clock = WallClock()
        self._held_time = 0.0
        self._wait_time = 0.0
        self._acquisitions = 0

    def __enter__(self):
        t0 = self._clock.now()
        self._lock.acquire()
        t1 = self._clock.now()
        self._wait_time += t1 - t0
        self._acquisitions += 1
        self._t_enter = t1
        return self

    def __exit__(self, *exc):
        self._held_time += self._clock.now() - self._t_enter
        self._lock.release()
        return False

    @property
    def stats(self) -> dict[str, float]:
        return {
            "acquisitions": self._acquisitions,
            "wait_time_s": self._wait_time,
            "held_time_s": self._held_time,
        }

    def reset(self) -> None:
        self._held_time = 0.0
        self._wait_time = 0.0
        self._acquisitions = 0


#: Process-wide gate: every in-process reader thread shares this, just as
#: every thread shares the one HDF5 library lock.
GATE = SerializationGate()


class SampleFileStore:
    """One-(image, label)-pair-per-file dataset directory with a manifest."""

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, index: int) -> Path:
        return self.root / f"data-{index:06d}.npz"

    def write_sample(self, index: int, image: np.ndarray, labels: np.ndarray) -> Path:
        """Persist one sample; image (C,H,W) float32, labels (H,W) int8."""
        image = np.asarray(image, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int8)
        if image.ndim != 3 or labels.shape != image.shape[1:]:
            raise ValueError(f"inconsistent shapes {image.shape} / {labels.shape}")
        path = self._path(index)
        np.savez(path, image=image, labels=labels)
        return path

    def read_sample(self, index: int, gate: SerializationGate | None = None):
        """Read one sample through the serialization gate."""
        g = gate if gate is not None else GATE
        with g:
            with np.load(self._path(index)) as z:
                return z["image"].copy(), z["labels"].copy()

    def write_manifest(self, grid: Grid, count: int) -> None:
        sample_bytes = self._path(0).stat().st_size if count else 0
        manifest = {
            "count": count,
            "nlat": grid.nlat,
            "nlon": grid.nlon,
            "channels": list(CHANNEL_NAMES),
            "sample_file_bytes": sample_bytes,
        }
        (self.root / self.MANIFEST).write_text(json.dumps(manifest, indent=2))

    def read_manifest(self) -> dict:
        return json.loads((self.root / self.MANIFEST).read_text())

    def file_paths(self) -> list[Path]:
        return sorted(self.root.glob("data-*.npz"))

    def __len__(self) -> int:
        return len(self.file_paths())
