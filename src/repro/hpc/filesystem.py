"""Shared parallel file-system bandwidth model.

The key behaviour (visible in the paper's Figure 5): a shared file system
delivers each client its requested bandwidth until aggregate demand hits the
system limit, after which clients are throttled proportionally and
throughput develops heavy variability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specs import FileSystemSpec

__all__ = ["SharedFileSystem"]

#: Samples :meth:`SharedFileSystem.throughput_variability` draws.
VARIABILITY_SAMPLES = 100


@dataclass
class SharedFileSystem:
    """Analytic contention model over a :class:`FileSystemSpec`."""

    spec: FileSystemSpec

    def client_bandwidth(self, clients: int, per_client_demand: float) -> float:
        """Per-client delivered bandwidth under fair-share throttling."""
        if clients <= 0:
            return 0.0
        total = clients * per_client_demand
        if total <= self.spec.effective_read_bandwidth:
            return per_client_demand
        return self.spec.effective_read_bandwidth / clients

    def saturation(self, clients: int, per_client_demand: float) -> float:
        """Demand / capacity; >= 1 means the file system is the bottleneck."""
        return clients * per_client_demand / self.spec.effective_read_bandwidth

    def read_time(self, total_bytes: float, clients: int, per_client_bw: float) -> float:
        """Time for ``clients`` to collectively read ``total_bytes``.

        Each client can pull at most ``per_client_bw``; the system caps the
        aggregate.  Assumes a balanced partition of the bytes.
        """
        if total_bytes <= 0:
            return 0.0
        agg = min(clients * per_client_bw, self.spec.effective_read_bandwidth)
        if agg <= 0:
            raise ValueError("no read bandwidth available")
        return total_bytes / agg

    def throughput_variability(self, saturation: float) -> np.ndarray:
        """``VARIABILITY_SAMPLES`` relative delivered-bandwidth samples
        (seed 0); variance grows as the FS saturates (the paper observed
        "larger variability" near the limit)."""
        rng = np.random.default_rng(0)
        sat = min(max(saturation, 0.0), 4.0)
        # Below saturation: a few percent jitter.  Beyond: long-tailed slowdowns.
        sigma = 0.02 + 0.18 * max(sat - 0.8, 0.0)
        draw = rng.lognormal(mean=0.0, sigma=sigma, size=VARIABILITY_SAMPLES)
        cap = 1.0 / max(sat, 1.0)
        return np.minimum(cap, cap / draw)
