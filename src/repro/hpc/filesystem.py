"""Shared parallel file-system bandwidth model.

The key behaviour (visible in the paper's Figure 5): a shared file system
delivers each client its requested bandwidth until aggregate demand hits the
system limit, after which the aggregate stays at the limit.
"""
from __future__ import annotations

from dataclasses import dataclass

from .specs import FileSystemSpec

__all__ = ["SharedFileSystem"]


@dataclass
class SharedFileSystem:
    """Analytic contention model over a :class:`FileSystemSpec`."""

    spec: FileSystemSpec

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
