"""Inter-node network transfer models (point-to-point redistribution).

Used by the staging simulator: after the disjoint GPFS read, every file is
forwarded to the other nodes that need it over the InfiniBand/Aries fabric
(Section V-A1: "point-to-point MPI messages are used to distribute copies
... tak[ing] advantage of the significantly higher bandwidth of the
Infiniband network").
"""
from __future__ import annotations

from dataclasses import dataclass

from .specs import Link

__all__ = ["FabricModel"]


@dataclass(frozen=True)
class FabricModel:
    """All-to-all capable fabric with per-node injection limits."""

    injection: Link       # per-node NIC
    nodes: int
    bisection_fraction: float = 0.5  # usable fraction of full bisection

    @property
    def aggregate_bandwidth(self) -> float:
        """Sustainable all-to-all aggregate (bytes/s)."""
        full = self.nodes * self.injection.bandwidth
        return full * self.bisection_fraction

    def redistribution_time(self, total_bytes: float,
                            avg_message_bytes: float = 64e6) -> float:
        """Time to move ``total_bytes`` in a balanced all-to-all pattern."""
        if total_bytes <= 0:
            return 0.0
        messages = max(total_bytes / avg_message_bytes, 1.0)
        latency = messages / self.nodes * self.injection.alpha
        return total_bytes / self.aggregate_bandwidth + latency

    def point_to_point_time(self, nbytes: float) -> float:
        return self.injection.transfer_time(nbytes)
