"""Dataset-scale facts from the paper, used by the I/O and staging models."""
from __future__ import annotations

from dataclasses import dataclass

from .grid import PAPER_CHANNELS, PAPER_GRID

__all__ = ["DatasetFacts", "PAPER_DATASET"]


@dataclass(frozen=True)
class DatasetFacts:
    """Size arithmetic for a one-sample-per-file climate dataset."""

    num_samples: int
    nlat: int
    nlon: int
    channels: int
    bytes_per_value: int = 4
    label_bytes_per_pixel: int = 2  # int8 label + int8-scale weight metadata

    @property
    def sample_bytes(self) -> int:
        """Bytes of one stored sample (image + label/weight planes)."""
        pixels = self.nlat * self.nlon
        return pixels * self.channels * self.bytes_per_value + pixels * self.label_bytes_per_pixel

    @property
    def total_bytes(self) -> int:
        return self.num_samples * self.sample_bytes

    def replication_factor(self, nodes: int, files_per_node: int) -> float:
        """How many nodes read each file on average under naive staging.

        The paper measured ~23x at 1024 nodes with 1500 files per node
        (Section V-A1).
        """
        return nodes * files_per_node / self.num_samples


#: The paper's dataset: ~63K samples of 1152x768x16 float32, ~3.5 TB total.
PAPER_DATASET = DatasetFacts(
    num_samples=63000,
    nlat=PAPER_GRID.nlat,
    nlon=PAPER_GRID.nlon,
    channels=PAPER_CHANNELS,
)
