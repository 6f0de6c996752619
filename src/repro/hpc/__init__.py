"""HPC substrate: machine specs, event simulation, file-system/fabric models."""
from .events import EventQueue
from .filesystem import SharedFileSystem
from .network import FabricModel
from .specs import (
    P100,
    PIZ_DAINT,
    SUMMIT,
    V100,
    FileSystemSpec,
    GpuSpec,
    NodeSpec,
    SystemSpec,
)

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "SystemSpec",
    "FileSystemSpec",
    "V100",
    "P100",
    "SUMMIT",
    "PIZ_DAINT",
    "EventQueue",
    "SharedFileSystem",
    "FabricModel",
]
