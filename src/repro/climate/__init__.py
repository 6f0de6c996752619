"""Climate data substrate: synthetic CAM5 snapshots and heuristic labels."""
from .analytics import (
    StormStatistics,
    basin_summary,
    cell_areas_km2,
    radial_wind_profile,
    storm_statistics,
)
from .dataset import ChannelNormalizer, ClimateDataset, DatasetSplits
from .floodfill import connected_components_periodic, river_mask
from .grid import CHANNEL_NAMES, PAPER_CHANNELS, PAPER_GRID, Grid
from .hdf5store import GATE, SampleFileStore, SerializationGate
from .labels import (
    CLASS_AR,
    CLASS_BG,
    CLASS_NAMES,
    CLASS_TC,
    NUM_CLASSES,
    class_frequencies,
    make_labels,
)
from .stats import PAPER_DATASET, DatasetFacts
from .synthesis import ClimateSnapshot, SnapshotSynthesizer
from .verification import MatchResult, detection_scores, match_objects
from .tracking import Track, advect_cyclone, generate_sequence, track_cyclones
from .teca import TCCandidate, TecaConfig, cyclone_mask, detect_cyclones

__all__ = [
    "Grid",
    "StormStatistics",
    "storm_statistics",
    "radial_wind_profile",
    "basin_summary",
    "cell_areas_km2",
    "Track",
    "advect_cyclone",
    "generate_sequence",
    "track_cyclones",
    "MatchResult",
    "match_objects",
    "detection_scores",
    "PAPER_GRID",
    "PAPER_CHANNELS",
    "CHANNEL_NAMES",
    "ClimateSnapshot",
    "SnapshotSynthesizer",
    "TecaConfig",
    "TCCandidate",
    "detect_cyclones",
    "cyclone_mask",
    "river_mask",
    "connected_components_periodic",
    "CLASS_BG",
    "CLASS_TC",
    "CLASS_AR",
    "NUM_CLASSES",
    "CLASS_NAMES",
    "make_labels",
    "class_frequencies",
    "ClimateDataset",
    "DatasetSplits",
    "ChannelNormalizer",
    "SampleFileStore",
    "SerializationGate",
    "GATE",
    "DatasetFacts",
    "PAPER_DATASET",
]
