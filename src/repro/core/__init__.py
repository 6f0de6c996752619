"""The paper's contribution layer: networks, training algorithms, metrics."""
from . import losses, metrics, networks, optim
from .checkpoint import CheckpointManager
from .convergence import loss_trajectory_summary
from .distributed import DistributedStepResult, DistributedTrainer
from .inference import predict_tiled, sliding_window_logits, tile_positions
from .flops import (
    NetworkFlops,
    count_training_flops,
    network_flop_table,
    paper_conv_example_flops,
)
from .losses import (
    class_weights,
    pixel_weight_map,
    tc_penalty_ratio,
)
from .metrics import SegmentationReport, confusion_matrix, iou_per_class, mean_iou
from .networks import (
    DeepLabConfig,
    DeepLabV3Plus,
    Tiramisu,
    TiramisuConfig,
    deeplab_modified,
    tiramisu_modified,
    tiramisu_original,
)
from .spatial import (
    SpatialPartition,
    activation_bytes_per_rank,
    distributed_conv2d,
    halo_rows_for,
)
from .trainer import StepResult, TrainConfig, Trainer, build_optimizer

__all__ = [
    "Tiramisu",
    "CheckpointManager",
    "SpatialPartition",
    "distributed_conv2d",
    "halo_rows_for",
    "activation_bytes_per_rank",
    "predict_tiled",
    "sliding_window_logits",
    "tile_positions",
    "TiramisuConfig",
    "tiramisu_modified",
    "tiramisu_original",
    "DeepLabV3Plus",
    "DeepLabConfig",
    "deeplab_modified",
    "TrainConfig",
    "Trainer",
    "StepResult",
    "build_optimizer",
    "DistributedTrainer",
    "DistributedStepResult",
    "class_weights",
    "pixel_weight_map",
    "tc_penalty_ratio",
    "SegmentationReport",
    "confusion_matrix",
    "iou_per_class",
    "mean_iou",
    "count_training_flops",
    "network_flop_table",
    "paper_conv_example_flops",
    "NetworkFlops",
    "loss_trajectory_summary",
    "losses",
    "metrics",
    "networks",
    "optim",
]
