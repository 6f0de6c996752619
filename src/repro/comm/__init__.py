"""Communication substrate: functional MPI, collectives, gradient exchange,
and the Horovod control-plane message-count model."""
from .api import (
    CommStrategy,
    allreduce,
    available_strategies,
    get_strategy,
)
from .coordinator import (
    NegotiationResult,
    ReadinessSchedule,
    centralized_negotiation,
    hierarchical_negotiation,
    tree_children,
    tree_parent,
)
from .costmodel import (
    Link,
    centralized_control_time,
    hierarchical_allreduce_time,
    hierarchical_control_time,
    ring_allreduce_time,
    tree_allreduce_time,
)
from .compression import (
    Int8Compressor,
    QuantizedGradient,
    SparseGradient,
    TopKCompressor,
    make_compressor,
    sparse_allreduce,
)
from .engine import (
    EngineConfig,
    EngineReport,
    FusionPlan,
    GradientExchangeEngine,
    fuse_order,
)
from .halo import gather_stripes, halo_exchange, split_stripes, stripe_bounds
from .simmpi import TrafficStats, World

__all__ = [
    "CommStrategy",
    "allreduce",
    "available_strategies",
    "get_strategy",
    "World",
    "stripe_bounds",
    "split_stripes",
    "halo_exchange",
    "gather_stripes",
    "TopKCompressor",
    "Int8Compressor",
    "SparseGradient",
    "QuantizedGradient",
    "make_compressor",
    "sparse_allreduce",
    "EngineConfig",
    "EngineReport",
    "GradientExchangeEngine",
    "TrafficStats",
    "ReadinessSchedule",
    "NegotiationResult",
    "centralized_negotiation",
    "hierarchical_negotiation",
    "tree_parent",
    "tree_children",
    "FusionPlan",
    "fuse_order",
    "Link",
    "ring_allreduce_time",
    "tree_allreduce_time",
    "hierarchical_allreduce_time",
    "centralized_control_time",
    "hierarchical_control_time",
]
