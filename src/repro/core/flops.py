"""Graph-based FLOP counting (the paper's Section VI methodology).

The paper computes FLOP/s by traversing the TensorFlow operation graph and
summing each node's floating-point work, validated against cuDNN API traces
(all convolutions ran as implicit GEMMs or direct convolutions, so the
direct-convolution count applies).  Our layers emit the same inventory
through the symbolic tracer; this module packages it into the numbers the
paper reports.

Reference values (Figure 2):

==================  =====================  ==============
Network             Configuration          TF / sample
==================  =====================  ==============
DeepLabv3+          16 ch, 1152x768        14.41
Tiramisu            16 ch, 1152x768        4.188
Tiramisu            4 ch (Piz Daint)       3.703
==================  =====================  ==============
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..framework.graph import GraphAnalysis
from ..framework.init import shape_only
from ..framework.module import Module
from ..framework.ops.conv import conv2d_flops
from . import networks

__all__ = [
    "PAPER_OP_COUNTS_TF",
    "NetworkFlops",
    "count_training_flops",
    "paper_conv_example_flops",
    "paper_network",
    "paper_graph",
    "network_flop_table",
]

#: Figure 2 "Operation Count (TF/sample)" values.
PAPER_OP_COUNTS_TF = {
    "deeplabv3+": 14.41,
    "tiramisu": 4.188,
    "tiramisu_4ch": 3.703,
}

#: The paper's native 1152x768 image, as (height, width).
PAPER_HW = (768, 1152)

#: The paper's benchmarked configurations: name -> (constructor, input
#: channels).  The one place a network name becomes a network.
_PAPER_NETWORKS = {
    "deeplabv3+": (networks.deeplab_modified, 16),
    "tiramisu": (networks.tiramisu_modified, 16),
    "tiramisu_4ch": (networks.tiramisu_modified, 4),
}


@dataclass(frozen=True)
class NetworkFlops:
    """FLOP summary for one network configuration."""

    name: str
    tf_per_sample: float
    paper_tf_per_sample: float | None
    parameters: int
    kernel_count: int

    @property
    def ratio_to_paper(self) -> float | None:
        if self.paper_tf_per_sample is None:
            return None
        return self.tf_per_sample / self.paper_tf_per_sample


def count_training_flops(model: Module,
                         input_shape: tuple[int, int, int]) -> GraphAnalysis:
    """Full FP32 training-step kernel inventory (forward + backward) of
    one sample."""
    return model.analyze(input_shape, batch=1, precision="fp32",
                         include_backward=True)


def paper_conv_example_flops() -> int:
    """The worked example from Section VI: 3x3 direct conv on 1152x768,
    48 in / 32 out channels, batch 2 -> 48.9e9 FLOPs."""
    return conv2d_flops(batch=2, in_channels=48, out_channels=32,
                        out_h=768, out_w=1152, kernel_h=3, kernel_w=3)


def paper_network(network: str) -> Module:
    """A shape-only instance of one of the paper's configurations.

    Built under :func:`repro.framework.init.shape_only`: good for
    ``analyze`` and ``num_parameters`` (all a cost model needs), allocates
    no weights, and refuses to be trained or saved.
    """
    if network not in _PAPER_NETWORKS:
        raise ValueError(f"unknown network {network!r}")
    build, channels = _PAPER_NETWORKS[network]
    with shape_only():
        return build(in_channels=channels)


def paper_graph(network: str, batch: int, precision: str,
                include_backward: bool = True) -> tuple[GraphAnalysis, int]:
    """Traced kernel inventory and parameter count of a paper-size network
    on a ``PAPER_HW`` image.

    The single, memoised source of paper-size graphs for the cost models in
    :mod:`repro.perf`: the first call per configuration builds a shape-only
    network and traces it (milliseconds, no weight is drawn); later calls
    return the same immutable analysis.
    """
    # Positional, so every spelling of one configuration shares a cache entry.
    return _paper_graph(network, batch, precision, include_backward)


@lru_cache(maxsize=64)
def _paper_graph(network, batch, precision, include_backward):
    model = paper_network(network)
    channels = _PAPER_NETWORKS[network][1]
    analysis = model.analyze((channels, *PAPER_HW), batch=batch,
                             precision=precision,
                             include_backward=include_backward)
    return analysis, model.num_parameters()


def network_flop_table() -> list[NetworkFlops]:
    """Reproduce Figure 2's operation-count column for all three configs."""
    rows = []
    for name in _PAPER_NETWORKS:
        a, parameters = paper_graph(name, 1, "fp32")
        rows.append(NetworkFlops(name, a.flops_per_sample() / 1e12,
                                 PAPER_OP_COUNTS_TF[name], parameters,
                                 a.kernel_count))
    return rows
