"""Raw NumPy kernels (forward + backward) used by the layer library."""
from .conv import (
    conv2d_backward_input,
    conv2d_backward_input_reference,
    conv2d_backward_weight,
    conv2d_backward_weight_reference,
    conv2d_flops,
    conv2d_forward,
    conv2d_forward_reference,
    conv_output_size,
    conv_transpose_output_size,
)
from .fused import conv2d_bias_relu_forward
from .norm import batchnorm_backward, batchnorm_forward, batchnorm_infer
from .plan import (
    ConvPlan,
    PlanCache,
    clear_plan_cache,
    get_conv_plan,
    plan_cache_stats,
)
from .pool import maxpool2d_backward, maxpool2d_forward, maxpool2d_forward_notape
from .workspace import clear_workspace, workspace_stats

__all__ = [
    "conv2d_forward",
    "conv2d_forward_reference",
    "conv2d_backward_input_reference",
    "conv2d_backward_weight_reference",
    "conv2d_bias_relu_forward",
    "ConvPlan",
    "PlanCache",
    "get_conv_plan",
    "plan_cache_stats",
    "clear_plan_cache",
    "workspace_stats",
    "clear_workspace",
    "conv2d_backward_input",
    "conv2d_backward_weight",
    "conv2d_flops",
    "conv_output_size",
    "conv_transpose_output_size",
    "batchnorm_forward",
    "batchnorm_backward",
    "batchnorm_infer",
    "maxpool2d_forward",
    "maxpool2d_forward_notape",
    "maxpool2d_backward",
]
