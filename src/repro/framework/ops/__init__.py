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
from .depthwise import (
    depthwise_conv2d_backward_input,
    depthwise_conv2d_backward_weight,
    depthwise_conv2d_flops,
    depthwise_conv2d_forward,
    depthwise_conv2d_forward_reference,
)
from .fused import conv2d_bias_relu_forward, scale_shift_relu
from .norm import batchnorm_backward, batchnorm_forward, batchnorm_infer
from .plan import (
    ConvPlan,
    DepthwiseConvPlan,
    PlanCache,
    clear_plan_cache,
    get_conv_plan,
    get_depthwise_plan,
    plan_cache_stats,
)
from .pool import (
    avgpool2d_backward,
    avgpool2d_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    maxpool2d_forward_notape,
)
from .shape import (
    bilinear_upsample_backward,
    bilinear_upsample_forward,
    crop2d,
    pad2d_backward,
    pad2d_forward,
)

__all__ = [
    "conv2d_forward",
    "conv2d_forward_reference",
    "conv2d_backward_input_reference",
    "conv2d_backward_weight_reference",
    "depthwise_conv2d_forward_reference",
    "conv2d_bias_relu_forward",
    "scale_shift_relu",
    "ConvPlan",
    "DepthwiseConvPlan",
    "PlanCache",
    "get_conv_plan",
    "get_depthwise_plan",
    "plan_cache_stats",
    "clear_plan_cache",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward_input",
    "depthwise_conv2d_backward_weight",
    "depthwise_conv2d_flops",
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
    "avgpool2d_forward",
    "avgpool2d_backward",
    "pad2d_forward",
    "pad2d_backward",
    "crop2d",
    "bilinear_upsample_forward",
    "bilinear_upsample_backward",
]
