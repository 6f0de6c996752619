"""Inference-graph fusion: BatchNorm folding and fused epilogue modules.

At inference time BatchNorm is a fixed per-channel affine (its statistics
are frozen), so the graph can be rewritten before serving:

* Conv -> BN (-> ReLU) collapses into a single convolution with rescaled
  weights and a bias, executed by the fused conv+bias+ReLU kernel
  (:func:`repro.framework.ops.fused.conv2d_bias_relu_forward`) — the cuDNN
  ``ConvolutionBiasActivationForward`` pattern the paper's inference path
  relies on;
* BN -> ReLU -> Conv (Tiramisu's pre-activation dense layers and
  transitions) becomes one :class:`FusedPreActConv`: a single
  ``np.maximum`` pass over the input, then the conv with rescaled weights
  plus a per-pixel bias map.

The pre-activation fold.  With the BN's per-channel ``scale`` s and
``shift`` t, ``relu(s*x + t) = max(s*x, -t) + t`` for every s, and the
max can be taken two ways:

* ``s * max(x, -t/s)`` when s > 0: one ``max(x, β)`` pass with
  ``β = -t/s`` and no multiply, with s moved into the conv weights;
* ``max(s*x, -t)`` as it stands, for any s (negative and zero included).

Either way ``A = max(α*x, β)`` (α = 1 or s) and

    conv(W, relu(s*x + t)) = conv(W * s/α, A) + conv(W, t * 1)

where both convs zero-pad.  The second term does not depend on ``x``: it
is a per-output-channel constant in the interior and smaller at the
borders, where some taps read the activated tensor's zero padding, so it
is a bias *map* per input geometry.  :meth:`FusedPreActConv.from_bn_conv`
picks the form once, from the BN parameters: α = 1 when every scale is
positive and normal and every ``-t/s`` is finite, α = s otherwise.

``np.maximum`` propagates NaN, so a NaN input stays NaN where the unfused
BN -> ReLU keeps it.  The fold changes rounding, not the result: where the
ReLU clips, ``conv(W * s/α, β)`` and the bias map cancel, so the two forms
differ by about ``eps * sum|W| * (|s*x| + |t|)`` per output (``eps`` of
the accumulation dtype), the order of the GEMM's own rounding.

The rewrite is **opt-in and non-destructive**: :func:`freeze` deep-copies
the model, fuses the copy in place, and marks it ``_frozen`` so it can
never be flipped back into training mode.  The original model — including
its ``analyze()`` kernel inventory, which the Section-VI FLOP methodology
depends on — is untouched.  Composites opt in by defining a
``fuse_inference()`` hook that mutates their own attributes (never their
identity, so plain-list references like ``DenseBlock.layers_list`` stay
valid); bare ``Sequential`` chains are pattern-matched automatically.
"""
from __future__ import annotations

from collections import OrderedDict
from copy import deepcopy

import numpy as np

from .graph import ShapeProbe
from .layers.activation import ReLU
from .layers.conv import Conv2D, slot_for
from .layers.norm import BatchNorm2D
from .module import Identity, Module, Sequential
from .ops.conv import conv2d_flops, conv_output_size
from .ops.fused import conv2d_bias_relu_forward
from .ops.plan import ConvPlan
from .tensor import Tensor

__all__ = [
    "bn_scale_shift",
    "fold_bn_into_conv",
    "FusedConvBiasReLU",
    "FusedPreActConv",
    "fuse_sequential",
    "freeze",
]


def bn_scale_shift(bn: BatchNorm2D) -> tuple[np.ndarray, np.ndarray]:
    """The (scale, shift) float32 pair equal to ``bn`` in inference mode.

    ``bn(x) == scale * x + shift`` per channel, using the frozen running
    statistics.
    """
    inv_std = 1.0 / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
    gamma = bn.gamma.master_value().astype(np.float64)
    beta = bn.beta.master_value().astype(np.float64)
    scale = gamma * inv_std
    shift = beta - scale * bn.running_mean.astype(np.float64)
    return scale.astype(np.float32), shift.astype(np.float32)


def fold_bn_into_conv(conv: Conv2D, bn: BatchNorm2D
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``conv -> bn`` into one ``(weight, bias)`` pair.

    ``bn(conv(x)) == conv'(x) + bias'`` exactly, because BN at inference is
    a per-output-channel affine applied *after* the convolution.  Folding
    runs in float64 and returns the weight in the conv's working dtype and
    the bias in float32 (bias adds happen in the GEMM accumulation buffer).
    """
    scale, shift = bn_scale_shift(bn)
    w = conv.weight.master_value().astype(np.float64)
    w = w * scale.astype(np.float64)[:, None, None, None]
    bias = shift.astype(np.float64).copy()
    if conv.bias is not None:
        bias += scale.astype(np.float64) * conv.bias.master_value()
    return (w.astype(conv.weight.data.dtype, copy=False),
            bias.astype(np.float32))


class FusedConvBiasReLU(Module):
    """Inference-only conv + bias + (optional) ReLU in one planned GEMM.

    Holds plain arrays, not :class:`Parameter`\\ s: frozen graphs are never
    trained or checkpointed, and keeping the folded weights out of
    ``parameters()`` means an optimizer can never touch them by accident.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 relu: bool = True):
        super().__init__()
        self.weight = np.asarray(weight)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float32)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dilation = int(dilation)
        self.relu = bool(relu)
        self.out_channels = self.weight.shape[0]
        self.kernel = self.weight.shape[2]

    @classmethod
    def from_conv_bn(cls, conv: Conv2D, bn: BatchNorm2D,
                     relu: bool = True) -> "FusedConvBiasReLU":
        w, b = fold_bn_into_conv(conv, bn)
        return cls(w, b, conv.stride, conv.padding, conv.dilation, relu=relu)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        k = self.kernel
        return (conv_output_size(h, k, self.stride, self.padding, self.dilation),
                conv_output_size(w, k, self.stride, self.padding, self.dilation))

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            return self._trace(x)
        y = conv2d_bias_relu_forward(x.data, self.weight, self.bias,
                                     self.stride, self.padding, self.dilation,
                                     relu=self.relu)
        return Tensor(y)

    def _trace(self, x: ShapeProbe) -> ShapeProbe:
        tr = x.tracer
        n, c, h, w = x.shape
        oh, ow = self.output_hw(h, w)
        k = self.kernel
        out_shape = (n, self.out_channels, oh, ow)
        flops = conv2d_flops(n, c, self.out_channels, oh, ow, k, k)
        nbytes = (tr.tensor_bytes(x.shape) + tr.tensor_bytes(self.weight.shape)
                  + tr.tensor_bytes(out_shape))
        tr.emit(f"conv{k}x{k}_bias_relu_fwd", "conv_fwd", flops, nbytes,
                algorithm="im2col_gemm_fused")
        return ShapeProbe(out_shape, tr)


class FusedPreActConv(Module):
    """Inference-only BN -> ReLU -> Conv with one pass over the input.

    ``A = max(alpha*x, beta)`` is made into a transient array and fed to
    the planned no-tape conv with the folded weights; the bias map for the
    input geometry is added in the conv's accumulation buffer (see the
    module docstring for the derivation and the choice of ``alpha``).
    Plans and bias maps are cached per input signature, with the same
    bound as a :class:`Conv2D`'s plans.
    """

    def __init__(self, weight: np.ndarray, alpha: np.ndarray | None,
                 beta: np.ndarray, tap_bias: np.ndarray,
                 stride: int, padding: int, dilation: int):
        super().__init__()
        self.weight = np.asarray(weight, dtype=np.float32)
        self.alpha = (None if alpha is None
                      else np.asarray(alpha, np.float32).reshape(1, -1, 1, 1))
        self.beta = np.asarray(beta, np.float32).reshape(1, -1, 1, 1)
        #: ``sum_c W[f, c, u, v] * t[c]`` (float64): tap (u, v)'s share of
        #: the bias wherever it reads inside the image.
        self.tap_bias = np.asarray(tap_bias, dtype=np.float64)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dilation = int(dilation)
        self.out_channels = self.weight.shape[0]
        self.kernel = self.weight.shape[2]
        self._plans: OrderedDict[tuple, ConvPlan] = OrderedDict()
        self._maps: OrderedDict[tuple, np.ndarray] = OrderedDict()

    @classmethod
    def from_bn_conv(cls, bn: BatchNorm2D, conv: Conv2D) -> "FusedPreActConv":
        """Fold eval-mode ``conv(relu(bn(x)))``, picking α from ``bn``."""
        if conv.bias is not None:
            raise ValueError("a pre-activation conv has no bias of its own")
        scale, shift = bn_scale_shift(bn)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            beta = -shift / scale
        # The multiply-free form needs 1/s to exist and -t/s to be finite.
        if (np.all(scale >= np.finfo(np.float32).tiny)
                and np.all(np.isfinite(beta))):
            alpha, factor = None, scale
        else:
            alpha, beta, factor = scale, -shift, np.ones_like(scale)
        # The weights the unfused eval multiplies: the working copy.
        w = conv.weight.data.astype(np.float64)
        tap_bias = np.einsum("fcuv,c->fuv", w, shift.astype(np.float64))
        return cls(w * factor.astype(np.float64)[None, :, None, None],
                   alpha, beta, tap_bias,
                   conv.stride, conv.padding, conv.dilation)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        k = self.kernel
        return (conv_output_size(h, k, self.stride, self.padding, self.dilation),
                conv_output_size(w, k, self.stride, self.padding, self.dilation))

    def bias_map(self, h: int, w: int) -> np.ndarray:
        """``conv(W, t * 1)`` over an (h, w) input, zero-padded: (F, OH, OW),
        or (F,) when no tap reads padding."""
        if self.padding == 0:
            return self.tap_bias.sum(axis=(1, 2)).astype(np.float32)

        def inside(size, out):
            # (K, out): does tap offset u read inside the input at position i?
            pos = (np.arange(out) * self.stride
                   + np.arange(self.kernel)[:, None] * self.dilation
                   - self.padding)
            return ((pos >= 0) & (pos < size)).astype(np.float64)

        oh, ow = self.output_hw(h, w)
        return np.einsum("fuv,ui,vj->fij", self.tap_bias, inside(h, oh),
                         inside(w, ow)).astype(np.float32)

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            return self._trace(x)
        data = x.data
        h, w = data.shape[2:]
        plan = slot_for(self._plans, (data.shape, str(data.dtype)),
                        lambda: ConvPlan(data.shape, self.weight.shape,
                                         self.stride, self.padding,
                                         self.dilation, data.dtype))
        bias = slot_for(self._maps, (h, w), lambda: self.bias_map(h, w))
        if self.alpha is None:
            act = np.maximum(data, self.beta)
        else:
            act = np.multiply(data, self.alpha)
            np.maximum(act, self.beta, out=act)
        return Tensor(plan.forward_notape(act, self.weight, bias=bias))

    def _trace(self, x: ShapeProbe) -> ShapeProbe:
        tr = x.tracer
        n, c, h, w = x.shape
        oh, ow = self.output_hw(h, w)
        k = self.kernel
        out_shape = (n, self.out_channels, oh, ow)
        tr.emit("preact_max_fwd", "pointwise_fwd", x.size,
                2 * tr.tensor_bytes(x.shape))
        flops = conv2d_flops(n, c, self.out_channels, oh, ow, k, k)
        nbytes = (tr.tensor_bytes(x.shape) + tr.tensor_bytes(self.weight.shape)
                  + tr.tensor_bytes(out_shape))
        tr.emit(f"conv{k}x{k}_bias_fwd", "conv_fwd", flops, nbytes,
                algorithm="im2col_gemm_fused")
        return ShapeProbe(out_shape, tr)


def fuse_sequential(seq: Sequential) -> int:
    """Fuse Conv2D -> BatchNorm2D (-> ReLU) runs inside a bare Sequential.

    Returns the number of fusions performed.  Matched batchnorms (and the
    optional trailing ReLU) are replaced with :class:`Identity` so layer
    indices — and any external references into ``seq.layers`` — survive.
    """
    fused = 0
    layers = seq.layers
    i = 0
    while i < len(layers) - 1:
        conv, nxt = layers[i], layers[i + 1]
        if type(conv) is Conv2D and isinstance(nxt, BatchNorm2D):
            relu = i + 2 < len(layers) and isinstance(layers[i + 2], ReLU)
            replacement = FusedConvBiasReLU.from_conv_bn(conv, nxt, relu=relu)
            seq.add_module(str(i), replacement)
            layers[i] = replacement
            seq.add_module(str(i + 1), Identity())
            layers[i + 1] = Identity()
            if relu:
                seq.add_module(str(i + 2), Identity())
                layers[i + 2] = Identity()
            fused += 1
            i += 3 if relu else 2
        else:
            i += 1
    return fused


def _fuse_tree(mod: Module) -> int:
    fused = 0
    hook = getattr(mod, "fuse_inference", None)
    if callable(hook):
        fused += int(hook() or 0)
    elif isinstance(mod, Sequential):
        fused += fuse_sequential(mod)
    # Children are re-read after the hook ran: fused replacements (which
    # have no hooks of their own) are traversed harmlessly.
    for child in list(mod._modules.values()):
        fused += _fuse_tree(child)
    return fused


def freeze(model: Module) -> Module:
    """Return an inference-frozen, fused deep copy of ``model``.

    The copy runs the folded/fused graph in eval mode and refuses to
    re-enter training mode (``train(True)`` is a no-op that keeps eval
    semantics).  None of its parameters requires grad, so it records no
    tape even outside ``no_grad()`` and its convs run the no-tape forward.
    The original model — parameters, running stats, and its ``analyze()``
    kernel records — is left bit-for-bit untouched.
    """
    frozen = deepcopy(model)
    _fuse_tree(frozen)
    for param in frozen.parameters():
        param.requires_grad = False
    frozen.eval()
    object.__setattr__(frozen, "_frozen", True)
    return frozen
