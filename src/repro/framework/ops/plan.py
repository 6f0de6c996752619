"""Cached convolution execution plans: ``as_strided`` im2col + one GEMM.

The paper's single-GPU numbers (Section VI, Figures 2-3) are won at the
kernel level: cuDNN lowers every convolution to an implicit GEMM whose
geometry is *planned once* per problem shape (``cudnnFindConvolution...``)
and replayed every step.  The legacy NumPy kernels in :mod:`.conv` instead
re-derive everything per call and issue one small contraction per kernel
tap — K*K einsum round-trips over strided views, each too skinny for BLAS
to reach peak.

:class:`ConvPlan` is the cuDNN-style answer on the NumPy substrate.  For a
fixed problem signature (input shape, weight shape, stride, padding,
dilation, dtype) it precomputes:

* the output geometry and the padded-input geometry;
* the ``as_strided`` im2col view strides that expose every receptive field
  without copying;
* reusable workspace buffers — the zero-initialised padded input (only its
  interior is rewritten per step, so the pad is applied by *construction*,
  not by ``np.pad``) and the ``(N, C*KH*KW, OH*OW)`` column matrix.

All three conv derivatives then lower to a single batched GEMM:

* forward:          ``(F, CKK) @ (N, CKK, P)            -> (N, F, P)``
* weight gradient:  ``(N, F, P) @ (N, P, CKK)  summed N -> (F, CKK)``
* input gradient:   ``(CKK, F) @ (N, F, P)              -> (N, CKK, P)``
  followed by K*K cheap strided scatter-adds (col2im).

The column matrix exists for the weight gradient.  A forward that records
no tape has no reader for it, so :meth:`ConvPlan.forward_notape` may run a
second, *column-free* formulation (shift-GEMM) that puts the K*K expansion
on the output side; the plan picks it from its own geometry exactly when
that moves fewer bytes (:attr:`ConvPlan.column_free`).  Everything taped
keeps the im2col arithmetic above bit for bit.

Plans are cached in a bounded LRU keyed on the problem signature
(:func:`get_conv_plan`); layers additionally hold their *own* plans so the
column workspace survives from a layer's forward to its weight gradient
within a step (see :meth:`ConvPlan.columns_for`), eliminating the double
pad + double im2col the legacy kernels performed.

Mixed precision follows the Tensor-Core contract of the legacy kernels:
half inputs are promoted once into the float32 workspace, every GEMM
accumulates in float32, and only the final result is rounded back.

Workspaces make plans stateful: they are *caches*, not model state — a
deep-copied plan starts cold (``__deepcopy__``), and the version token
returned by :meth:`im2col` lets a caller detect that its columns were
overwritten by a later fill and transparently recompute.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..dtypes import FP16, FP32

__all__ = [
    "ConvPlan",
    "DepthwiseConvPlan",
    "PlanCache",
    "get_conv_plan",
    "get_depthwise_plan",
    "plan_cache_stats",
    "clear_plan_cache",
]


def _out_size(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    """Output extent along one spatial dim (floor convention)."""
    eff = dilation * (kernel - 1) + 1
    out = (size + 2 * padding - eff) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv produces empty output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding} dilation={dilation}"
        )
    return out


def _acc_dtype(dtype) -> np.dtype:
    """GEMM accumulation dtype: FP16 accumulates in FP32 (Tensor-Core style)."""
    dtype = np.dtype(dtype)
    return FP32 if dtype == FP16 else dtype


class _PlanBase:
    """Shared geometry + workspace logic for dense and depthwise plans."""

    def __init__(self, x_shape, kh, kw, stride, padding, dilation, dtype):
        self.x_shape = tuple(int(s) for s in x_shape)
        n, c, h, w = self.x_shape
        self.kh, self.kw = int(kh), int(kw)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dilation = int(dilation)
        self.dtype = np.dtype(dtype)
        self.acc = _acc_dtype(self.dtype)
        self.oh = _out_size(h, self.kh, self.stride, self.padding, self.dilation)
        self.ow = _out_size(w, self.kw, self.stride, self.padding, self.dilation)
        self.hp = h + 2 * self.padding
        self.wp = w + 2 * self.padding
        #: Observability: how many times this plan (re)applied its padding
        #: and how many times it filled the column workspace.  The pad-once
        #: invariant tests pin these down.
        self.pad_fills = 0
        self.col_fills = 0
        self.gemms = 0
        self.colfree_forwards = 0
        #: Monotonic token identifying the current contents of the column
        #: workspace; bumped on every :meth:`im2col` fill.
        self.version = 0
        self._xp: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._dcols: np.ndarray | None = None
        self._tap: np.ndarray | None = None
        self._tap_gemm: np.ndarray | None = None
        self._acc_out: np.ndarray | None = None

    # -- copying ----------------------------------------------------------

    #: Lazily allocated scratch buffers: padded input, im2col columns,
    #: dgrad columns, depthwise tap product, and the column-free forward's
    #: per-tap GEMM output and shifted-sum accumulator.
    _WORKSPACES = ("_xp", "_cols", "_dcols", "_tap", "_tap_gemm", "_acc_out")

    def __deepcopy__(self, memo):
        """Plans are pure caches: a copy starts cold (no workspaces)."""
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        for name in self._WORKSPACES:
            setattr(clone, name, None)
        clone.version = 0
        return clone

    # -- padding ----------------------------------------------------------

    def padded_input(self, x: np.ndarray) -> np.ndarray:
        """Padded, accumulation-dtype view of ``x`` (workspace-backed).

        With padding the zero border is written once at workspace creation;
        each call only rewrites the interior, so padding costs one strided
        copy instead of an allocation + full copy per call (and per
        forward/backward pair, when the caller shares the fill through
        :meth:`columns_for`).
        """
        n, c, h, w = self.x_shape
        if x.shape != self.x_shape:
            raise ValueError(f"plan expects input {self.x_shape}, got {x.shape}")
        if self.padding == 0:
            if x.dtype == self.acc:
                return x
            if self._xp is None:
                self._xp = np.empty((n, c, h, w), dtype=self.acc)
            np.copyto(self._xp, x)
            return self._xp
        if self._xp is None:
            self._xp = np.zeros((n, c, self.hp, self.wp), dtype=self.acc)
        p = self.padding
        self._xp[:, :, p:p + h, p:p + w] = x
        self.pad_fills += 1
        return self._xp

    def _receptive_view(self, xp: np.ndarray) -> np.ndarray:
        """(N, C, KH, KW, OH, OW) read-only view of all receptive fields."""
        n, c = xp.shape[0], xp.shape[1]
        sn, sc, sh, sw = xp.strides
        return np.lib.stride_tricks.as_strided(
            xp,
            (n, c, self.kh, self.kw, self.oh, self.ow),
            (sn, sc, sh * self.dilation, sw * self.dilation,
             sh * self.stride, sw * self.stride),
            writeable=False,
        )

    def _fill_cols(self, x: np.ndarray, cols_6d_shape) -> int:
        xp = self.padded_input(x)
        view = self._receptive_view(xp)
        if self._cols is None:
            self._cols = np.empty(self.cols_shape, dtype=self.acc)
        np.copyto(self._cols.reshape(cols_6d_shape), view)
        self.col_fills += 1
        self.version += 1
        return self.version

    def columns_for(self, token: int, x: np.ndarray) -> np.ndarray:
        """Column matrix for ``x``, reusing the workspace when still valid.

        ``token`` is the version returned by the :meth:`im2col` call whose
        result the caller wants back.  If the workspace has since been
        refilled (same-shape layer re-run, interleaved inference), the
        columns are transparently recomputed from ``x`` — correctness never
        depends on the cache.
        """
        if self._cols is None or self.version != token:
            self.im2col(x)
        return self._cols

    def _col2im(self, d6: np.ndarray, dxp: np.ndarray) -> None:
        """Scatter-add (N,C,KH,KW,OH,OW) tap gradients into the padded grid."""
        s, d = self.stride, self.dilation
        for u in range(self.kh):
            for v in range(self.kw):
                dxp[:, :, u * d: u * d + (self.oh - 1) * s + 1: s,
                    v * d: v * d + (self.ow - 1) * s + 1: s] += d6[:, :, u, v]


class ConvPlan(_PlanBase):
    """Execution plan for a dense 2-D convolution problem signature."""

    def __init__(self, x_shape, w_shape, stride=1, padding=0, dilation=1,
                 dtype=FP32):
        f, cw, kh, kw = (int(s) for s in w_shape)
        super().__init__(x_shape, kh, kw, stride, padding, dilation, dtype)
        n, c, h, w = self.x_shape
        if cw != c:
            raise ValueError(f"channel mismatch: input has {c}, weight expects {cw}")
        self.w_shape = (f, cw, kh, kw)
        self.out_channels = f
        self.cols_shape = (n, c * kh * kw, self.oh * self.ow)
        #: Which forward a no-tape call runs (:meth:`forward_notape`).  The
        #: column-free forward writes K*K*F*hp*wp intermediates where im2col
        #: writes K*K*C*oh*ow, so it is chosen exactly when it moves fewer
        #: bytes; its flat-offset tap shifts need unit stride.
        self.column_free = (self.stride == 1
                            and f * self.hp * self.wp < c * self.oh * self.ow)

    @property
    def key(self) -> tuple:
        return (self.x_shape, self.w_shape, self.stride, self.padding,
                self.dilation, self.dtype.str)

    # -- im2col ------------------------------------------------------------

    def im2col(self, x: np.ndarray) -> int:
        """Fill the column workspace from ``x``; returns the version token."""
        n, c, _, _ = self.x_shape
        return self._fill_cols(x, (n, c, self.kh, self.kw, self.oh, self.ow))

    # -- the three GEMMs ---------------------------------------------------

    def forward_from_cols(self, cols: np.ndarray, w: np.ndarray,
                          bias: np.ndarray | None = None,
                          relu: bool = False) -> np.ndarray:
        """(F, CKK) @ cols -> output; optional fused bias-add + ReLU.

        The bias is added and the ReLU applied *in the accumulation buffer*
        before the single round-trip back to the storage dtype — the NumPy
        rendition of a fused conv+bias+activation kernel epilogue.
        """
        n = self.x_shape[0]
        f = self.out_channels
        wmat = w.astype(self.acc, copy=False).reshape(f, -1)
        out = np.matmul(wmat, cols)              # (N, F, P)
        if bias is not None:
            out += bias.astype(self.acc, copy=False).reshape(1, f, 1)
        if relu:
            np.maximum(out, 0, out=out)
        self.gemms += 1
        return out.reshape(n, f, self.oh, self.ow).astype(self.dtype, copy=False)

    def forward(self, x: np.ndarray, w: np.ndarray,
                bias: np.ndarray | None = None, relu: bool = False) -> np.ndarray:
        token = self.im2col(x)
        return self.forward_from_cols(self.columns_for(token, x), w,
                                      bias=bias, relu=relu)

    def forward_notape(self, x: np.ndarray, w: np.ndarray,
                       bias: np.ndarray | None = None,
                       relu: bool = False) -> np.ndarray:
        """Forward for callers that record no tape (nothing reads columns).

        The column matrix exists for wgrad; without a backward it is pure
        memory traffic.  When the plan is :attr:`column_free` the K*K
        expansion moves to the (narrower) output side instead — shift-GEMM:

        * one GEMM ``(KH*KW*F, C) @ (N, C, hp*wp)`` applies every tap's
          (F, C) pointwise filter to the whole flat padded image;
        * output pixel ``j = i*wp + q`` is the sum over taps of row-block
          ``(u, v)`` read at ``j + u*d*wp + v*d``, so the K*K blocks are
          summed at their flat offsets over the span ``(oh-1)*wp + ow``;
        * flat positions with ``q >= ow`` wrapped into the next row and are
          stripped by the final ``(oh, wp) -> (oh, ow)`` slice.

        A 1x1 kernel has one tap and no wrap-around: the GEMM result *is*
        the output.  Summation order differs from the im2col GEMM (taps are
        added in the accumulation dtype after the channel contraction), so
        results agree with :meth:`forward` to rounding, not bit for bit —
        which is why taped callers never come here.  Plans that are not
        column-free fall through to :meth:`forward` unchanged.
        """
        if not self.column_free:
            return self.forward(x, w, bias=bias, relu=relu)
        n, c, _, _ = self.x_shape
        f = self.out_channels
        taps = self.kh * self.kw
        wp, area = self.wp, self.hp * self.wp
        xflat = self.padded_input(x).reshape(n, c, area)
        wtaps = (w.astype(self.acc, copy=False)
                 .transpose(2, 3, 0, 1).reshape(taps * f, c))
        if taps == 1:
            acc = full = np.matmul(wtaps, xflat)           # (N, F, oh*ow)
        else:
            if self._tap_gemm is None:
                self._tap_gemm = np.empty((n, taps * f, area), dtype=self.acc)
                self._acc_out = np.empty((n, f, self.oh * wp), dtype=self.acc)
            np.matmul(wtaps, xflat, out=self._tap_gemm)
            y = self._tap_gemm.reshape(n, taps, f, area)
            span = (self.oh - 1) * wp + self.ow
            d = self.dilation
            offs = [u * d * wp + v * d
                    for u in range(self.kh) for v in range(self.kw)]
            full = self._acc_out
            acc = full[:, :, :span]
            np.add(y[:, 0, :, :span], y[:, 1, :, offs[1]:offs[1] + span],
                   out=acc)
            for t in range(2, taps):
                np.add(acc, y[:, t, :, offs[t]:offs[t] + span], out=acc)
        if bias is not None:
            acc += bias.astype(self.acc, copy=False).reshape(1, f, 1)
        if relu:
            np.maximum(acc, 0, out=acc)
        self.gemms += 1
        self.colfree_forwards += 1
        out = full.reshape(n, f, self.oh, wp)[:, :, :, :self.ow]
        # The accumulator is a reused workspace: hand back a fresh array
        # (the strip already forces the copy unless this is the 1x1 case).
        return out.astype(self.dtype, copy=taps > 1)

    def backward_weight_from_cols(self, grad_out: np.ndarray,
                                  cols: np.ndarray) -> np.ndarray:
        """wgrad as one batched GEMM; accumulates (and returns) in FP32
        for half inputs, exactly like the legacy kernel."""
        n = self.x_shape[0]
        f = self.out_channels
        g = grad_out.astype(self.acc, copy=False).reshape(n, f, -1)
        dw = np.matmul(g, cols.transpose(0, 2, 1))
        # A one-sample batch needs no reduction (and no copy) over N.
        dw = dw[0] if n == 1 else dw.sum(axis=0)
        self.gemms += 1
        return dw.reshape(self.w_shape)

    def backward_weight(self, grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        token = self.im2col(x)
        return self.backward_weight_from_cols(grad_out, self.columns_for(token, x))

    def backward_input(self, grad_out: np.ndarray, w: np.ndarray) -> np.ndarray:
        """dgrad: one GEMM into the column workspace, then K*K col2im adds."""
        n, c, h, wi = self.x_shape
        f = self.out_channels
        g = grad_out.astype(self.acc, copy=False).reshape(n, f, -1)
        wmat = w.astype(self.acc, copy=False).reshape(f, -1)
        if self._dcols is None:
            self._dcols = np.empty(self.cols_shape, dtype=self.acc)
        np.matmul(wmat.T, g, out=self._dcols)
        self.gemms += 1
        dxp = np.zeros((n, c, self.hp, self.wp), dtype=self.acc)
        self._col2im(self._dcols.reshape(n, c, self.kh, self.kw, self.oh, self.ow),
                     dxp)
        if self.padding:
            p = self.padding
            dxp = dxp[:, :, p:p + h, p:p + wi]
        return dxp.astype(grad_out.dtype, copy=False)


class DepthwiseConvPlan(_PlanBase):
    """Execution plan for per-channel (depthwise) convolution.

    The forward pass is a fused per-tap FMA over the strided receptive-field
    view of the padded workspace: the op is memory-bound (one multiply per
    element), so skipping the im2col materialization beats any GEMM
    formulation — the K*K column copy costs more than the arithmetic it
    feeds.  The weight/input gradients keep the batched per-channel GEMM
    over the tap axis (``(N, C, 1, P) @ (N, C, P, KK)``), where the column
    workspace pays for itself.
    """

    def __init__(self, x_shape, w_shape, stride=1, padding=0, dilation=1,
                 dtype=FP32):
        cw, kh, kw = (int(s) for s in w_shape)
        super().__init__(x_shape, kh, kw, stride, padding, dilation, dtype)
        n, c, h, w = self.x_shape
        if cw != c:
            raise ValueError(f"channel mismatch: input {c}, weight {cw}")
        self.w_shape = (cw, kh, kw)
        self.cols_shape = (n, c, kh * kw, self.oh * self.ow)

    @property
    def key(self) -> tuple:
        return (self.x_shape, self.w_shape, self.stride, self.padding,
                self.dilation, self.dtype.str)

    def im2col(self, x: np.ndarray) -> int:
        n, c, _, _ = self.x_shape
        return self._fill_cols(x, (n, c, self.kh, self.kw, self.oh, self.ow))

    def forward_from_cols(self, cols: np.ndarray, w: np.ndarray) -> np.ndarray:
        n, c, _, _ = self.x_shape
        wa = w.astype(self.acc, copy=False).reshape(1, c, 1, self.kh * self.kw)
        out = np.matmul(wa, cols)                # (N, C, 1, P)
        self.gemms += 1
        return out.reshape(n, c, self.oh, self.ow).astype(self.dtype, copy=False)

    def forward(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Fused per-tap FMA over the receptive-field view (no im2col).

        The output is a fresh buffer (autograd holds it across the step);
        only the per-tap product scratch is workspace-reused.
        """
        n, c, _, _ = self.x_shape
        view = self._receptive_view(self.padded_input(x))
        wa = w.astype(self.acc, copy=False)
        out = np.empty((n, c, self.oh, self.ow), dtype=self.acc)
        np.multiply(view[:, :, 0, 0], wa[:, 0, 0].reshape(1, c, 1, 1), out=out)
        if self.kh * self.kw > 1:
            if self._tap is None:
                self._tap = np.empty_like(out)
            tmp = self._tap
            for u in range(self.kh):
                for v in range(self.kw):
                    if u == 0 and v == 0:
                        continue
                    np.multiply(view[:, :, u, v],
                                wa[:, u, v].reshape(1, c, 1, 1), out=tmp)
                    np.add(out, tmp, out=out)
        return out.astype(self.dtype, copy=False)

    def backward_weight_from_cols(self, grad_out: np.ndarray,
                                  cols: np.ndarray) -> np.ndarray:
        n, c, _, _ = self.x_shape
        g = grad_out.astype(self.acc, copy=False).reshape(n, c, 1, -1)
        dw = np.matmul(g, cols.transpose(0, 1, 3, 2)).sum(axis=0)
        self.gemms += 1
        return dw.reshape(self.w_shape)

    def backward_weight(self, grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        token = self.im2col(x)
        return self.backward_weight_from_cols(grad_out, self.columns_for(token, x))

    def backward_input(self, grad_out: np.ndarray, w: np.ndarray) -> np.ndarray:
        n, c, h, wi = self.x_shape
        g = grad_out.astype(self.acc, copy=False).reshape(n, c, 1, -1)
        wa = w.astype(self.acc, copy=False).reshape(1, c, self.kh * self.kw, 1)
        dcols = wa * g                            # (N, C, KK, P)
        dxp = np.zeros((n, c, self.hp, self.wp), dtype=self.acc)
        self._col2im(dcols.reshape(n, c, self.kh, self.kw, self.oh, self.ow),
                     dxp)
        if self.padding:
            p = self.padding
            dxp = dxp[:, :, p:p + h, p:p + wi]
        return dxp.astype(grad_out.dtype, copy=False)


class PlanCache:
    """Bounded LRU of execution plans, keyed on the problem signature.

    Bounding matters because plans own workspaces proportional to
    ``C * K^2`` times the output extent; an unbounded cache on a workload
    with many distinct tile shapes would be a slow memory leak.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._plans: OrderedDict[tuple, _PlanBase] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple, factory) -> _PlanBase:
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(key)
            return plan
        self.misses += 1
        plan = factory()
        self._plans[key] = plan
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan

    def clear(self) -> None:
        self._plans.clear()

    def stats(self) -> dict[str, int]:
        return {"size": len(self._plans), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


#: Process-wide cache backing the functional conv API.  Layers hold their
#: own plans (so forward/backward workspace sharing cannot be disturbed by
#: other same-shape layers); this cache serves direct kernel calls.
_GLOBAL_PLANS = PlanCache(maxsize=32)


def get_conv_plan(x_shape, w_shape, stride=1, padding=0, dilation=1,
                  dtype=FP32) -> ConvPlan:
    """Fetch (or build) the dense-conv plan for a problem signature."""
    key = (tuple(x_shape), tuple(w_shape), int(stride), int(padding),
           int(dilation), np.dtype(dtype).str, "dense")
    return _GLOBAL_PLANS.get(
        key, lambda: ConvPlan(x_shape, w_shape, stride, padding, dilation, dtype))


def get_depthwise_plan(x_shape, w_shape, stride=1, padding=0, dilation=1,
                       dtype=FP32) -> DepthwiseConvPlan:
    """Fetch (or build) the depthwise-conv plan for a problem signature."""
    key = (tuple(x_shape), tuple(w_shape), int(stride), int(padding),
           int(dilation), np.dtype(dtype).str, "depthwise")
    return _GLOBAL_PLANS.get(
        key, lambda: DepthwiseConvPlan(x_shape, w_shape, stride, padding,
                                       dilation, dtype))


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the process-wide plan cache."""
    return _GLOBAL_PLANS.stats()


def clear_plan_cache() -> None:
    """Drop all cached plans (tests; frees workspace memory)."""
    _GLOBAL_PLANS.clear()
    _GLOBAL_PLANS.hits = _GLOBAL_PLANS.misses = _GLOBAL_PLANS.evictions = 0
