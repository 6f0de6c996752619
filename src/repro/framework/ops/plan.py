"""Cached convolution execution plans: ``as_strided`` im2col + one GEMM.

The paper's single-GPU numbers (Section VI, Figures 2-3) are won at the
kernel level: cuDNN lowers every convolution to an implicit GEMM whose
geometry is *planned once* per problem shape (``cudnnFindConvolution...``)
and replayed every step.  The legacy NumPy kernels in :mod:`.conv` instead
re-derive everything per call and issue one small contraction per kernel
tap — K*K einsum round-trips over strided views, each too skinny for BLAS
to reach peak.

:class:`ConvPlan` is the cuDNN-style answer on the NumPy substrate, and
the only plan kind: the paper's networks keep every convolution dense (no
depthwise-separable factorization, Section V-B5).  For a fixed problem
signature (input shape, weight shape, stride, padding, dilation, dtype) it
precomputes:

* the output geometry and the padded-input geometry;
* the ``as_strided`` im2col view strides that expose every receptive field
  without copying;
* which formulation each derivative runs, read from that geometry.

A plan keeps only state that outlives a call: its counters and the
``(N, C*KH*KW, OH*OW)`` column matrix of a taped forward, which the weight
gradient reads back later in the step (:meth:`ConvPlan.columns_for`).  Every
other buffer a call needs — the padded input, a no-tape call's columns, the
shift-GEMM outputs, the input gradient's columns — is per-call scratch,
borrowed from this thread's workspace arena (:mod:`.workspace`), as cuDNN
borrows the workspace its caller lends it.  A slab is shared by every plan,
so a kernel rewrites each zero region it reads — the padded input's border,
the tap GEMM's guards, the pitched ``grad_out``'s trailing columns — on
every call; the pad is still applied by *construction* (an interior copy
into a zero-bordered buffer), not by ``np.pad``.

All three conv derivatives then lower to a single batched GEMM:

* forward:          ``(F, CKK) @ (N, CKK, P)            -> (N, F, P)``
* weight gradient:  ``(N, F, P) @ (N, P, CKK)  summed N -> (F, CKK)``, or
  its operand-swapped twin when that is cheaper (small F, large P); for
  stacked ranks, summed over each rank's samples only
* input gradient:   ``(CKK, F) @ (N, F, P)              -> (N, CKK, P)``
  followed by K*K tap adds (at unit stride on a pitched flat grid, see
  :meth:`ConvPlan.backward_input`; strided, a col2im scatter).

Small feature maps — DeepLab's encoder ends in 1x1 maps on small grids —
add two facts the plan reads from its own geometry:

* :attr:`ConvPlan.live_taps`: a tap whose receptive offsets never land
  inside the unpadded input reads only padding (on a 1x1 map, 8 of a
  dilated 3x3 kernel's 9 taps).  Its weight gradient is +0 and its input
  gradient lands only in the stripped border, so neither is scattered or
  multiplied.  The GEMMs keep those rows and columns: dropping them changes
  the GEMM's shape, and with it BLAS's blocking and rounding.
* one output pixel (``P == 1``): the weight gradient's GEMM would contract
  over a single product, so it is the outer product ``g ⊗ cols`` plus +0,
  the sign of zero BLAS gives; the input gradient runs the column GEMM
  (N = 1) with no shift workspace.

The column matrix exists for the weight gradient.  A forward that records
no tape has no reader for it, so :meth:`ConvPlan.forward_notape` may run a
second, *column-free* formulation (a pad-free shift-GEMM on the unpadded
input: no padded copy, no strip) that puts the K*K expansion on the output
side; the plan picks it from its own geometry — unit stride, 'same'
geometry, and fewer output than input channels or a 1x1 kernel
(:attr:`ConvPlan.column_free`).  That forward adds the taps after the
channel contraction, a different rounding order, so everything taped
keeps the im2col forward; the two gradients above run every sum in the
order the plain column formulation does.

Plans are cached in a bounded LRU keyed on the problem signature
(:func:`get_conv_plan`); layers additionally hold their *own* plans so the
column matrix survives from a layer's forward to its weight gradient
within a step (see :meth:`ConvPlan.columns_for`), eliminating the double
pad + double im2col the legacy kernels performed.

Mixed precision follows the Tensor-Core contract of the legacy kernels:
half inputs are promoted once into a float32 workspace, every GEMM
accumulates in float32, and only the final result is rounded back.

The column matrix makes plans stateful: it is a *cache*, not model state —
a deep-copied plan starts cold (``__deepcopy__``), and the version token
returned by :meth:`im2col` lets a caller detect that its columns were
overwritten by a later fill and transparently recompute.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..dtypes import FP16, FP32
from .workspace import take

__all__ = [
    "ConvPlan",
    "PlanCache",
    "get_conv_plan",
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


def _live_offsets(kernel: int, out: int, size: int, stride: int,
                  padding: int, dilation: int) -> list[int]:
    """Kernel offsets along one dim that read the unpadded input for at
    least one output position (the rest read only zero padding)."""
    return [u for u in range(kernel)
            if any(0 <= i * stride + u * dilation - padding < size
                   for i in range(out))]


def _acc_dtype(dtype) -> np.dtype:
    """GEMM accumulation dtype: FP16 accumulates in FP32 (Tensor-Core style)."""
    dtype = np.dtype(dtype)
    return FP32 if dtype == FP16 else dtype


class ConvPlan:
    """Execution plan for a dense 2-D convolution problem signature."""

    def __init__(self, x_shape, w_shape, stride=1, padding=0, dilation=1,
                 dtype=FP32):
        self.x_shape = tuple(int(s) for s in x_shape)
        n, c, h, w = self.x_shape
        f, cw, kh, kw = (int(s) for s in w_shape)
        if cw != c:
            raise ValueError(f"channel mismatch: input has {c}, weight expects {cw}")
        self.w_shape = (f, cw, kh, kw)
        self.out_channels = f
        self.kh, self.kw = kh, kw
        self.stride = int(stride)
        self.padding = int(padding)
        self.dilation = int(dilation)
        self.dtype = np.dtype(dtype)
        self.acc = _acc_dtype(self.dtype)
        self.oh = _out_size(h, kh, self.stride, self.padding, self.dilation)
        self.ow = _out_size(w, kw, self.stride, self.padding, self.dilation)
        self.hp = h + 2 * self.padding
        self.wp = w + 2 * self.padding
        self.cols_shape = (n, c * kh * kw, self.oh * self.ow)
        #: Which forward a no-tape call runs (:meth:`forward_notape`).  The
        #: pad-free shift-GEMM needs unit stride and 'same' geometry: the
        #: output grid is the input grid and the (odd) kernel's centre tap
        #: is unshifted, so every tap is a flat shift of the GEMM output.
        #: It writes K*K*F*h*w GEMM outputs where im2col writes K*K*C*h*w
        #: columns, so it is chosen when F < C, and for a 1x1 kernel, whose
        #: GEMM reads the input as it stands.
        self.column_free = (self.stride == 1 and kh % 2 == 1
                            and (self.oh, self.ow) == (h, w)
                            and (f < c or kh * kw == 1))
        #: Which operand order wgrad uses (:meth:`backward_weight_from_cols`).
        #: ``cols @ g^T`` costs one transposed copy of the (F, C*K*K) result
        #: more than ``g @ cols^T``, so it is chosen exactly when that result
        #: is smaller than the two operands the GEMM reads.
        ckk = c * kh * kw
        self.wgrad_swapped = f * ckk < (f + ckk) * self.oh * self.ow
        #: Taps ``u*kw + v`` whose receptive offsets land inside the
        #: unpadded input for some output pixel.  A dead tap reads only zero
        #: padding: its column rows are zero and its input gradient lands
        #: only in the stripped border, so the single-pixel wgrad does not
        #: multiply it and dgrad does not scatter it.  On a 1x1 map with
        #: padding = dilation only the centre tap of a 3x3 kernel is live.
        self.live_taps = tuple(
            u * kw + v
            for u in _live_offsets(kh, self.oh, h, self.stride, self.padding,
                                   self.dilation)
            for v in _live_offsets(kw, self.ow, w, self.stride, self.padding,
                                   self.dilation))
        #: Observability: how many times this plan (re)applied its padding
        #: and how many times it filled a column matrix (its own or the
        #: arena's).  The pad-once invariant tests pin these down.
        self.pad_fills = 0
        self.col_fills = 0
        self.gemms = 0
        self.colfree_forwards = 0
        #: Work counters of the geometry-picked backward paths: wgrads formed
        #: as an outer product (one output pixel, no K=1 GEMM), and dead taps
        #: skipped (not multiplied by wgrad, not scattered by dgrad), summed
        #: over calls.
        self.pixel_wgrads = 0
        self.dead_taps_skipped = 0
        #: Monotonic token identifying the current contents of the column
        #: matrix; bumped on every :meth:`im2col` fill.
        self.version = 0
        #: The taped forward's columns, kept for the weight gradient.  The
        #: plan's only buffer; per-call scratch comes from the arena.
        self._cols: np.ndarray | None = None

    @property
    def key(self) -> tuple:
        return (self.x_shape, self.w_shape, self.stride, self.padding,
                self.dilation, self.dtype.str)

    @property
    def owned_bytes(self) -> int:
        """Bytes of workspace the plan itself holds (the taped columns)."""
        return 0 if self._cols is None else self._cols.nbytes

    # -- copying ----------------------------------------------------------

    def __deepcopy__(self, memo):
        """Plans are pure caches: a copy starts cold (no columns)."""
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone._cols = None
        clone.version = 0
        return clone

    # -- padding and im2col ----------------------------------------------

    def padded_input(self, x: np.ndarray) -> np.ndarray:
        """Padded, accumulation-dtype copy of ``x`` in the arena's ``xp``
        slab (``x`` itself when there is nothing to pad or promote).

        The slab holds the previous call's data, so each call writes the
        zero border strip by strip and copies ``x`` into the interior: no
        allocation, and no element written twice (one fill per
        forward/backward pair, when the caller shares the columns through
        :meth:`columns_for`).
        """
        n, c, h, w = self.x_shape
        if x.shape != self.x_shape:
            raise ValueError(f"plan expects input {self.x_shape}, got {x.shape}")
        p = self.padding
        if p == 0:
            if x.dtype == self.acc:
                return x
            xp = take("xp", self.x_shape, self.acc)
            np.copyto(xp, x)
            return xp
        xp = take("xp", (n, c, self.hp, self.wp), self.acc)
        xp[:, :, :p] = 0
        xp[:, :, p + h:] = 0
        xp[:, :, p:p + h, :p] = 0
        xp[:, :, p:p + h, p + w:] = 0
        xp[:, :, p:p + h, p:p + w] = x
        self.pad_fills += 1
        return xp

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

    def _fill_cols(self, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Copy every receptive field of ``x`` into ``cols``, a
        :attr:`cols_shape` array."""
        n, c, _, _ = self.x_shape
        view = self._receptive_view(self.padded_input(x))
        np.copyto(cols.reshape(n, c, self.kh, self.kw, self.oh, self.ow), view)
        self.col_fills += 1
        return cols

    def im2col(self, x: np.ndarray) -> int:
        """Fill the plan-owned column matrix from ``x`` (for a taped
        forward and its weight gradient); returns the version token."""
        if self._cols is None:
            self._cols = np.empty(self.cols_shape, dtype=self.acc)
        self._fill_cols(x, self._cols)
        self.version += 1
        return self.version

    def columns_for(self, token: int, x: np.ndarray) -> np.ndarray:
        """Column matrix for ``x``, reusing the plan's when still valid.

        ``token`` is the version returned by the :meth:`im2col` call whose
        result the caller wants back.  If the matrix has since been
        refilled (same-shape layer re-run, interleaved inference), the
        columns are transparently recomputed from ``x`` — correctness never
        depends on the cache.
        """
        if self._cols is None or self.version != token:
            self.im2col(x)
        return self._cols

    def _col2im(self, d6: np.ndarray, dxp: np.ndarray) -> None:
        """Scatter-add (N,C,KH,KW,OH,OW) live-tap gradients into the padded
        grid (dead taps land only in its border)."""
        s, d = self.stride, self.dilation
        for t in self.live_taps:
            u, v = divmod(t, self.kw)
            dxp[:, :, u * d: u * d + (self.oh - 1) * s + 1: s,
                v * d: v * d + (self.ow - 1) * s + 1: s] += d6[:, :, u, v]

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
            out += bias.astype(self.acc, copy=False).reshape(1, f, -1)
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
        expansion moves to the (narrower) output side instead — a pad-free
        shift-GEMM on the unpadded input:

        * one GEMM ``(KH*KW*F, C) @ (N, C, h*w)`` applies every tap's
          (F, C) pointwise filter to the whole flat image, into the bodies
          of the rows of the arena's ``tap_gemm`` slab, which carry
          ``p*(w+1)`` zeros on either side (shared by neighbouring rows,
          rewritten on each call, since the slab is shared);
        * tap ``(u, v)`` shifts by ``(dy, dx) = (u*d - p, v*d - p)``:
          output pixel ``j`` reads its row at ``j + dy*w + dx``.  A read
          past either end of the image lands in the guard zeros (the
          vertical padding); a read that wraps into the neighbouring image
          row lands only in the row's first ``dx`` (or last ``-dx``)
          columns, and no in-row read does, so those columns are zeroed
          after each GEMM;
        * the read address is affine in ``u`` and ``v`` (the guards make
          the shift the same for every row), so the live taps — a
          rectangle, since a tap is dead when ``|dy| >= h`` or
          ``|dx| >= w`` — are one ``as_strided`` view, summed by one
          ``np.sum`` over its two tap axes into the result.

        There is no padded input and no per-tap pass, and the GEMM issues
        exactly K*K*F*C*h*w multiply-adds.  A 1x1 kernel has one tap: the
        GEMM result *is* the output.  Summation order differs from the
        im2col GEMM (taps are summed in the accumulation dtype after the
        channel contraction), so results agree with :meth:`forward` to
        rounding, not bit for bit — which is why taped callers never come
        here.  Plans that are not column-free run :meth:`forward`'s im2col
        GEMM bit for bit, with the columns in the arena's ``cols`` slab
        instead of the plan's own: nothing reads them back, and a taped
        forward's columns, still waiting for their wgrad, stay intact.

        ``bias`` is per output channel, ``(F,)``, or a per-pixel map
        ``(F, OH, OW)`` (the bias of a folded pre-activation, see
        :class:`repro.framework.fusion.FusedPreActConv`); either is added
        in the accumulation buffer, before the ReLU and the one rounding
        to the storage dtype.
        """
        if not self.column_free:
            cols = take("cols", self.cols_shape, self.acc)
            return self.forward_from_cols(self._fill_cols(x, cols), w,
                                          bias=bias, relu=relu)
        if x.shape != self.x_shape:
            raise ValueError(f"plan expects input {self.x_shape}, got {x.shape}")
        n, c, h, wi = self.x_shape
        f = self.out_channels
        taps = self.kh * self.kw
        area = h * wi
        xflat = x.astype(self.acc, copy=False).reshape(n, c, area)
        wtaps = (w.astype(self.acc, copy=False)
                 .transpose(2, 3, 0, 1).reshape(taps * f, c))
        if taps == 1:
            out = np.matmul(wtaps, xflat)                 # (N, F, h*w)
        else:
            out = self._sum_taps(wtaps, xflat)
        if bias is not None:
            out += bias.astype(self.acc, copy=False).reshape(1, f, -1)
        if relu:
            np.maximum(out, 0, out=out)
        self.gemms += 1
        self.colfree_forwards += 1
        return out.reshape(n, f, h, wi).astype(self.dtype, copy=False)

    def _sum_taps(self, wtaps: np.ndarray, xflat: np.ndarray) -> np.ndarray:
        """The shift-GEMM for K > 1: the guards zeroed, one GEMM into the
        guarded tap rows, the wrap columns zeroed, then every live tap
        summed by one reduction over a strided view (see
        :meth:`forward_notape`)."""
        n, _, h, wi = self.x_shape
        f, kh, kw = self.out_channels, self.kh, self.kw
        d, p = self.dilation, self.padding
        area = h * wi
        # The farthest any tap reads off the image.  Each row's trailing
        # guard is the next row's leading one.
        guard = p * (wi + 1)
        row = area + guard
        tap = take("tap_gemm", (guard + n * kh * kw * f * row,), self.acc)
        # The slab holds the last call's data: the GEMM fills the bodies,
        # and the guards the taps read are zeroed here.
        tap[:guard] = 0
        rows = tap[guard:].reshape(n, kh * kw * f, row)
        rows[..., area:] = 0
        body = rows[..., :area]
        np.matmul(wtaps, xflat, out=body)
        us = sorted({t // kw for t in self.live_taps})
        vs = sorted({t % kw for t in self.live_taps})
        grid = body.reshape(n, kh, kw, f, h, wi)
        for v in vs:
            dx = v * d - p
            if dx > 0:
                grid[:, us[0]:us[-1] + 1, v, :, :, :dx] = 0
            elif dx < 0:
                grid[:, us[0]:us[-1] + 1, v, :, :, dx:] = 0
        # Tap (u, v) of filter row k reads output pixel j at flat index
        # ((u*kw + v)*f + k)*row + guard + (u*d - p)*wi + (v*d - p) + j:
        # affine in u and v, so the live rectangle is one 5-D view.
        item = tap.itemsize
        first = (us[0] * kw + vs[0]) * f * row + (us[0] * wi + vs[0]) * d
        taps = np.lib.stride_tricks.as_strided(
            tap[first:],
            (n, f, len(us), len(vs), area),
            (kh * kw * f * row * item, row * item,
             (kw * f * row + d * wi) * item, (f * row + d) * item, item),
            writeable=False)
        out = np.empty((n, f, area), dtype=self.acc)
        np.sum(taps, axis=(2, 3), out=out)
        return out

    def backward_weight_from_cols(self, grad_out: np.ndarray,
                                  cols: np.ndarray) -> np.ndarray:
        """wgrad as one batched GEMM; accumulates (and returns) in FP32
        for half inputs, exactly like the legacy kernel.

        Either ``g @ cols^T -> (N, F, CKK)``, or, when the plan is
        :attr:`wgrad_swapped`, ``cols @ g^T -> (N, CKK, F)`` with the result
        transposed back into C order (downstream reductions — LARC norms,
        the FP16 unscale — iterate in memory order).  Both are NT GEMMs
        contracting the same ``P = OH*OW`` products in the same order; with
        a small F as the GEMM's N dimension instead of its M, BLAS packs the
        large operand once instead of running a skinny panel.

        With one output pixel (``P == 1``) the GEMM would contract over a
        single product, so the plan forms the outer product ``g ⊗ cols``
        over the live taps directly instead, in the unswapped layout (see
        :meth:`_pixel_result`).

        A 5-D ``grad_out``, ``(ranks, n, F, OH, OW)``, stacks the batches of
        several ranks: the result is then one sum per rank,
        ``(ranks, *w_shape)``, each over that rank's ``n`` per-sample GEMMs
        only.
        """
        n = self.x_shape[0]
        f = self.out_channels
        g = grad_out.astype(self.acc, copy=False).reshape(n, f, -1)
        pixel = self.oh * self.ow == 1
        if pixel:
            live, taps = self.live_taps, self.kh * self.kw
            if len(live) < taps:
                cols = cols.reshape(n, -1, taps)[:, :, list(live)]
            dw = g * cols.reshape(n, 1, -1)            # (N, F, C*L)
        elif self.wgrad_swapped:
            dw = np.matmul(cols, g.transpose(0, 2, 1))
        else:
            dw = np.matmul(g, cols.transpose(0, 2, 1))
        if grad_out.ndim == 5:
            ranks = grad_out.shape[0]
            # One sample per rank: the per-sample products are the sums.
            if ranks < n:
                dw = dw.reshape(ranks, n // ranks, *dw.shape[1:]).sum(axis=1)
            w_shape = (ranks, *self.w_shape)
        else:
            # A one-sample batch needs no reduction over N.
            dw = dw[0] if n == 1 else dw.sum(axis=0)
            w_shape = self.w_shape
        if pixel:
            return self._pixel_result(dw, w_shape)
        self.gemms += 1
        if self.wgrad_swapped:
            dw = np.ascontiguousarray(dw.swapaxes(-1, -2))
        return dw.reshape(w_shape)

    def _pixel_result(self, dw: np.ndarray, w_shape: tuple) -> np.ndarray:
        """Finish a single-pixel wgrad: signed zeros as BLAS makes them,
        dead taps as zeros, the result in ``w_shape``.

        BLAS forms each K=1 product as ``fma(a, b, +0)``, so a zero product
        is +0 where a bare multiply gives -0 (a ReLU zero times a negative
        gradient); a sum over N is -0 only when every term is, so adding
        +0 after the reduction reproduces the GEMM bit for bit.  Dead taps
        multiply zero padding and are written as that +0 without the
        multiply (a non-finite gradient therefore no longer reaches their
        entries; every live entry still carries it).
        """
        dw += 0.0
        live, taps = self.live_taps, self.kh * self.kw
        self.pixel_wgrads += 1
        if len(live) == taps:
            return dw.reshape(w_shape)
        self.dead_taps_skipped += taps - len(live)
        out = np.zeros((*w_shape[:-2], taps), dtype=dw.dtype)
        out[..., list(live)] = dw.reshape(*w_shape[:-2], len(live))
        return out.reshape(w_shape)

    def backward_weight(self, grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        token = self.im2col(x)
        return self.backward_weight_from_cols(grad_out, self.columns_for(token, x))

    def backward_input(self, grad_out: np.ndarray, w: np.ndarray) -> np.ndarray:
        """dgrad: one GEMM contracting over F, then tap adds.

        At unit stride the K*K expansion stays on the output side
        (shift-GEMM, as in :meth:`forward_notape`, mirrored):

        * ``grad_out`` is copied into the arena's ``gpad`` slab at row
          pitch ``wp``, and the ``wp - ow`` trailing columns are zeroed;
        * one GEMM ``(C*KH*KW, F) @ (N, F, oh*wp)`` into the ``dtaps``
          slab gives every tap's contribution at every flat output
          position;
        * tap ``(u, v)``'s row block lands in the flat padded input grid at
          offset ``u*d*wp + v*d``, so the blocks are added there over the
          span ``(oh-1)*wp + ow``, then the border is stripped.

        Unlike the forward shift-GEMM this keeps the im2col formulation's
        rounding order exactly: each value is the same dot product over F
        and the taps are added to a zeroed grid in the same ``(u, v)``
        order.  The zero columns add exact zeros, which change nothing: a
        sum that starts from the grid's +0 is never -0.  Strided plans, and
        plans with one output pixel (whose column GEMM has N = 1), run that
        column GEMM itself, into the ``dcols`` slab, and the col2im
        scatter.

        Only the :attr:`live_taps` are scattered: a dead tap's block lands
        in the stripped border (apart from the shift-GEMM's zero
        wrap-around columns).  Every GEMM keeps all K*K row blocks, because
        cutting the dead ones changes the GEMM's M, and with it which BLAS
        kernel path, hence which summation order, a row gets.
        """
        n, c, h, wi = self.x_shape
        f = self.out_channels
        taps = self.kh * self.kw
        live = self.live_taps
        wmat = w.astype(self.acc, copy=False).reshape(f, -1)
        if self.stride == 1 and taps == 1 and self.padding == 0:
            # One tap, no border: the GEMM result is the input gradient.
            g = grad_out.astype(self.acc, copy=False).reshape(n, f, -1)
            self.gemms += 1
            return (np.matmul(wmat.T, g).reshape(self.x_shape)
                    .astype(grad_out.dtype, copy=False))
        self.dead_taps_skipped += taps - len(live)
        if self.stride != 1 or self.oh * self.ow == 1:
            g = grad_out.astype(self.acc, copy=False).reshape(n, f, -1)
            dcols = take("dcols", self.cols_shape, self.acc)
            np.matmul(wmat.T, g, out=dcols)
            self.gemms += 1
            dxp = np.zeros((n, c, self.hp, self.wp), dtype=self.acc)
            self._col2im(dcols.reshape(n, c, self.kh, self.kw,
                                       self.oh, self.ow), dxp)
        else:
            oh, ow, wp = self.oh, self.ow, self.wp
            gpad = take("gpad", (n, f, oh, wp), self.acc)
            dtaps = take("dtaps", (n, c * taps, oh * wp), self.acc)
            gpad[..., :ow] = grad_out
            gpad[..., ow:] = 0
            np.matmul(wmat.T, gpad.reshape(n, f, oh * wp), out=dtaps)
            self.gemms += 1
            span = (oh - 1) * wp + ow
            d = self.dilation
            y = dtaps.reshape(n, c, taps, oh * wp)
            flat = np.zeros((n, c, self.hp * wp), dtype=self.acc)
            for t in live:
                u, v = divmod(t, self.kw)
                off = u * d * wp + v * d
                flat[:, :, off:off + span] += y[:, :, t, :span]
            dxp = flat.reshape(n, c, self.hp, wp)
        if self.padding:
            p = self.padding
            dxp = dxp[:, :, p:p + h, p:p + wi]
        return dxp.astype(grad_out.dtype, copy=False)


class PlanCache:
    """Bounded LRU of execution plans, keyed on the problem signature.

    Bounding matters because a plan that ran a taped forward keeps its
    column matrix, ``C * K^2`` times the output extent; an unbounded cache
    on a workload with many distinct tile shapes would be a slow memory
    leak.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._plans: OrderedDict[tuple, ConvPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple, factory) -> ConvPlan:
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
                "misses": self.misses, "evictions": self.evictions,
                "owned_bytes": sum(p.owned_bytes
                                   for p in self._plans.values())}


#: Process-wide cache backing the functional conv API.  Layers hold their
#: own plans (so the columns a forward leaves for its wgrad cannot be
#: overwritten by other same-shape layers); this cache serves direct
#: kernel calls.
_GLOBAL_PLANS = PlanCache(maxsize=32)


def get_conv_plan(x_shape, w_shape, stride=1, padding=0, dilation=1,
                  dtype=FP32) -> ConvPlan:
    """Fetch (or build) the conv plan for a problem signature."""
    key = (tuple(x_shape), tuple(w_shape), int(stride), int(padding),
           int(dilation), np.dtype(dtype).str)
    return _GLOBAL_PLANS.get(
        key, lambda: ConvPlan(x_shape, w_shape, stride, padding, dilation, dtype))


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the process-wide plan cache, and the
    bytes its plans hold (see :func:`.workspace.workspace_stats` for the
    per-call scratch they borrow)."""
    return _GLOBAL_PLANS.stats()


def clear_plan_cache() -> None:
    """Drop all cached plans (tests; frees their column matrices)."""
    _GLOBAL_PLANS.clear()
    _GLOBAL_PLANS.hits = _GLOBAL_PLANS.misses = _GLOBAL_PLANS.evictions = 0
