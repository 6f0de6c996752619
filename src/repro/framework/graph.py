"""Operation-graph capture for FLOP and memory-traffic analysis.

The paper (Section VI) computes FLOP/s by traversing the TensorFlow operation
graph, counting the floating-point work of every node, and combining it with
measured step times.  We reproduce the same methodology: every layer in
:mod:`repro.framework.layers` knows how to *trace* itself, emitting one
:class:`KernelRecord` per GPU kernel it would launch (forward convolution,
dgrad, wgrad, point-wise ops, copies, casts), with exact FLOP counts and
DRAM traffic estimates derived from tensor shapes.

Because networks are written against a probe-or-tensor polymorphic interface,
the *same* ``forward`` code produces either real activations (NumPy) or the
kernel inventory (symbolic), so the analysis can run at the paper's full
1152x768x16 resolution without doing any arithmetic.

Kernel categories follow the paper's Figure 3 grouping::

    conv_fwd        forward convolutions (incl. deconvolutions)
    pointwise_fwd   forward bias/BN/ReLU/dropout/pool/elementwise
    conv_bwd        backward convolutions (dgrad + wgrad)
    pointwise_bwd   backward point-wise kernels
    optimizer       per-parameter update kernels
    copy            copies and transposes (concat and layout changes)
    allreduce       gradient reduction kernels (NCCL)
    cast            FP16<->FP32 type conversions
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .dtypes import Precision, bytes_per_element

__all__ = ["KernelRecord", "GraphTracer", "ShapeProbe", "GraphAnalysis", "CATEGORIES"]

CATEGORIES = (
    "conv_fwd",
    "pointwise_fwd",
    "conv_bwd",
    "pointwise_bwd",
    "optimizer",
    "copy",
    "allreduce",
    "cast",
)


@dataclass(frozen=True)
class KernelRecord:
    """One (class of) GPU kernel launch in a training step.

    ``algorithm`` names the lowering the eager kernels actually execute for
    this record (e.g. ``"im2col_gemm"`` for planned convolutions) — pure
    metadata for breakdown tables.  FLOP and byte counts are a property of
    the *operation*, never of the lowering, so plan caching and algorithm
    changes must leave them bit-for-bit identical.
    """

    name: str
    category: str
    flops: int
    bytes: int
    count: int = 1
    algorithm: str = ""

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown kernel category {self.category!r}")


class ShapeProbe:
    """A symbolic tensor: a shape flowing through layers, emitting kernels.

    Supports the minimal arithmetic networks perform outside layers
    (residual adds), mirroring the Tensor API closely enough that network
    ``forward`` methods need no type checks of their own.
    """

    __slots__ = ("shape", "tracer")

    def __init__(self, shape: tuple[int, ...], tracer: "GraphTracer"):
        self.shape = tuple(int(s) for s in shape)
        self.tracer = tracer

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def __repr__(self) -> str:
        return f"ShapeProbe(shape={self.shape})"


class GraphTracer:
    """Collects :class:`KernelRecord`\\ s while probes flow through a model."""

    def __init__(self, batch: int, precision: str | Precision = "fp32",
                 include_backward: bool = True):
        self.batch = int(batch)
        self.precision = precision if isinstance(precision, Precision) else Precision(precision)
        self.include_backward = bool(include_backward)
        self.records: list[KernelRecord] = []
        #: Bytes of every intermediate activation produced in the forward
        #: pass; training must keep them resident for backward, so their sum
        #: drives the memory-capacity model (why FP16 fits batch 2 on a
        #: 16 GB V100 and FP32 does not, Section VII-A).
        self.activation_bytes: list[int] = []

    @property
    def itemsize(self) -> int:
        return self.precision.itemsize

    def probe(self, channels: int, height: int, width: int) -> ShapeProbe:
        """Create the input probe for an NCHW model."""
        return ShapeProbe((self.batch, channels, height, width), self)

    def emit(self, name: str, category: str, flops: int, nbytes: int,
             algorithm: str = "") -> None:
        self.records.append(
            KernelRecord(name, category, int(flops), int(nbytes),
                         algorithm=algorithm))

    def note_activation(self, shape: Iterable[int]) -> None:
        """Record one forward intermediate that backward will need."""
        self.activation_bytes.append(self.tensor_bytes(shape))

    def tensor_bytes(self, shape: Iterable[int]) -> int:
        n = 1
        for s in shape:
            n *= int(s)
        return n * self.itemsize

    def finish(self) -> "GraphAnalysis":
        return GraphAnalysis(self.records, self.batch, self.precision,
                             total_activation_bytes=sum(self.activation_bytes))


@dataclass(frozen=True)
class GraphAnalysis:
    """Aggregated result of a trace: totals and per-category sums.

    Immutable (a tuple of frozen records), so one traced graph can be
    memoised and handed to every cost model.
    """

    records: tuple[KernelRecord, ...]
    batch: int
    precision: Precision
    total_activation_bytes: int = 0
    _by_category: dict[str, tuple[int, int, int]] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        agg: dict[str, list[int]] = {}
        for r in self.records:
            slot = agg.setdefault(r.category, [0, 0, 0])
            slot[0] += r.flops
            slot[1] += r.bytes
            slot[2] += r.count
        object.__setattr__(self, "_by_category",
                           {k: tuple(v) for k, v in agg.items()})

    # -- totals --------------------------------------------------------------

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.records)

    @property
    def kernel_count(self) -> int:
        return sum(r.count for r in self.records)

    def flops_per_sample(self) -> float:
        """TF/sample-style normalization used throughout the paper."""
        return self.total_flops / self.batch

    # -- per-category ----------------------------------------------------------

    def category_flops(self, category: str) -> int:
        return self._by_category.get(category, (0, 0, 0))[0]

    def category_bytes(self, category: str) -> int:
        return self._by_category.get(category, (0, 0, 0))[1]

    def category_kernels(self, category: str) -> int:
        return self._by_category.get(category, (0, 0, 0))[2]

    def categories(self) -> list[str]:
        return [c for c in CATEGORIES if c in self._by_category]

    def summary(self) -> dict[str, dict[str, int]]:
        return {
            c: {
                "flops": self.category_flops(c),
                "bytes": self.category_bytes(c),
                "kernels": self.category_kernels(c),
            }
            for c in self.categories()
        }
