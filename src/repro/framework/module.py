"""Module base class: parameter registration, modes, state, analysis."""
from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .graph import GraphAnalysis, GraphTracer, ShapeProbe
from .parameter import Parameter
from .tensor import Tensor

__all__ = ["Module", "Sequential", "Identity"]


class Module:
    """Base class for layers and networks.

    Subclasses assign :class:`Parameter` and ``Module`` attributes in
    ``__init__``; registration happens automatically through
    ``__setattr__``.  ``forward`` must handle both :class:`Tensor` (eager)
    and :class:`ShapeProbe` (symbolic trace) inputs — primitive layers
    branch on the type, containers and networks are oblivious.
    """

    def __init__(self):
        object.__setattr__(self, "_params", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------------

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- forward ---------------------------------------------------------------

    def forward(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal ---------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for mname, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mname}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes -------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        if getattr(self, "_frozen", False):
            mode = False  # frozen graphs are inference-only, permanently
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def freeze_for_inference(self) -> "Module":
        """Return a fused, inference-frozen deep copy (see
        :func:`repro.framework.fusion.freeze`).  ``self`` is untouched."""
        from .fusion import freeze

        return freeze(self)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- simulated ranks ---------------------------------------------------------

    def restack(self, rows) -> None:
        """Re-seat the rank-local state for a stack of ``len(rows)`` ranks
        (see :class:`~repro.framework.tensor.rank_stack`): new rank ``i``
        continues old rank ``rows[i]``'s dropout generators, and every rank
        starts from old rank ``rows[0]``'s batch-norm statistics (Horovod's
        broadcast).  ``[0] * n`` replicates one rank, ``range(n)`` only
        broadcasts, a list of survivors drops the other ranks."""
        rows = list(rows)
        memo: dict = {}
        for m in {id(m): m for m in self.modules()}.values():
            m._restack(rows, memo)

    def _restack(self, rows: list[int], memo: dict) -> None:
        """This module's share of :meth:`restack` (stateless: nothing)."""

    # -- state --------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name->array mapping of parameter values (master precision)."""
        state = {}
        for name, p in self.named_parameters():
            p.require_weights()
            state[name] = p.master_value().copy()
        for m, prefix in self._named_buffers():
            state.update({f"{prefix}{k}": v.copy() for k, v in m.items()})
        return state

    def _named_buffers(self):
        """Subclasses with non-parameter state (BN running stats) override
        ``buffers()`` returning a dict; collected here with dotted prefixes."""
        out = []

        def walk(mod: "Module", prefix: str):
            bufs = mod.buffers()
            if bufs:
                out.append((bufs, prefix))
            for name, child in mod._modules.items():
                walk(child, f"{prefix}{name}.")

        walk(self, "")
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-parameter persistent state; overridden by e.g. BatchNorm."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name in params:
                p = params[name]
                p.data = np.asarray(value, dtype=p.data.dtype).copy()
                if p.master is not None:
                    p.master = np.asarray(value, dtype=np.float32).copy()
            else:
                self._load_buffer(name, value)

    def _load_buffer(self, name: str, value: np.ndarray) -> None:
        parts = name.split(".")
        mod: Module = self
        for part in parts[:-1]:
            if part in mod._modules:
                mod = mod._modules[part]
            else:
                raise KeyError(f"no module path for state entry {name!r}")
        bufs = mod.buffers()
        if parts[-1] not in bufs:
            raise KeyError(f"no buffer {name!r}")
        bufs[parts[-1]][...] = value

    # -- analysis ----------------------------------------------------------------------

    def analyze(
        self,
        input_shape: tuple[int, int, int],
        batch: int = 1,
        precision: str = "fp32",
        include_backward: bool = True,
    ) -> GraphAnalysis:
        """Symbolically trace a training step, returning kernel records.

        ``input_shape`` is (C, H, W).  No arithmetic is performed, so this
        works at the paper's full 1152x768 resolution.  The trace reads
        parameter *shapes* only, so a module that exists just to be analyzed
        should be constructed under :func:`repro.framework.init.shape_only`
        (what :func:`repro.core.flops.paper_network` does); otherwise
        construction draws every weight the trace then ignores.
        """
        tracer = GraphTracer(batch, precision, include_backward)
        probe = tracer.probe(*input_shape)
        out = self.forward(probe)
        if not isinstance(out, ShapeProbe):
            raise TypeError("forward() must propagate ShapeProbe inputs")
        return tracer.finish()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self.add_module(str(i), layer)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, layer: Module) -> "Sequential":
        self.add_module(str(len(self.layers)), layer)
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class Identity(Module):
    """No-op module (placeholder for optional branches)."""

    def forward(self, x):
        return x
