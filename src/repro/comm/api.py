"""The unified all-reduce entrypoint: one facade over a strategy registry.

    ``allreduce(world, buffers, *, strategy="ring", average=False, ...)``

dispatches through a :class:`CommStrategy` registry.  A strategy bundles
the wire implementation with its alpha-beta cost model, so higher layers
(:mod:`repro.comm.engine`, :mod:`repro.perf.scaling`) can *predict* a
strategy's cost from the same object they *execute* — the property the
adaptive gradient-exchange engine's autotuner is built on.

Third parties extend the surface with :func:`register_strategy`; the four
paper algorithms (implemented in :mod:`.reducer`) are pre-registered.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costmodel import Link, ring_allreduce_time, tree_allreduce_time
from .reducer import (
    _allreduce_hierarchical,
    _allreduce_naive,
    _allreduce_ring,
    _allreduce_tree,
    _check_buffers,
    _reduce_span,
)
from .simmpi import World

__all__ = [
    "CommStrategy",
    "allreduce",
    "available_strategies",
    "get_strategy",
    "register_strategy",
]


@dataclass(frozen=True)
class CommStrategy:
    """One named all-reduce: wire implementation + analytic cost model.

    ``run_fn(world, buffers, average, tag, **params)`` must return one
    result buffer per rank (the exact sum, or mean when ``average``).  It
    may reduce in place: :meth:`run` hands it the caller's buffers
    (converted only when not already FP32/FP64 in C order), and the
    built-in strategies overwrite them with the result and return them.
    ``model_fn(world_size, volume, nvlink, interconnect, **params)``
    predicts the collective's wall time on an alpha-beta fabric; it is
    consulted by the engine's selection pass and may be ``None`` for
    strategies that opt out of model-driven selection.
    """

    name: str
    run_fn: Callable[..., list[np.ndarray]]
    default_tag: int
    model_fn: Callable[..., float] | None = None

    def run(self, world: World, buffers: list[np.ndarray], *,
            average: bool = False, tag: int | None = None,
            **params) -> list[np.ndarray]:
        buffers = _check_buffers(world, buffers)
        resolved_tag = self.default_tag if tag is None else tag
        if getattr(world, "collective_checks", False):
            # Every alive rank enters the same allreduce here; announcing
            # per rank lets the debug assertion catch a caller that runs
            # a divergent schedule (e.g. per-rank strategy choices).
            for r in world.alive_ranks():
                world.announce_collective(
                    r, f"allreduce.{self.name}", resolved_tag,
                    buffers[0].shape, buffers[0].dtype)
        with _reduce_span(self.name, world, buffers):
            return self.run_fn(world, buffers, average, resolved_tag,
                               **params)

    def modeled_time(self, world_size: int, volume: float, *,
                     nvlink: Link, interconnect: Link, **params) -> float:
        if self.model_fn is None:
            raise ValueError(f"strategy {self.name!r} has no cost model")
        return self.model_fn(world_size, volume, nvlink=nvlink,
                             interconnect=interconnect, **params)


_REGISTRY: dict[str, CommStrategy] = {}


def register_strategy(strategy: CommStrategy, *, overwrite: bool = False) -> None:
    """Add ``strategy`` to the registry (``overwrite`` to replace)."""
    if not isinstance(strategy, CommStrategy):
        raise TypeError(f"expected CommStrategy, got {type(strategy).__name__}")
    if strategy.name in _REGISTRY and not overwrite:
        raise ValueError(f"strategy {strategy.name!r} already registered; "
                         "pass overwrite=True to replace it")
    _REGISTRY[strategy.name] = strategy


def get_strategy(name: str) -> CommStrategy:
    """Look up a registered strategy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown comm strategy {name!r}; registered: "
            f"{', '.join(available_strategies())}") from None


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(_REGISTRY)


def allreduce(world: World, buffers: list[np.ndarray], *,
              strategy: str | CommStrategy = "ring", average: bool = False,
              tag: int | None = None, **params) -> list[np.ndarray]:
    """All-reduce ``buffers`` (one per rank) under the named strategy.

    The single public entrypoint for dense collectives: every per-rank
    buffer is summed (or averaged) and the identical result is returned
    for every rank.  The inputs are never mutated: the strategy reduces in
    copies of them.  ``strategy`` is a registry name or a
    :class:`CommStrategy` instance; strategy-specific knobs (e.g.
    ``gpus_per_node`` for ``"hierarchical"``) pass through ``**params``.
    """
    s = strategy if isinstance(strategy, CommStrategy) else get_strategy(strategy)
    return s.run(world, [np.array(b, order="C") for b in buffers],
                 average=average, tag=tag, **params)


# -- built-in strategies -----------------------------------------------------

def _naive_time(n: int, volume: float, *, nvlink: Link, interconnect: Link) -> float:
    # Gather-to-root + broadcast, serialized through rank 0.
    if n <= 1:
        return 0.0
    return 2 * (n - 1) * interconnect.transfer_time(volume)


def _ring_time(n: int, volume: float, *, nvlink: Link, interconnect: Link) -> float:
    return ring_allreduce_time(n, volume, interconnect)


def _tree_time(n: int, volume: float, *, nvlink: Link, interconnect: Link) -> float:
    return tree_allreduce_time(n, volume, interconnect)


def _hierarchical_time(n: int, volume: float, *, nvlink: Link,
                       interconnect: Link, gpus_per_node: int = 6,
                       mpi_ranks_per_node: int = 4) -> float:
    from .costmodel import hierarchical_allreduce_time

    nodes = max(n // gpus_per_node, 1)
    return hierarchical_allreduce_time(
        nodes, volume, nvlink, interconnect, gpus_per_node=gpus_per_node,
        parallel_devices=mpi_ranks_per_node)


register_strategy(CommStrategy("naive", _allreduce_naive, 10, _naive_time))
register_strategy(CommStrategy("ring", _allreduce_ring, 20, _ring_time))
register_strategy(CommStrategy("tree", _allreduce_tree, 30, _tree_time))
register_strategy(CommStrategy("hierarchical", _allreduce_hierarchical, 40,
                               _hierarchical_time))
