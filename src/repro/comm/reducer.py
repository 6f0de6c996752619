"""All-reduce algorithms over the functional MPI substrate.

Implements the three reduction strategies the paper discusses
(Section V-A3), plus the gather-to-root baseline:

* ring — NCCL's systolic ring (reduce-scatter + all-gather),
  bandwidth-optimal: each rank moves ``2 (n-1)/n * V`` bytes;
* tree — binomial-tree reduce + broadcast, the classic MPI_Allreduce
  pattern, latency-optimal at ``2 log2 n`` rounds;
* hierarchical — the paper's hybrid: NCCL ring *within* each node, then 4
  of the 6 local ranks each run an inter-node all-reduce on a quarter of
  the payload (one per virtual InfiniBand device), then an intra-node
  broadcast.

Every algorithm is numerically exact (sum of the per-rank buffers, same
result on every rank) and exchanges real messages through :class:`World`,
so tests can verify both the math and the traffic pattern.

Every algorithm reduces *in place*: it overwrites the buffers it is handed
with the result and returns them, and hands each received message back to
the wire (:meth:`World.recycle`) once it has consumed it, so a steady-state
exchange allocates nothing.  Callers that must keep their inputs go through
:func:`repro.comm.allreduce`, which hands the strategy copies.

The implementations are private: :mod:`repro.comm.api` registers each as a
:class:`repro.comm.CommStrategy` and :func:`repro.comm.allreduce` is the
only entrypoint.
"""
from __future__ import annotations

import numpy as np

from ..telemetry import get_active
from .simmpi import World


def _reduce_span(algorithm: str, world: World, buffers: list[np.ndarray]):
    """Span + byte accounting around one collective (no-op when disabled)."""
    tel = get_active()
    if tel.enabled:
        payload = int(np.asarray(buffers[0]).nbytes)
        tel.metrics.counter("comm.allreduce_calls", algorithm=algorithm).inc()
        tel.metrics.counter("comm.reduced_bytes").inc(payload * world.size)
        return tel.tracer.span(f"allreduce.{algorithm}", category="comm",
                               ranks=world.size, payload_bytes=payload)
    return tel.tracer.span("")  # NULL_SPAN


def _reduce_dtype(dtype) -> type:
    """The dtype a buffer of ``dtype`` is reduced in: FP64 stays, all else FP32."""
    return np.float64 if dtype == np.float64 else np.float32


def _check_buffers(world: World, buffers: list[np.ndarray]) -> list[np.ndarray]:
    """Validate one buffer per rank; convert only those not already in their
    reduction dtype and C order (the rest are returned as they are)."""
    if len(buffers) != world.size:
        raise ValueError(f"need {world.size} buffers, got {len(buffers)}")
    shape = buffers[0].shape
    out = []
    for i, b in enumerate(buffers):
        b = np.asarray(b)
        if b.shape != shape:
            raise ValueError(f"buffer {i} shape {b.shape} != {shape}")
        out.append(b.astype(_reduce_dtype(b.dtype), order="C", copy=False))
    return out


def _average(buffers: list[np.ndarray], average: bool, n: int) -> list[np.ndarray]:
    if average:
        for b in buffers:
            b /= n
    return buffers


def _allreduce_naive(world: World, buffers: list[np.ndarray], average: bool,
                     tag: int) -> list[np.ndarray]:
    """Gather-to-root + broadcast; the O(n*V) baseline."""
    gathered = world.gather(buffers, root=0, tag=tag)
    total = buffers[0]
    for msg in gathered[1:]:
        total += msg
        world.recycle(msg)
    if average:
        total /= world.size
    results = world.broadcast(total, root=0, tag=tag + 1)
    for b, msg in zip(buffers[1:], results[1:]):
        b[...] = msg
        world.recycle(msg)
    return buffers


def _allreduce_ring(world: World, buffers: list[np.ndarray], average: bool,
                    tag: int) -> list[np.ndarray]:
    """Reduce-scatter + all-gather ring (the NCCL algorithm)."""
    n = world.size
    if n == 1:
        return buffers
    flat = [b.reshape(-1) for b in buffers]
    length = flat[0].size
    # Chunk boundaries (n chunks, possibly ragged).
    bounds = np.linspace(0, length, n + 1).astype(int)

    def chunk(r: int, c: int) -> np.ndarray:
        return flat[r][bounds[c] : bounds[c + 1]]

    # Reduce-scatter: step s, rank r sends chunk (r - s) to rank r+1.
    for s in range(n - 1):
        for r in range(n):
            c = (r - s) % n
            world.send(chunk(r, c), r, (r + 1) % n, tag)
        for r in range(n):
            c = (r - 1 - s) % n
            incoming = world.recv(r, (r - 1) % n, tag)
            chunk(r, c)[:] += incoming
            world.recycle(incoming)
    # All-gather: step s, rank r sends its completed chunk (r+1-s).
    for s in range(n - 1):
        for r in range(n):
            c = (r + 1 - s) % n
            world.send(chunk(r, c), r, (r + 1) % n, tag + 1)
        for r in range(n):
            c = (r - s) % n
            incoming = world.recv(r, (r - 1) % n, tag + 1)
            chunk(r, c)[:] = incoming
            world.recycle(incoming)
    return _average(buffers, average, n)


def _allreduce_tree(world: World, buffers: list[np.ndarray], average: bool,
                    tag: int) -> list[np.ndarray]:
    """Binomial-tree reduce to rank 0, then binomial broadcast."""
    n = world.size
    acc = buffers
    # Reduce: at round k, ranks with bit k set send to (rank - 2^k).
    k = 1
    while k < n:
        for r in range(n):
            if r % (2 * k) == k:
                world.send(acc[r], r, r - k, tag)
        for r in range(n):
            if r % (2 * k) == 0 and r + k < n:
                incoming = world.recv(r, r + k, tag)
                acc[r] += incoming
                world.recycle(incoming)
        k *= 2
    if average:
        acc[0] /= n
    # Broadcast: reverse the tree.
    k = 1
    while k * 2 < n:
        k *= 2
    while k >= 1:
        for r in range(n):
            if r % (2 * k) == 0 and r + k < n:
                world.send(acc[r], r, r + k, tag + 1)
        for r in range(n):
            if r % (2 * k) == k:
                incoming = world.recv(r, r - k, tag + 1)
                acc[r][...] = incoming
                world.recycle(incoming)
        k //= 2
    return acc


def _allreduce_hierarchical(
    world: World,
    buffers: list[np.ndarray],
    average: bool,
    tag: int,
    gpus_per_node: int = 6,
    mpi_ranks_per_node: int = 4,
) -> list[np.ndarray]:
    """The paper's hybrid NCCL + MPI all-reduce (Section V-A3):

    1. NCCL ring reduce-scatter + gather *within* each node so all local
       ranks hold the node-local sum (modelled as an in-node ring over the
       simulated wire);
    2. ``mpi_ranks_per_node`` of the local ranks each all-reduce a disjoint
       1/``mpi_ranks_per_node`` slice across nodes (one slice per virtual IB
       device) using a binomial tree;
    3. NCCL broadcast inside the node so all ``gpus_per_node`` ranks end
       with the full result.

    World size must be a multiple of ``gpus_per_node``.
    """
    n = world.size
    if n % gpus_per_node:
        raise ValueError(f"world size {n} not divisible by gpus_per_node {gpus_per_node}")
    if not 1 <= mpi_ranks_per_node <= gpus_per_node:
        raise ValueError("mpi_ranks_per_node must be in [1, gpus_per_node]")
    nodes = n // gpus_per_node
    flat = [b.reshape(-1) for b in buffers]
    length = flat[0].size

    # Stage 1: intra-node ring all-reduce (local sums everywhere).
    for node in range(nodes):
        ranks = list(range(node * gpus_per_node, (node + 1) * gpus_per_node))
        g = len(ranks)
        bounds = np.linspace(0, length, g + 1).astype(int)

        def chunk(rank: int, c: int) -> np.ndarray:
            return flat[rank][bounds[c] : bounds[c + 1]]

        for s in range(g - 1):
            for li, r in enumerate(ranks):
                world.send(chunk(r, (li - s) % g), r, ranks[(li + 1) % g], tag)
            for li, r in enumerate(ranks):
                incoming = world.recv(r, ranks[(li - 1) % g], tag)
                chunk(r, (li - 1 - s) % g)[:] += incoming
                world.recycle(incoming)
        for s in range(g - 1):
            for li, r in enumerate(ranks):
                world.send(chunk(r, (li + 1 - s) % g), r, ranks[(li + 1) % g], tag + 1)
            for li, r in enumerate(ranks):
                incoming = world.recv(r, ranks[(li - 1) % g], tag + 1)
                chunk(r, (li - s) % g)[:] = incoming
                world.recycle(incoming)

    # Stage 2: inter-node all-reduce on quarter slices, binomial tree per slice.
    slice_bounds = np.linspace(0, length, mpi_ranks_per_node + 1).astype(int)
    if nodes > 1:
        for q in range(mpi_ranks_per_node):
            lo, hi = slice_bounds[q], slice_bounds[q + 1]
            # The q-th local rank on every node owns slice q.
            owners = [node * gpus_per_node + q for node in range(nodes)]
            acc = {r: flat[r][lo:hi] for r in owners}
            k = 1
            while k < nodes:
                for idx, r in enumerate(owners):
                    if idx % (2 * k) == k:
                        world.send(acc[r], r, owners[idx - k], tag + 2)
                for idx, r in enumerate(owners):
                    if idx % (2 * k) == 0 and idx + k < nodes:
                        incoming = world.recv(r, owners[idx + k], tag + 2)
                        acc[r] += incoming
                        world.recycle(incoming)
                k *= 2
            k = 1
            while k * 2 < nodes:
                k *= 2
            while k >= 1:
                for idx, r in enumerate(owners):
                    if idx % (2 * k) == 0 and idx + k < nodes:
                        world.send(acc[r], r, owners[idx + k], tag + 3)
                for idx, r in enumerate(owners):
                    if idx % (2 * k) == k:
                        incoming = world.recv(r, owners[idx - k], tag + 3)
                        acc[r][...] = incoming
                        world.recycle(incoming)
                k //= 2

    # Stage 3: intra-node broadcast of each slice from its owner.
    for node in range(nodes):
        base = node * gpus_per_node
        ranks = list(range(base, base + gpus_per_node))
        for q in range(mpi_ranks_per_node):
            lo, hi = slice_bounds[q], slice_bounds[q + 1]
            owner = base + q
            for r in ranks:
                if r != owner:
                    world.send(flat[owner][lo:hi], owner, r, tag + 4)
            for r in ranks:
                if r != owner:
                    incoming = world.recv(r, owner, tag + 4)
                    flat[r][lo:hi] = incoming
                    world.recycle(incoming)

    return _average(buffers, average, n)
