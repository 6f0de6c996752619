"""The copying gradient path, kept as the oracle for the in-place one.

These are the all-reduce strategies, the engine's dense exchange and the
SGD/LARS/LARC updates as they were before they reduced and updated in
place: every stage allocates fresh arrays (buffer copies, per-message
copies, ``astype`` unpacks, temporaries in the update).  The in-place code
must reproduce them bit for bit; ``tests/comm/test_inplace_contract.py``
and ``tests/core/test_inplace_training.py`` compare against them.
"""
from __future__ import annotations

import numpy as np

from repro.comm import (EngineReport, GradientExchangeEngine, fuse_order,
                        get_strategy)
from repro.core.optim import GradientLag
from repro.core.optim.base import Optimizer


def check_buffers(world, buffers):
    return [np.asarray(b).astype(
        np.float64 if np.asarray(b).dtype == np.float64 else np.float32)
        for b in buffers]


def allreduce_naive(world, buffers, average, tag):
    gathered = world.gather(buffers, root=0, tag=tag)
    total = gathered[0].copy()
    for b in gathered[1:]:
        total += b
    if average:
        total /= world.size
    results = world.broadcast(total, root=0, tag=tag + 1)
    return [np.array(r, copy=True) for r in results]


def allreduce_ring(world, buffers, average, tag):
    n = world.size
    if n == 1:
        out = buffers[0].copy()
        return [out / 1 if not average else out]
    flat = [b.ravel().copy() for b in buffers]
    bounds = np.linspace(0, flat[0].size, n + 1).astype(int)

    def chunk(r, c):
        return flat[r][bounds[c]:bounds[c + 1]]

    for s in range(n - 1):
        for r in range(n):
            world.send(chunk(r, (r - s) % n), r, (r + 1) % n, tag)
        for r in range(n):
            chunk(r, (r - 1 - s) % n)[:] += world.recv(r, (r - 1) % n, tag)
    for s in range(n - 1):
        for r in range(n):
            world.send(chunk(r, (r + 1 - s) % n), r, (r + 1) % n, tag + 1)
        for r in range(n):
            chunk(r, (r - s) % n)[:] = world.recv(r, (r - 1) % n, tag + 1)
    results = []
    for r in range(n):
        out = flat[r].reshape(buffers[0].shape)
        if average:
            out = out / n
        results.append(out)
    return results


def allreduce_tree(world, buffers, average, tag):
    n = world.size
    acc = [b.copy() for b in buffers]
    k = 1
    while k < n:
        for r in range(n):
            if r % (2 * k) == k:
                world.send(acc[r], r, r - k, tag)
        for r in range(n):
            if r % (2 * k) == 0 and r + k < n:
                acc[r] += world.recv(r, r + k, tag)
        k *= 2
    if average:
        acc[0] /= n
    k = 1
    while k * 2 < n:
        k *= 2
    while k >= 1:
        for r in range(n):
            if r % (2 * k) == 0 and r + k < n:
                world.send(acc[r], r, r + k, tag + 1)
        for r in range(n):
            if r % (2 * k) == k:
                acc[r] = world.recv(r, r - k, tag + 1)
        k //= 2
    return acc


def allreduce_hierarchical(world, buffers, average, tag, gpus_per_node=6,
                           mpi_ranks_per_node=4):
    n = world.size
    nodes = n // gpus_per_node
    flat = [b.ravel().copy() for b in buffers]
    length = flat[0].size
    for node in range(nodes):
        ranks = list(range(node * gpus_per_node, (node + 1) * gpus_per_node))
        g = len(ranks)
        bounds = np.linspace(0, length, g + 1).astype(int)

        def chunk(rank, c):
            return flat[rank][bounds[c]:bounds[c + 1]]

        for s in range(g - 1):
            for li, r in enumerate(ranks):
                world.send(chunk(r, (li - s) % g), r, ranks[(li + 1) % g], tag)
            for li, r in enumerate(ranks):
                chunk(r, (li - 1 - s) % g)[:] += world.recv(
                    r, ranks[(li - 1) % g], tag)
        for s in range(g - 1):
            for li, r in enumerate(ranks):
                world.send(chunk(r, (li + 1 - s) % g), r, ranks[(li + 1) % g],
                           tag + 1)
            for li, r in enumerate(ranks):
                chunk(r, (li - s) % g)[:] = world.recv(
                    r, ranks[(li - 1) % g], tag + 1)
    slice_bounds = np.linspace(0, length, mpi_ranks_per_node + 1).astype(int)
    if nodes > 1:
        for q in range(mpi_ranks_per_node):
            lo, hi = slice_bounds[q], slice_bounds[q + 1]
            owners = [node * gpus_per_node + q for node in range(nodes)]
            acc = {r: flat[r][lo:hi].copy() for r in owners}
            k = 1
            while k < nodes:
                for idx, r in enumerate(owners):
                    if idx % (2 * k) == k:
                        world.send(acc[r], r, owners[idx - k], tag + 2)
                for idx, r in enumerate(owners):
                    if idx % (2 * k) == 0 and idx + k < nodes:
                        acc[r] += world.recv(r, owners[idx + k], tag + 2)
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
                        acc[r] = world.recv(r, owners[idx - k], tag + 3)
                k //= 2
            for r in owners:
                flat[r][lo:hi] = acc[r]
    for node in range(nodes):
        base = node * gpus_per_node
        for q in range(mpi_ranks_per_node):
            lo, hi = slice_bounds[q], slice_bounds[q + 1]
            owner = base + q
            for r in range(base, base + gpus_per_node):
                if r != owner:
                    world.send(flat[owner][lo:hi], owner, r, tag + 4)
            for r in range(base, base + gpus_per_node):
                if r != owner:
                    flat[r][lo:hi] = world.recv(r, owner, tag + 4)
    results = []
    for r in range(n):
        out = flat[r].reshape(buffers[0].shape)
        if average:
            out = out / n
        results.append(out)
    return results


COPYING = {"naive": allreduce_naive, "ring": allreduce_ring,
           "tree": allreduce_tree, "hierarchical": allreduce_hierarchical}


def copying_allreduce(world, buffers, name, average=False, **params):
    """One copying collective, on the strategy's default tag."""
    return COPYING[name](world, check_buffers(world, buffers), average,
                         get_strategy(name).default_tag, **params)


class CopyingEngine(GradientExchangeEngine):
    """The dense engine exchange with fresh buckets and ``astype`` unpacks.

    Strategy selection and autotune bookkeeping are the inherited ones, so
    both engines pick the same algorithm for every bucket.
    """

    def exchange(self, world, per_rank_grads):
        n = world.size
        names = list(per_rank_grads[0].keys())
        sizes = {k: int(per_rank_grads[0][k].nbytes) for k in names}
        plan = fuse_order(list(reversed(names)), sizes,
                          self.config.bucket_bytes)
        averaged = [dict() for _ in range(n)]
        for group, group_bytes in zip(plan.groups, plan.group_bytes):
            algo = self.select(n, group_bytes)
            msgs0, bytes0 = world.stats.total_messages, world.stats.total_bytes
            flat = [np.concatenate([g[k].ravel() for k in group])
                    for g in per_rank_grads]
            results = copying_allreduce(world, flat, algo, average=True,
                                        **self._strategy_params(algo))
            self._record_measurement(
                n, group_bytes, algo, world.stats.total_messages - msgs0,
                world.stats.total_bytes - bytes0)
            for r in range(n):
                offset = 0
                for k in group:
                    like = per_rank_grads[r][k]
                    averaged[r][k] = (results[r][offset:offset + like.size]
                                      .reshape(like.shape).astype(like.dtype))
                    offset += like.size
        report = EngineReport(plan, world.stats.total_messages,
                              world.stats.total_bytes)
        return [{k: g[k] for k in names} for g in averaged], report


class CopyingSGD(Optimizer):
    """Heavy-ball SGD, every step computed into fresh temporaries."""

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = {}

    def _effective_grad(self, param, grad):
        if self.weight_decay:
            grad = grad + self.weight_decay * param.master_value().astype(
                np.float32)
        return grad

    def _delta(self, param, grad):
        grad = self._effective_grad(param, grad)
        if self.momentum:
            v = self._velocity.get(id(param))
            v = grad if v is None else self.momentum * v + grad
            self._velocity[id(param)] = v
            grad = v
        return -self.lr * grad


class CopyingLayerAdaptive(CopyingSGD):
    """LARS (``clip=False``) or LARC (``clip=True``) with fresh temporaries."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0, *, clip,
                 trust_coefficient=0.02, eps=1e-8):
        super().__init__(params, lr, momentum, weight_decay)
        self.clip = clip
        self.trust = trust_coefficient
        self.eps = eps

    def _delta(self, param, grad):
        w_norm = float(np.linalg.norm(param.master_value()))
        g_norm = float(np.linalg.norm(grad))
        if w_norm == 0.0 or g_norm == 0.0:
            rate = self.lr
        else:
            local = self.trust * w_norm / (g_norm + self.weight_decay * w_norm
                                           + self.eps)
            rate = min(local, self.lr) if self.clip else local * self.lr
        grad = self._effective_grad(param, grad)
        scaled = grad * (rate / self.lr)
        if self.momentum:
            v = self._velocity.get(id(param))
            v = scaled if v is None else self.momentum * v + scaled
            self._velocity[id(param)] = v
            scaled = v
        return -self.lr * scaled


def copying_optimizer(model, config):
    """``build_optimizer`` for sgd/lars/larc with the copying updates."""
    params = model.parameters()
    kw = dict(momentum=config.momentum, weight_decay=config.weight_decay)
    if config.optimizer == "sgd":
        opt = CopyingSGD(params, config.lr, **kw)
    else:
        opt = CopyingLayerAdaptive(params, config.lr,
                                   clip=config.optimizer == "larc", **kw)
    return GradientLag(opt, config.gradient_lag) if config.gradient_lag else opt
