#!/usr/bin/env python
"""Distributed data-parallel training over the simulated MPI substrate.

Demonstrates the paper's training configuration end to end:

* one parameter set for every rank (what Horovod's initial broadcast and
  identical updates give each GPU), with per-rank batch-norm statistics;
* per-rank shards of the staged dataset (Section V-A1's layout);
* fused hierarchical all-reduce each step (NCCL-in-node + MPI across,
  Section V-A3), bucketed in the tape's static backward order so no
  per-step negotiation is needed;
* the invariant that makes it all correct: every rank receives
  bit-identical averaged gradients.

Run:  python examples/distributed_training.py
"""
import numpy as np

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.comm import EngineConfig
from repro.core import DistributedTrainer, TrainConfig
from repro.core.networks import Tiramisu, TiramisuConfig


def model_factory():
    return Tiramisu(
        TiramisuConfig(in_channels=4, base_filters=12, growth=6,
                       down_layers=(2, 2), bottleneck_layers=2, kernel=3,
                       dropout=0.0),
        rng=np.random.default_rng(7),
    )


def main():
    world_size = 6  # one simulated Summit node: 6 GPUs
    grid = Grid(16, 24)
    dataset = ClimateDataset.synthesize(grid, num_samples=24, seed=2, channels=4)
    freqs = class_frequencies(dataset.labels)

    config = TrainConfig(lr=0.08, optimizer="larc", weighting="inverse_sqrt")
    engine = EngineConfig(strategies=("hierarchical",), autotune=False,
                          bucket_bytes=2 << 20, gpus_per_node=6)
    trainer = DistributedTrainer(model_factory, world_size, config, freqs,
                                 engine=engine)
    print(f"Training on {world_size} simulated ranks "
          f"({trainer.model.num_parameters():,} params, one copy for all ranks)")

    rng = np.random.default_rng(3)
    for epoch in range(4):
        results = trainer.train_epoch(dataset, batch_size=1, rng=rng)
        losses = [r.mean_loss for r in results]
        last = results[-1].exchange
        print(f"  epoch {epoch}: loss {np.mean(losses):.4f} | "
              f"allreduce: {last.fusion.num_collectives} fused collectives, "
              f"{last.data_bytes/1e6:.1f} MB moved, "
              f"decisions {last.decisions}, "
              f"overlap {last.overlap_fraction:.0%}")
        print(f"    averaged-gradient divergence across ranks: "
              f"{trainer.max_replica_divergence():.2e} (must stay 0)")

    assert trainer.max_replica_divergence() == 0.0
    print("Synchronous-training invariant held: replicas bit-identical.")


if __name__ == "__main__":
    main()
