"""Contiguous model partitioning into pipeline stages.

The paper notes that pipeline model partitions are "often unbalanced"
(Section 5.3), which is exactly why its selective-logging grouping is
cost-driven rather than count-balanced.  Stages here are explicit layer
counts: ``Experiment.resolved_partition_sizes`` splits the layers evenly
unless ``ParallelismSpec.partition_sizes`` names an unbalanced split.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.nn.sequential import Sequential

__all__ = ["partition_by_sizes"]


def partition_by_sizes(model: Sequential, sizes: Sequence[int]) -> list[Sequential]:
    """Split a Sequential into stages with the given layer counts."""
    if sum(sizes) != len(model):
        raise ConfigurationError(
            f"stage sizes {list(sizes)} do not cover {len(model)} layers"
        )
    if any(s < 1 for s in sizes):
        raise ConfigurationError("every stage must contain at least one layer")
    stages, idx = [], 0
    for size in sizes:
        stages.append(model[idx : idx + size])
        idx += size
    return stages

