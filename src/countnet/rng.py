"""Named random streams shared by every stochastic component.

Each stream is a counter-based Philox generator keyed by
``(seed, purpose, node)``. Distinct keys give statistically independent
streams, so per-node work can run in any order, on any number of workers,
and still produce bit-identical results. A node's draws depend only on the
run seed, the purpose tag, its own index, and its own data.
"""

from __future__ import annotations

import operator
from collections import Counter

import numpy as np

# Purpose tags. Never renumber: stream identity is part of the
# reproducibility contract for saved seeds.
SIM_COUNTS = 1
ENSEMBLE_INIT = 2
ANALYSIS = 3
ABM_AGENTS = 4


def node_stream(seed: int, purpose: int, node: int) -> np.random.Generator:
    """Generator for one (seed, purpose, node) key, three integers (a float is refused, not
    truncated onto another key)."""
    seed, purpose, node = operator.index(seed), operator.index(purpose), operator.index(node)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    key = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, node))
    return np.random.Generator(np.random.Philox(key))


def node_streams(seed: int, purpose: int, nodes) -> list[np.random.Generator]:
    """One independent generator per node index in ``nodes``; a node named twice is refused."""
    nodes = Counter(operator.index(node) for node in nodes)  # keys in the order given
    repeated = [node for node, n in nodes.items() if n > 1]
    if repeated:
        raise ValueError(f"node {repeated[0]} has more than one stream")
    return [node_stream(seed, purpose, node) for node in nodes]
