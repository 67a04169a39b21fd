"""Deterministic random substreams.

Every stochastic component draws from a numpy Generator whose seed derives
from (master_seed, component_tag, index) through SeedSequence spawn keys.
The derivation is a pure function of those integers, so results do not
depend on scheduling, thread count, or call order.
"""

from __future__ import annotations

import numpy as np

# Component tags. Fixed for the life of the package: changing one changes
# every downstream stream.
TAG_INPUT = 1
TAG_COPIES = 2
TAG_REPETITION = 3
TAG_BOUNDS = 4


def substream(master_seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Generator for component `tag`, stream `index`, under `master_seed`."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(tag), int(index)))
    return np.random.Generator(np.random.PCG64(seq))


def child_seed(master_seed: int, tag: int, index: int = 0) -> int:
    """Derive a 64-bit child seed, e.g. one protocol repetition's master seed."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(tag), int(index)))
    lo, hi = seq.generate_state(2, dtype=np.uint32)
    return int(lo) | (int(hi) << 32)
