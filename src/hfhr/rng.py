"""Reproducible Gaussian noise streams.

A stream is keyed by a 64-bit seed plus a stream index, so independent
chains (or chain blocks) derive their own generators from one experiment
seed and replay identically regardless of scheduling.
"""

from __future__ import annotations

import numpy as np


class RandomSource:
    """Deterministic standard-normal stream keyed by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def normals(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


class ZeroNoise:
    """Stands in for RandomSource where pure drift is wanted."""

    def normals(self, shape) -> np.ndarray:
        return np.zeros(shape)
