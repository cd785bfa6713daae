"""Numeric helpers: the logistic function, and the seeded random source
from which ``model_training.build_model`` draws every initial weight.

Arrays are plain ``numpy.float64``.
"""

from __future__ import annotations

import zlib

import numpy as np


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise logistic function, output in [0, 1].

    Computed as 0.5 * (1 + tanh(x / 2)), which never exponentiates, so
    arguments beyond +-700 cannot overflow to inf/NaN.  Given ``out`` (float64,
    x's shape; ``x`` itself or a strided view will do), every step writes
    there and ``out`` is returned, with the bits of the call without it.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class Rng:
    """Deterministic counter-based random source with splittable streams.

    Built on the Philox counter generator.  ``split(label)`` derives an
    independent child stream from (seed, label), so each parameter tensor
    can own a stream and adding a tensor never perturbs the draws of
    another.  Identical seeds reproduce identical draw sequences.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(self.seed, spawn_key=_spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def split(self, label: str) -> "Rng":
        """Derive the child stream named by ``label``."""
        key = zlib.crc32(label.encode("utf-8"))
        return Rng(self.seed, self._spawn_key + (key,))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

