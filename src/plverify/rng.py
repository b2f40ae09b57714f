"""Deterministic 64-bit PRNG (splitmix64) used for all stochastic behaviour.

Every random draw in the repository flows from one of these generators, so a
run is fully reproduced by its seed. The generator is counter-based: output i
is mix64(seed + (i+1) * GAMMA), which lets us produce whole arrays with
vectorised numpy and still stay bit-for-bit deterministic.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based splitmix64 stream."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _u64_block(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GAMMA)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size: int | None = None):
        """Uniform floats in [lo, hi), from the top 53 bits of each word."""
        n = 1 if size is None else size
        u = (self._u64_block(n) >> np.uint64(11)).astype(np.float64) / _U53
        out = lo + (hi - lo) * u
        return float(out[0]) if size is None else out

    def uniform_box(self, lb: np.ndarray, ub: np.ndarray, count: int) -> np.ndarray:
        """count points drawn uniformly from the box [lb, ub], shape (count, d)."""
        d = len(lb)
        u = (self._u64_block(count * d) >> np.uint64(11)).astype(np.float64) / _U53
        return lb + (ub - lb) * u.reshape(count, d)

    def normal(self, size: int) -> np.ndarray:
        """Standard normals via Box-Muller."""
        m = (size + 1) // 2
        u1 = np.maximum(self.uniform(size=m), 1e-300)
        u2 = self.uniform(size=m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[:size]

    def spawn(self, key: int) -> "SplitMix64":
        """Independent child stream; (seed, key) -> child seed via one mix round."""
        with np.errstate(over="ignore"):
            child = _mix64(self._seed + np.uint64(key & 0xFFFFFFFFFFFFFFFF) * _GAMMA + _GAMMA)
        return SplitMix64(int(child))
