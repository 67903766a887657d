"""Deterministic random streams.

All randomness in the package flows through :class:`Rng`, a bare keyed
stream of the counter-based Philox4x64 bit generator.  Only its raw 64-bit
words are consumed, in counter order; uniform and normal variates are
derived from them explicitly (53-bit mantissa scaling, Box-Muller), so the
byte content of every sample is a pure function of (seed, call sequence)
and does not depend on numpy's Generator distribution internals.

Streams are derived by key, not by position: ``rng.child(i, j)`` is
independent of how much ``rng`` itself has been consumed, and
``rng.child(i).child(j)`` equals ``rng.child(i, j)``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Keyed Philox4x64 raw stream, read in counter order by draws of any size."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._bg = np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))

    def child(self, *indices: int) -> "Rng":
        """Derive an independent stream keyed by the index path."""
        s = self.stream
        for i in indices:
            s = _splitmix64(s ^ _splitmix64((i & _MASK64) ^ 0xA5A5DEADBEEF5A5A))
        return Rng(self.seed, s)

    def next_u64(self) -> int:
        return int(self._bg.random_raw())

    def uniform(self) -> float:
        """One float in [0, 1)."""
        return float(self.next_u64() >> 11) * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        limit = (2 ** 64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Standard Box-Muller normals of the given shape, scaled to N(mean, std^2)."""
        if std < 0:
            raise ValueError("std must be >= 0")
        dims = tuple(shape) if not isinstance(shape, int) else (shape,)
        total = math.prod(int(d) for d in dims)
        pairs = (total + 1) // 2
        # u1 in (0, 1] keeps log finite; u2 in [0, 1).
        u1 = ((self._bg.random_raw(pairs) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
        u2 = (self._bg.random_raw(pairs) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return (z[:total] * std + mean).reshape(dims)
