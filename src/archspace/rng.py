"""Deterministic random streams.

All randomness in the package flows through :class:`Rng`, a bare keyed
stream of the counter-based Philox4x64 bit generator.  Only its raw 64-bit
words are consumed, in counter order; uniform and normal variates are
derived from them explicitly (53-bit mantissa scaling, Box-Muller), so the
byte content of every sample is a pure function of (seed, call sequence)
and does not depend on numpy's Generator distribution internals.

Word draws take their blocks from the in-module `_philox_block`, array
draws from numpy's Philox at the same counter; the words are the same.

Streams are derived by key, not by position: ``rng.child(i, j)`` is
independent of how much ``rng`` itself has been consumed, and
``rng.child(i).child(j)`` equals ``rng.child(i, j)``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
# Round r's key is the key plus r times the Philox Weyl increments.
_KEY_BUMPS = tuple((r * 0x9E3779B97F4A7C15, r * 0xBB67AE8584CAA73B) for r in range(10))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _philox_block(counter: int, k0: int, k1: int) -> tuple[int, int, int, int]:
    """The four words of Philox4x64-10 at 256-bit counter (counter, 0, 0, 0)
    and key (k0, k1): the block numpy's Philox with that key yields
    counter-th.  Exact for counters below 2**64, where the counter's upper
    words stay 0."""
    c0, c1, c2, c3 = counter, 0, 0, 0
    for b0, b1 in _KEY_BUMPS:
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ ((k0 + b0) & _MASK64), p1 & _MASK64,
                          (p0 >> 64) ^ c3 ^ ((k1 + b1) & _MASK64), p0 & _MASK64)
    return c0, c1, c2, c3


class Rng:
    """Keyed Philox4x64 raw stream, read in counter order by draws of any size.

    Word draws compute blocks with `_philox_block`; `normal` takes the
    current block's undrawn words, then whole blocks from numpy's Philox."""

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed <= _MASK64:  # the Philox key word, never reduced
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self.stream = stream & _MASK64
        self._block = 0           # counter of the last block drawn from
        self._words: list[int] = []   # its undrawn words, the next one last

    def child(self, *indices: int) -> "Rng":
        """Derive an independent stream keyed by the index path."""
        s = self.stream
        for i in indices:
            s = _splitmix64(s ^ _splitmix64((i & _MASK64) ^ 0xA5A5DEADBEEF5A5A))
        return Rng(self.seed, s)

    def next_u64(self) -> int:
        if not self._words:
            self._block += 1
            self._words = list(reversed(_philox_block(self._block, self.seed, self.stream)))
        return self._words.pop()

    def uniform(self) -> float:
        """One float in [0, 1)."""
        return float(self.next_u64() >> 11) * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling, for 1 <= n <= 2**64."""
        if not 1 <= n <= 2 ** 64:
            raise ValueError("randbelow requires 1 <= n <= 2**64")
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
        raw = np.array([self._words.pop() for _ in range(min(2 * pairs, len(self._words)))],
                       dtype=np.uint64)
        need = 2 * pairs - len(raw)
        if need:
            blocks = -(-need // 4)
            key = np.array([self.seed, self.stream], dtype=np.uint64)
            tail = np.random.Philox(key=key, counter=self._block).random_raw(4 * blocks)
            self._block += blocks
            self._words = tail[need:][::-1].tolist()
            raw = np.concatenate([raw, tail[:need]])
        # u1 in (0, 1] keeps log finite; u2 in [0, 1).
        u1 = ((raw[:pairs] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return (z[:total] * std + mean).reshape(dims)
