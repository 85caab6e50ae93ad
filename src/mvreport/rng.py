"""Deterministic counter-based PRNG: SplitMix64.

Output *i* (i = 1, 2, ...) of ``Rng(seed)`` is ``mix64(seed + i * GAMMA)``,
exactly the SplitMix64 sequence started from ``seed`` (Steele, Lea and Flood
2014). Because every output depends only on its counter, a block of outputs
is one vectorised uint64 expression, and scalar and array draws advance the
same counter.

All initialization, shuffling, and sampling in the package goes through
this generator. The uint64 stream, and so every integer, shuffle and
``random()`` draw, is bit-exact on every platform. Normals go through
NumPy's log/cos/sin, whose SIMD implementations differ between NumPy builds
by about 1 ULP, so they are reproducible to that precision only.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def splitmix64(state: int):
    """One SplitMix64 step: returns (new_state, output)."""
    state = (state + _GAMMA) & _MASK
    return state, _mix64(state)


def derive_seed(seed: int, label: str) -> int:
    """Deterministic child seed for a named stream."""
    state = seed & _MASK
    for byte in label.encode("utf-8"):
        state, _ = splitmix64(state ^ byte)
    _, out = splitmix64(state)
    return out


class Rng:
    """SplitMix64 generator: a seed plus a count of the outputs drawn."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return _mix64((self.seed + self._counter * _GAMMA) & _MASK)

    def _u64(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as one uint64 array (wrapping arithmetic)."""
        i = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z = np.uint64(self.seed) + i * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        return z ^ (z >> np.uint64(31))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) via rejection sampling."""
        n = high - low
        if n <= 0:
            raise ValueError("empty integer range")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return low + (u % n)

    def normal(self, size, std: float = 1.0) -> np.ndarray:
        """Box-Muller standard normals, scaled by ``std``.

        Pair k uses outputs (2k, 2k+1) as (u1, u2), with u1 = 1 - u in (0, 1],
        and yields (r cos, r sin); an odd count drops the last sine value.
        """
        n = int(np.prod(size))
        u = (self._u64(2 * ((n + 1) // 2)) >> np.uint64(11)) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        theta = 2.0 * math.pi * u[1::2]
        out = np.empty(u.size, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return (std * out[:n]).reshape(size)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integers(0, i + 1)
            items[i], items[j] = items[j], items[i]

    def child(self, label: str) -> "Rng":
        """Independent named substream."""
        return Rng(derive_seed(self.seed, label))
