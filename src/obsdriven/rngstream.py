"""Counter-based random streams with per-time-index addressing.

Backward iterations extend the environment path to earlier and earlier
times; every value already generated must stay fixed when that happens.
The streams here therefore address randomness by absolute time index:
the uniforms attached to index t live at a fixed Philox counter offset
that does not depend on which range was requested.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Philox counters are addressed in blocks of four 64-bit words; time index
# t is mapped to block offset (t + _TIME_OFFSET) * blocks_per_index, which
# keeps offsets positive for any |t| < 2**61.
_TIME_OFFSET = 1 << 61


def _mix64(z: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit ints."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def split_seed(seed: int, index: int) -> int:
    """Derive an independent child seed: mix(seed XOR mix(index)).

    This is the documented seed-split used for parallel replicas and for
    separating the environment stream from the observation stream.
    """
    return _mix64((seed & _MASK64) ^ _mix64(index & _MASK64))


def generator(seed: int, tag: int = 0) -> np.random.Generator:
    """Sequential generator for purposes that need no index addressing."""
    return np.random.Generator(np.random.Philox(key=split_seed(seed, tag)))


class IndexedStream:
    """Uniform variates addressed by (time index, word slot).

    Each time index owns ``words_per_index`` 64-bit words at an absolute
    counter position, so ``uniforms(t, n)`` returns the same block no
    matter which other indices have been queried.  Streams with different
    (seed, tag) pairs are independent.
    """

    def __init__(self, seed: int, tag: int, words_per_index: int):
        if words_per_index < 1:
            raise ValueError("words_per_index must be >= 1")
        self._key = (split_seed(seed, tag), _mix64(tag ^ 0xA5A5_A5A5))
        self.words_per_index = int(words_per_index)
        self._blocks_per_index = (self.words_per_index + 3) // 4

    def raw(self, t_lo: int, n_indices: int) -> np.ndarray:
        """uint64 words for indices t_lo .. t_lo+n_indices-1, shape (n, words)."""
        if n_indices < 1:
            raise ValueError("n_indices must be >= 1")
        bg = np.random.Philox(key=self._key)
        bg.advance((t_lo + _TIME_OFFSET) * self._blocks_per_index)
        words = bg.random_raw(4 * self._blocks_per_index * n_indices)
        words = words.reshape(n_indices, 4 * self._blocks_per_index)
        return words[:, : self.words_per_index]

    def uniforms(self, t_lo: int, n_indices: int) -> np.ndarray:
        """Open-interval (0,1) uniforms, shape (n_indices, words_per_index)."""
        return _open_unit(self.raw(t_lo, n_indices))


def _open_unit(raw: np.ndarray) -> np.ndarray:
    """Map uint64 words into the open interval (0, 1).

    The top 53 bits plus a half-ulp shift keep 0 unreachable, which
    inverse-cdf transforms require; words whose top 53 bits are all ones
    would round up to 1.0 (ties to even), so they are clamped to the
    largest double below 1.
    """
    u = (raw >> np.uint64(11)).astype(float)
    u *= 2.0**-53
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)
