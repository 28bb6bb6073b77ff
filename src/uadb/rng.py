"""Deterministic random streams built on the splitmix64 mixer.

Every stochastic step in this package (synthetic data, forest subsampling,
weight initialization, batch shuffling) draws from these streams, so results
are exactly reproducible from integer seeds and the streams can be
regenerated in any language. The construction is counter-based:

* k-th raw output: ``out_k = mix64(seed + k * GOLDEN)`` with all arithmetic
  mod 2**64, ``GOLDEN = 0x9E3779B97F4A7C15``, and ``mix64`` the splitmix64
  finalizer (Steele, Lea & Flood 2014)::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* uniform doubles: top 53 bits scaled by 2**-53, giving values in [0, 1)
* standard normals: Box-Muller on uniform pairs,
  ``z0 = sqrt(-2 ln(1-u1)) cos(2 pi u2)``, ``z1 = ... sin(2 pi u2)``
* permutations: stable argsort of n fresh 64-bit outputs

Because each output depends only on (seed, k), block generation and
one-at-a-time generation yield identical sequences. Scalar draws
(``Stream.next_uniform``, ``Stream.index``) and block draws (``u64``,
``uniform``, ``normal``, ``permutation``) advance one shared counter, so
any interleaving of them reads the same outputs as one block of the
total length. A scalar draw runs the pure-Python ``mix64`` and skips
numpy's per-call overhead. ``uniform_at`` reads one given draw from each of
many streams at once; a caller that advances many streams in lockstep (the
isolation forest's trees) keeps their counters itself.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, exact)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *tags: int) -> int:
    """Derive an independent child seed from a seed and integer tags.

    Folds each tag in with ``s = mix64(s + GOLDEN + tag)``. Used to give
    every tree / fold model / iteration its own stream while keeping the
    whole pipeline a pure function of one user-facing seed.
    """
    s = seed & _MASK64
    for t in tags:
        s = mix64((s + GOLDEN + (t & _MASK64)) & _MASK64)
    return s


def _outputs(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Raw output number ``counters`` of the streams ``seeds`` (uint64, broadcast together)."""
    z = seeds + counters * np.uint64(GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def _unit(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of raw outputs as doubles in [0, 1)."""
    return (z >> np.uint64(11)) * 2.0**-53


def uniform_at(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniform number ``counters[i]`` (1-based) of stream ``seeds[i]``, for many streams at once.

    Both are uint64 arrays that broadcast together. Each double equals what
    ``Stream(seed).next_uniform()`` returns as its ``counter``-th draw.
    """
    return _unit(_outputs(seeds, counters))


def indices(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``Stream.index``'s rule on arrays: uniforms ``u`` to integers on [0, bounds)."""
    return np.minimum((u * bounds).astype(np.intp), bounds - 1)


class Stream:
    """A seedable stream of uniforms, normals and permutations.

    Not thread-safe; create one stream per consumer (via :func:`derive`)
    instead of sharing.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0

    def u64(self, k: int) -> np.ndarray:
        """Next ``k`` raw 64-bit outputs."""
        idx = np.arange(self._count + 1, self._count + k + 1, dtype=np.uint64)
        self._count += k
        return _outputs(np.uint64(self._seed), idx)

    def uniform(self, k: int) -> np.ndarray:
        """Next ``k`` doubles in [0, 1)."""
        return _unit(self.u64(k))

    def normal(self, k: int) -> np.ndarray:
        """Next ``k`` standard normal deviates (Box-Muller)."""
        m = (k + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        # 1-u1 lies in (0, 1], so the log is finite; u1=0 gives radius 0.
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = (2.0 * np.pi) * u2
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:k]

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of range(n)."""
        return np.argsort(self.u64(n), kind="stable")

    def next_uniform(self) -> float:
        """The next double in [0, 1) as a Python float, equal to ``uniform(1)[0]``."""
        self._count += 1
        return (mix64(self._seed + self._count * GOLDEN) >> 11) * 2.0**-53

    def index(self, bound: int) -> int:
        """One integer uniform on [0, bound)."""
        return min(int(self.next_uniform() * bound), bound - 1)
