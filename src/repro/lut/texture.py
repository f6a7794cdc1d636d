"""Texture-cache model for LUT fetches.

On the real GPU, TFApprox binds the multiplier LUT to a
``cudaTextureObject_t`` and reads it with ``tex1Dfetch<ushort>``; the texture
path is attractive because it is optimised for irregular read-only access and
on Pascal-class devices is served by the per-SM L1/texture cache.  The
simulated device binds the :class:`~repro.lut.table.LookupTable` itself
(:meth:`~repro.gpusim.device.GPUDevice.bind_texture`) and counts the fetches
in its :class:`~repro.gpusim.device.DeviceCounters`; this module adds
:class:`TextureCacheModel`, a set-associative LRU cache model that replays an
access stream and reports the hit rate.  The 128 kB table of an 8-bit
multiplier does not fit into a single 48 kB texture cache, so the hit rate
depends on the locality of the quantised operand values; the model lets the
texture-cache ablation benchmark quantify that.
"""

from __future__ import annotations

import numpy as np

from ..errors import DeviceError


class TextureCacheModel:
    """Set-associative LRU cache model of the per-SM L1/texture cache.

    Parameters
    ----------
    size_bytes:
        Total cache capacity (48 kB on the GTX 1080 used in the paper).
    line_bytes:
        Cache line size; texture fetches are served in 32-byte sectors.
    ways:
        Associativity of the cache.
    element_bytes:
        Size of one LUT element (2 bytes for 8-bit multipliers).
    """

    def __init__(self, *, size_bytes: int = 48 * 1024, line_bytes: int = 32,
                 ways: int = 4, element_bytes: int = 2) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise DeviceError("cache geometry must be positive")
        if size_bytes % (line_bytes * ways):
            raise DeviceError(
                "cache size must be a multiple of line_bytes * ways"
            )
        self._size_bytes = size_bytes
        self._line_bytes = line_bytes
        self._ways = ways
        self._element_bytes = element_bytes
        self._num_sets = size_bytes // (line_bytes * ways)
        self.reset()

    def reset(self) -> None:
        """Clear the cache contents and statistics."""
        # tags[set][way] holds the line tag, -1 means invalid;
        # lru[set][way] holds the recency counter (higher == more recent).
        self._tags = np.full((self._num_sets, self._ways), -1, dtype=np.int64)
        self._lru = np.zeros((self._num_sets, self._ways), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Total capacity of the modelled cache."""
        return self._size_bytes

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def access(self, index: int) -> bool:
        """Access one LUT element; returns True on a cache hit."""
        line = (index * self._element_bytes) // self._line_bytes
        set_idx = line % self._num_sets
        tag = line // self._num_sets
        self._clock += 1
        ways = self._tags[set_idx]
        hit_way = np.nonzero(ways == tag)[0]
        if hit_way.size:
            self._lru[set_idx, hit_way[0]] = self._clock
            self.hits += 1
            return True
        victim = int(np.argmin(self._lru[set_idx]))
        self._tags[set_idx, victim] = tag
        self._lru[set_idx, victim] = self._clock
        self.misses += 1
        return False

    def replay(self, indices: np.ndarray, *, limit: int | None = 200_000) -> float:
        """Replay an index stream through the cache and return the hit rate.

        Replaying full convolution workloads element-by-element in Python is
        slow, so ``limit`` subsamples the head of the stream (the statistics
        converge quickly because the stream is stationary within a layer).
        Pass ``None`` to replay everything.
        """
        indices = np.asarray(indices).reshape(-1)
        if limit is not None and indices.size > limit:
            indices = indices[:limit]
        for idx in indices:
            self.access(int(idx))
        return self.hit_rate
