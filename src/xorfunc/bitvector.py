"""Bitvector rank and the shape of an Elias-Fano list.

``RankBitvector`` answers rank in constant time.  Geometry: 4096-bit
superblocks carry 64-bit absolute popcounts, every 64-bit word carries a
16-bit popcount relative to its superblock.  A rank query is one superblock
counter, one word counter, and one masked popcount.  No library structure
holds one: the minimal perfect hash ranks from its list of unused slots, and
``RankBitvector`` is the reference that rank is tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange

_WORDS_PER_SUPER = 64  # 4096 bits


class RankBitvector:
    def __init__(self, bits: Sequence[int] | np.ndarray):
        bits_arr = np.asarray(bits, dtype=np.uint8) & 1
        self.length = int(bits_arr.size)
        packed = np.packbits(bits_arr, bitorder="little")
        n_words = max(1, (self.length + 63) >> 6)
        buf = np.zeros(n_words * 8, dtype=np.uint8)
        buf[: packed.size] = packed
        self.words = buf.view("<u8").astype(np.uint64)

        counts = np.bitwise_count(self.words).astype(np.uint64)
        n_super = (n_words + _WORDS_PER_SUPER - 1) // _WORDS_PER_SUPER
        padded = np.zeros(n_super * _WORDS_PER_SUPER, dtype=np.uint64)
        padded[:n_words] = counts
        grid = padded.reshape(n_super, _WORDS_PER_SUPER)
        within = np.cumsum(grid, axis=1) - grid  # popcount before each word
        per_super = grid.sum(axis=1)
        self.super_counts = np.concatenate(([0], np.cumsum(per_super)[:-1])).astype(np.uint64)
        self.word_rel = within.reshape(-1)[:n_words].astype(np.uint16)
        self.total = int(counts.sum())
        # views read Python ints, where indexing the arrays makes numpy scalars
        self._words = memoryview(self.words)
        self._super_counts = memoryview(self.super_counts)
        self._word_rel = memoryview(self.word_rel)

    def rank1(self, i: int) -> int:
        """Number of set bits in positions [0, i)."""
        if not 0 <= i <= self.length:
            raise IndexOutOfRange(f"rank position {i} out of [0, {self.length}]")
        if i == 0:
            return 0
        if i == self.length and self.length % 64 == 0:
            return self.total
        w = i >> 6
        if w == len(self._words):
            return self.total
        r = self._super_counts[w >> 6] + self._word_rel[w]
        rem = i & 63
        if rem:
            r += (self._words[w] & ((1 << rem) - 1)).bit_count()
        return r


def elias_fano_shape(count: int, universe: int) -> tuple[int, int]:
    """(low width l, high bits) of an Elias-Fano list of count values below universe.

    Each value keeps its l = floor(log2(universe / count)) low bits; its high
    part sets one bit in a unary stream of count + ((universe - 1) >> l) + 1
    bits (Vigna, arXiv:1206.4300).  An empty list takes no bits.
    """
    if count == 0:
        return 0, 0
    low = (universe // count).bit_length() - 1  # exact for 1 <= count <= universe
    return low, count + ((universe - 1) >> low) + 1

