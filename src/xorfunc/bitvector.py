"""Bitvector with constant-time rank support.

Geometry: 4096-bit superblocks carry 64-bit absolute popcounts, every 64-bit
word carries a 16-bit popcount relative to its superblock.  A rank query is
one superblock counter, one word counter, and one masked popcount.  The index
costs 0.266 bits per stored bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

    @classmethod
    def from_indices(cls, length: int, ones: Iterable[int]) -> "RankBitvector":
        bits = np.zeros(length, dtype=np.uint8)
        idx = np.fromiter(ones, dtype=np.int64)
        if idx.size:
            bits[idx] = 1
        return cls(bits)

    def __len__(self) -> int:
        return self.length

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexOutOfRange(f"bit {i} out of [0, {self.length})")
        return (self._words[i >> 6] >> (i & 63)) & 1

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

    @property
    def index_bits(self) -> int:
        """Size of the rank index on top of the raw bits."""
        return 64 * len(self.super_counts) + 16 * len(self.word_rel)

    def to_bits(self) -> np.ndarray:
        raw = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return raw[: self.length]


def rank1(v: RankBitvector, i: int) -> int:
    return v.rank1(i)
