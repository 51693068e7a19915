"""XOR-probe retrieval with constant probes per key.

Each key is mapped to k distinct table positions; a build solves the induced
sparse GF(2) system so the XOR of a key's probes equals its stored value.
Construction succeeds exactly when the random system has full row rank and
retries with a fresh hash-function generation otherwise.  A split-and-share
variant partitions the keys into small chunks and builds one segment per
chunk from simulated per-chunk randomness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateKeys, KTooLarge, RandomnessExhausted
from .gf2 import reduce_segments, solve_xor_system
from .hashing import (
    ROLE_PROBE,
    SeededHasher,
    SplitShareTables,
    distinct_k_rows,
    distinct_k_set,
    fn_index,
    split_and_share,
)

DEFAULT_RETRY_CAP = 64  # generations a builder tries: a safety bound, not a knob
SPLIT_SHARE_T = 1 << 32

Pair = tuple[bytes, int]


def normalize_pairs(pairs: Iterable[Pair]) -> list[Pair]:
    """Sort by key and reject duplicates, so builds are order-insensitive."""
    items = sorted(pairs, key=lambda kv: kv[0])
    for a, b in zip(items, items[1:]):
        if a[0] == b[0]:
            raise DuplicateKeys(f"key {a[0]!r} appears more than once")
    return items


def check_values(values: Iterable[int], r: int) -> None:
    if not 1 <= r <= 64:  # the widths a container can hold
        raise ValueError(f"value width r={r} is not in 1..64")
    limit = 1 << r
    for v in values:
        if not 0 <= v < limit:
            raise ValueError(f"value {v} does not fit in {r} bits")


def check_table_size(n: int, k: int, m: int) -> None:
    """Raise KTooLarge unless n keys can draw k distinct probes from m columns."""
    if n and k > m:
        raise KTooLarge(f"k={k} exceeds table size m={m}")
    if n > 1 and k == m:  # every row is all ones, so no two keys are independent
        raise KTooLarge(f"k={k} equals table size m={m}; {n} keys need m > k")


def threshold_warning(k: int, delta: float) -> None:
    """Warn when the density is at or above the full-rank threshold."""
    if k < 3:
        return
    from .thresholds import beta_k_cached

    inv = 1.0 / beta_k_cached(k)
    if 1.0 + delta <= inv:
        warnings.warn(
            f"1+delta = {1 + delta:.5f} <= 1/beta_{k} = {inv:.5f}: "
            "full-rank probability vanishes for large n",
            UserWarning,
            stacklevel=3,
        )


class Retrieval:
    """Verify rule shared by the retrieval kinds: every key returns its value."""

    def verify(self, pairs: Iterable[Pair]) -> bool:
        return all(self.query(key) == value for key, value in pairs)


@dataclass(eq=False)
class RetrievalStructure(Retrieval):
    """Seeds plus a table of m r-bit entries; query XORs k probed entries."""

    kind = "basic"

    n: int
    m: int
    k: int
    r: int
    delta: float
    master_seed: int
    seed_generation: int
    table: np.ndarray
    _hasher: SeededHasher = field(init=False, repr=False)
    _entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        index = fn_index(ROLE_PROBE, self.seed_generation)
        self._hasher = SeededHasher(self.master_seed, index, self.k)
        self._entries = memoryview(self.table)  # reads ints; edits of table show through

    def probes(self, key: bytes) -> tuple[int, ...]:
        return distinct_k_set(self._hasher.words(key), self.k, self.m)

    def probe_rows(self, keys: Sequence[bytes]) -> np.ndarray:
        """:meth:`probes` of every key, as one (len(keys), k) int array."""
        return distinct_k_rows(self._hasher.word_rows(keys), self.k, self.m)

    @property
    def table_bits(self) -> int:
        return self.m * self.r

    def query(self, key: bytes) -> int:
        """Stored value for construction keys; some r-bit value for any other key."""
        if self.m == 0 or self.k > self.m:
            return 0
        acc = 0
        for j in self.probes(key):
            acc ^= self._entries[j]
        return acc

    def stats(self) -> list[str]:
        return [f"k: {self.k}", f"seed_generation: {self.seed_generation}"]


@dataclass(eq=False)
class SplitShareRetrieval(Retrieval):
    """Per-chunk XOR-probe segments driven by shared-table simulated hashing."""

    kind = "basic"

    n: int
    k: int
    r: int
    delta: float
    master_seed: int
    provider: SplitShareTables
    chunk_generations: list[int]
    chunk_offsets: np.ndarray  # prefix offsets, len num_chunks + 1
    table: np.ndarray
    _offsets: memoryview = field(init=False, repr=False)
    _entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._offsets = memoryview(self.chunk_offsets)
        self._entries = memoryview(self.table)
        for gen in {g for g, s in zip(self.chunk_generations, np.diff(self.chunk_offsets)) if s}:
            self.draw_generation(gen)

    def draw_generation(self, generation: int) -> None:
        """Draw the k shared functions from generation * k on: those a chunk there reads."""
        self.provider.draw_tables(range(generation * self.k, (generation + 1) * self.k))

    @property
    def m(self) -> int:
        return int(len(self.table))

    @property
    def seed_generation(self) -> int:
        return max(self.chunk_generations, default=0)

    @property
    def table_bits(self) -> int:
        return self.m * self.r

    def _chunk_probes(self, chunk: int, digest: int, seg_len: int) -> tuple[int, ...]:
        """The k probes in its chunk's segment of the key whose digest is ``digest``."""
        first = self.chunk_generations[chunk] * self.k  # see draw_generation
        words = self.provider.words(chunk, digest, first, self.k)
        return distinct_k_set(words, self.k, seg_len)

    def query(self, key: bytes) -> int:
        """XOR of k probes in the segment of the key's chunk."""
        ci = self.provider.chunk_of(key)
        start = self._offsets[ci]
        seg_len = self._offsets[ci + 1] - start
        if seg_len == 0:
            return 0
        acc = 0
        for j in self._chunk_probes(ci, self.provider.digest(key), seg_len):
            acc ^= self._entries[start + j]
        return acc

    def stats(self) -> list[str]:
        return [
            f"k: {self.k}",
            "split_share: true",
            f"chunks: {self.provider.num_chunks}",
            f"max_chunk: {self.provider.max_chunk}",
        ]


def build(
    pairs: Iterable[Pair],
    r: int,
    k: int = 3,
    delta: float = 0.25,
    seed: int = 0,
    split_share: bool = False,
) -> "RetrievalStructure | SplitShareRetrieval":
    """Construct a retrieval structure for (key, value) pairs.

    m = ceil((1+delta) n).  Raises RandomnessExhausted when DEFAULT_RETRY_CAP
    hash-function generations all produce a rank-deficient system.
    """
    items = normalize_pairs(pairs)
    if k < 2:
        raise ValueError("k must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    check_values((v for _, v in items), r)
    threshold_warning(k, delta)
    if split_share:
        return _build_split_share(items, r, k, delta, seed)

    n = len(items)
    m = math.ceil((1 + delta) * n)
    check_table_size(n, k, m)
    keys = [key for key, _ in items]
    values = [v for _, v in items]
    for gen in range(DEFAULT_RETRY_CAP):
        d = RetrievalStructure(
            n=n, m=m, k=k, r=r, delta=delta, master_seed=seed, seed_generation=gen,
            table=np.zeros(m, dtype=np.uint64),
        )
        rows = d.probe_rows(keys)
        solved = solve_xor_system(rows, values, m)
        if solved is not None:
            d.table[:] = solved[0]
            return d
    raise RandomnessExhausted(f"no full-rank system within {DEFAULT_RETRY_CAP} generations")


def _build_split_share(
    items: list[Pair], r: int, k: int, delta: float, seed: int
) -> SplitShareRetrieval:
    provider, chunks, digests = split_and_share(
        [key for key, _ in items], L=k, t=SPLIT_SHARE_T, seed=seed
    )
    # small chunks need headroom beyond (1+delta): with seg_len == k every
    # row is the all-ones vector and two keys can never be independent
    seg_lens = [
        max(math.ceil((1 + delta) * len(c)), len(c) + 2, k + (len(c) > 1)) if c else 0
        for c in chunks
    ]
    offsets = np.concatenate(([0], np.cumsum(seg_lens))).astype(np.int64)
    d = SplitShareRetrieval(
        n=len(items), k=k, r=r, delta=delta, master_seed=seed, provider=provider,
        chunk_generations=[0] * len(chunks), chunk_offsets=offsets,
        table=np.zeros(int(offsets[-1]), dtype=np.uint64),
    )
    pending = [ci for ci, members in enumerate(chunks) if members]
    for gen in range(DEFAULT_RETRY_CAP):
        if not pending:
            break
        # the pending chunks, stacked as segments of one system in table columns
        d.draw_generation(gen)
        rows: list[tuple[int, ...]] = []
        for ci in pending:
            d.chunk_generations[ci] = gen
            rows += [d._chunk_probes(ci, digests[i], seg_lens[ci]) for i in chunks[ci]]
        sizes = [len(chunks[ci]) for ci in pending]
        stacked = np.array(rows, dtype=np.int64) + np.repeat(offsets[pending], sizes)[:, None]
        reduction = reduce_segments(stacked, d.m, np.cumsum([0] + sizes))
        d.table |= reduction.solve([items[i][1] for ci in pending for i in chunks[ci]])
        pending = [pending[s] for s in reduction.failed]
    if pending:
        raise RandomnessExhausted(f"chunk {pending[0]} failed {DEFAULT_RETRY_CAP} generations")
    return d


def query(structure, key: bytes):
    """Answer of any structure kind for ``key``; see each kind's ``query``."""
    return structure.query(key)


def verify(structure, pairs: Iterable[Pair]) -> bool:
    """True iff the structure answers every pair as its kind's ``verify`` requires."""
    return structure.verify(pairs)

