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

from .bitvector import RankBitvector
from .errors import DuplicateKeys, KTooLarge, PivotMismatch, RandomnessExhausted
from .gf2 import solve_xor_system
from .hashing import (
    ROLE_PROBE,
    ChunkHasher,
    SeededHasher,
    SplitShareTables,
    distinct_k_set,
    probe_hashers,
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
    pivots: tuple[int, ...] | None = None
    _hashers: list[SeededHasher] = field(init=False, repr=False)
    _entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._hashers = probe_hashers(self.master_seed, ROLE_PROBE, self.seed_generation, self.k)
        self._entries = memoryview(self.table)  # reads ints; edits of table show through

    def probes(self, key: bytes) -> tuple[int, ...]:
        return distinct_k_set(key, self.k, self.m, self._hashers)

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
class CompressedRetrieval(Retrieval):
    """Only the n significant table entries, addressed through a rank bitvector."""

    base: np.ndarray  # entries at the marked columns, in column order
    membership: RankBitvector
    k: int
    r: int
    master_seed: int
    seed_generation: int
    _hashers: list[SeededHasher] = field(init=False, repr=False)
    _entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._hashers = probe_hashers(self.master_seed, ROLE_PROBE, self.seed_generation, self.k)
        self._entries = memoryview(self.base)

    @property
    def m(self) -> int:
        return len(self.membership)

    def query(self, key: bytes) -> int:
        """Same answer as the uncompressed structure; non-pivot probes contribute 0."""
        if self.m == 0 or self.k > self.m:
            return 0
        acc = 0
        for j in distinct_k_set(key, self.k, self.m, self._hashers):
            if self.membership.get(j):
                acc ^= self._entries[self.membership.rank1(j)]
        return acc


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

    @property
    def m(self) -> int:
        return int(len(self.table))

    @property
    def seed_generation(self) -> int:
        return max(self.chunk_generations, default=0)

    @property
    def table_bits(self) -> int:
        return self.m * self.r

    def _chunk_hashers(self, chunk: int) -> list[ChunkHasher]:
        gen = self.chunk_generations[chunk]
        return [ChunkHasher(self.provider, chunk, gen * self.k + l + 1) for l in range(self.k)]

    def query(self, key: bytes) -> int:
        """XOR of k probes in the segment of the key's chunk."""
        ci = self.provider.chunk_of(key)
        start = self._offsets[ci]
        seg_len = self._offsets[ci + 1] - start
        if seg_len == 0:
            return 0
        acc = 0
        digest = self.provider.digest(key)
        for j in distinct_k_set(digest, self.k, seg_len, self._chunk_hashers(ci)):
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
    if n and k > m:
        raise KTooLarge(f"k={k} exceeds table size m={m}")
    values = [v for _, v in items]
    for gen in range(DEFAULT_RETRY_CAP):
        d = RetrievalStructure(
            n=n, m=m, k=k, r=r, delta=delta, master_seed=seed, seed_generation=gen,
            table=np.zeros(m, dtype=np.uint64),
        )
        rows = [d.probes(key) for key, _ in items]
        solved = solve_xor_system(rows, values, m)
        if solved is not None:
            table, pivots = solved
            d.table[:] = table
            d.pivots = tuple(sorted(pivots))
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
        max(math.ceil((1 + delta) * len(c)), len(c) + 2, k) if c else 0 for c in chunks
    ]
    offsets = np.concatenate(([0], np.cumsum(seg_lens))).astype(np.int64)
    d = SplitShareRetrieval(
        n=len(items), k=k, r=r, delta=delta, master_seed=seed, provider=provider,
        chunk_generations=[0] * len(chunks), chunk_offsets=offsets,
        table=np.zeros(int(offsets[-1]), dtype=np.uint64),
    )
    for ci, members in enumerate(chunks):
        if not members:
            continue
        seg_len = seg_lens[ci]
        values = [items[i][1] for i in members]
        for gen in range(DEFAULT_RETRY_CAP):
            provider.ensure_tables((gen + 1) * k)
            d.chunk_generations[ci] = gen
            hashers = d._chunk_hashers(ci)
            rows = [distinct_k_set(digests[i], k, seg_len, hashers) for i in members]
            solved = solve_xor_system(rows, values, seg_len)
            if solved is not None:
                d.table[offsets[ci] : offsets[ci + 1]] = solved[0]
                break
        else:
            raise RandomnessExhausted(f"chunk {ci} failed {DEFAULT_RETRY_CAP} generations")
    return d


def query(structure, key: bytes):
    """Answer of any structure kind for ``key``; see each kind's ``query``."""
    return structure.query(key)


def verify(structure, pairs: Iterable[Pair]) -> bool:
    """True iff the structure answers every pair as its kind's ``verify`` requires."""
    return structure.verify(pairs)


def compress(d: RetrievalStructure, pivots: Sequence[int] | None) -> CompressedRetrieval:
    """Keep only the significant entries; probes route through a rank bitvector."""
    if pivots is None:
        raise PivotMismatch("pivots exist only on a freshly built structure, not a loaded one")
    piv = sorted(pivots)
    if len(piv) != d.n or len(set(piv)) != d.n:
        raise PivotMismatch("expected exactly n distinct pivot columns")
    if piv and (piv[0] < 0 or piv[-1] >= d.m):
        raise PivotMismatch("pivot column out of table range")
    marked = np.zeros(d.m, dtype=np.uint8)
    marked[piv] = 1
    if np.any(d.table[marked == 0]):
        raise PivotMismatch("table has nonzero entries outside the pivot columns")
    return CompressedRetrieval(
        base=d.table[np.array(piv, dtype=np.int64)] if piv else np.zeros(0, dtype=np.uint64),
        membership=RankBitvector(marked),
        k=d.k,
        r=d.r,
        master_seed=d.master_seed,
        seed_generation=d.seed_generation,
    )


query_compressed = CompressedRetrieval.query
