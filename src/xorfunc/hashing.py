"""Seeded simulation of fully random hash functions and derived samplers.

Every hash function in the package is a keyed blake2b PRF addressed by
``(master_seed, function_index)``; distinct function indices use independent
keying, so one 64-bit master seed yields an unbounded family of functions
that is deterministic across processes.  Function indices are composed from a
role tag, a retry generation, and a slot so the builders never collide.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySupport, IndexOutOfRange, KTooLarge, RandomnessExhausted, ZeroRange

MASK64 = (1 << 64) - 1
_PRIME61 = (1 << 61) - 1
_FIXED_ONE = 1 << 64

# role tags for function_index composition
ROLE_PROBE = 0  # probe-set functions of the retrieval structures
ROLE_WEIGHT = 1  # per-key row-weight sampler (square structure)
ROLE_SPLIT = 2  # block / chunk splitter
ROLE_SECONDARY = 3  # overflow-structure probes
ROLE_SIGNATURE = 4  # membership signatures
ROLE_SHARE_BASE = 5  # split-and-share key digest
ROLE_SHARE_PAIR = 6  # split-and-share per-chunk pair parameters
ROLE_SHARE_TABLE = 7  # split-and-share shared table entries


MAX_GENERATION = 1 << 20  # generations, and slots, a function index can address
SPLIT_SHARE_ATTEMPTS = 256  # splitter generations, and pairs per chunk, a split-share build draws


def fn_index(role: int, generation: int = 0, slot: int = 0) -> int:
    """Compose a collision-free function index from (role, generation, slot)."""
    if not (0 <= generation < MAX_GENERATION and 0 <= slot < MAX_GENERATION):
        raise ValueError("generation/slot out of range")
    return (role << 40) | (generation << 20) | slot


@dataclass(frozen=True)
class SeededHasher:
    """One member of the simulated fully random family."""

    master_seed: int
    function_index: int
    _prf: "hashlib.blake2b" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = struct.pack("<QQ", self.master_seed & MASK64, self.function_index & MASK64)
        # keying blake2b costs more than copying a keyed one, so each call copies this
        object.__setattr__(self, "_prf", hashlib.blake2b(digest_size=8, key=key))

    def u64(self, key: bytes) -> int:
        h = self._prf.copy()
        h.update(key)
        return int.from_bytes(h.digest(), "little")

    def hash_to_range(self, key: bytes, range_: int) -> int:
        if range_ < 1:
            raise ZeroRange(f"range {range_} < 1")
        return self.u64(key) % range_


def probe_hashers(seed: int, role: int, generation: int, count: int) -> list[SeededHasher]:
    return [SeededHasher(seed, fn_index(role, generation, s)) for s in range(count)]


def distinct_k_set(key: bytes | int, k: int, m: int, hashers: Sequence) -> tuple[int, ...]:
    """Ordered sequence of k distinct indices in [m], uniform over draws.

    Simulates the swap-to-the-back shuffle on a virtual array without
    materializing it: a small map records displaced values, giving expected
    O(k) time per key.
    """
    if k > m:
        raise KTooLarge(f"k={k} exceeds range m={m}")
    if k < 1:
        raise ValueError("k must be >= 1")
    displaced: dict[int, int] = {}
    out = []
    for step in range(k):
        g = hashers[step].hash_to_range(key, m - step)
        top = m - 1 - step
        out.append(displaced.get(g, g))
        displaced[g] = displaced.get(top, top)
    return tuple(out)


# ---------------------------------------------------------------------------
# conditioned binomial sampling


@dataclass(frozen=True)
class ConditionedBinomialTable:
    """Fixed-point CDF of Binomial(n, p) conditioned on weights in [lo, hi].

    ``cdf[i - lo]`` is round(P(X <= i | lo <= X <= hi) * 2**64), strictly
    increasing with last entry exactly 2**64.  ``tail_lo``/``tail_hi`` keep
    the unconditioned masses cut off below lo and above hi.
    """

    n: int
    p: float
    lo: int
    hi: int
    cdf: tuple[int, ...]
    tail_lo: float
    tail_hi: float

    @cached_property
    def midpoints(self) -> tuple[int, ...]:
        """Sampling thresholds, computed once per table."""
        prev = 0
        mids = []
        for v in self.cdf:
            mids.append((prev + v) // 2)
            prev = v
        return tuple(mids)

    def sample_probabilities(self) -> list[float]:
        """Cell probabilities the midpoint sampler actually realizes."""
        mids = self.midpoints
        bounds = [0, *mids[1:], _FIXED_ONE]
        return [(bounds[t + 1] - bounds[t]) / _FIXED_ONE for t in range(len(mids))]


def build_binomial_table(n: int, p: float, lo: int, hi: int) -> ConditionedBinomialTable:
    """Tabulate the conditioned binomial CDF by a log-space recurrence."""
    if not (0 <= lo <= hi <= n):
        raise ValueError("need 0 <= lo <= hi <= n")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    i = np.arange(hi, dtype=np.float64)
    log_ratio = np.log(n - i) - np.log(i + 1.0) + (math.log(p) - math.log1p(-p))
    log_pmf = np.concatenate(([0.0], np.cumsum(log_ratio))) + n * math.log1p(-p)

    def mass(a: int, b: int) -> float:
        if a > b:
            return 0.0
        chunk = log_pmf[a : b + 1]
        peak = chunk.max()
        if peak == -np.inf:
            return 0.0
        return float(np.exp(chunk - peak).sum() * np.exp(peak))

    window = mass(lo, hi)
    if window <= 0.0:
        raise EmptySupport(f"no binomial mass in [{lo}, {hi}] at working precision")
    tail_lo = mass(0, lo - 1)
    tail_hi = max(0.0, 1.0 - tail_lo - window) if hi < n else 0.0

    cum = np.cumsum(np.exp(log_pmf[lo : hi + 1] - math.log(window) + 0.0))
    cells = len(cum)
    fixed: list[int] = []
    prev = 0
    for idx, c in enumerate(cum):
        v = int(round(float(c) * _FIXED_ONE))
        ceiling = _FIXED_ONE - (cells - idx - 1)  # headroom keeps strict increase
        v = min(ceiling, max(prev + 1, v))
        fixed.append(v)
        prev = v
    fixed[-1] = _FIXED_ONE
    return ConditionedBinomialTable(n, p, lo, hi, tuple(fixed), tail_lo, tail_hi)


def sample_conditioned(tbl: ConditionedBinomialTable, key: bytes, h: SeededHasher) -> int:
    """Midpoint-rule draw from the table: the largest cell whose midpoint
    threshold is <= the key's 64-bit hash fraction, clamped to lo."""
    g = h.u64(key)
    idx = bisect_right(tbl.midpoints, g) - 1
    if idx < 0:
        idx = 0
    return tbl.lo + idx


# ---------------------------------------------------------------------------
# split-and-share: simulated full randomness from shared tables


@dataclass(frozen=True)
class UniversalPair:
    """Two 1-universal functions into [r_tab] applied to a key digest."""

    a0: int
    b0: int
    a1: int
    b1: int
    r_tab: int

    def values(self, digest: int) -> tuple[int, int]:
        v0 = ((self.a0 * digest + self.b0) % _PRIME61) % self.r_tab
        v1 = ((self.a1 * digest + self.b1) % _PRIME61) % self.r_tab
        return v0, v1


def shared_pair_value(t0: Sequence[int], t1: Sequence[int], v0: int, v1: int, t: int) -> int:
    """Core split-and-share formula: (T0[v0] + T1[v1]) mod t."""
    return (t0[v0] + t1[v1]) % t


@dataclass
class SplitShareTables:
    """Splitter + per-chunk universal pairs + shared random tables.

    Each chunk's pair was accepted only if the bipartite multigraph its key
    digests induce on [r_tab] + [r_tab] is acyclic; under that condition the
    sum of two shared-table entries is fully random on the chunk for every
    table redraw.
    """

    master_seed: int
    num_chunks: int
    r_tab: int
    t: int
    splitter_generation: int
    pairs: list[UniversalPair | None]
    tables: list[tuple[list[int], list[int]]]
    max_chunk: int
    # hashers made once, not serialized
    _splitter: SeededHasher = field(init=False, repr=False, compare=False)
    _base: SeededHasher = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._splitter = SeededHasher(
            self.master_seed, fn_index(ROLE_SPLIT, self.splitter_generation)
        )
        self._base = SeededHasher(self.master_seed, fn_index(ROLE_SHARE_BASE))

    def chunk_of(self, key: bytes) -> int:
        return self._splitter.hash_to_range(key, self.num_chunks)

    def digest(self, key: bytes) -> int:
        return self._base.u64(key)

    def ensure_tables(self, j: int) -> None:
        """Materialize shared table pairs up to index j (1-based); entries are
        PRF-derived from (master_seed, j, side), so extension is deterministic."""
        while len(self.tables) < j:
            nxt = len(self.tables) + 1
            pair = []
            for side in (0, 1):
                h = SeededHasher(self.master_seed, fn_index(ROLE_SHARE_TABLE, nxt, side))
                pair.append([h.u64(struct.pack("<I", v)) % self.t for v in range(self.r_tab)])
            self.tables.append((pair[0], pair[1]))


def _draw_pair(seed: int, chunk: int, attempt: int, r_tab: int) -> UniversalPair:
    h = SeededHasher(seed, fn_index(ROLE_SHARE_PAIR, attempt, chunk))
    a0 = h.u64(b"a0") % (_PRIME61 - 1) + 1
    b0 = h.u64(b"b0") % _PRIME61
    a1 = h.u64(b"a1") % (_PRIME61 - 1) + 1
    b1 = h.u64(b"b1") % _PRIME61
    return UniversalPair(a0, b0, a1, b1, r_tab)


def _pair_is_acyclic(pair: UniversalPair, digests: Sequence[int], r_tab: int) -> bool:
    parent = list(range(2 * r_tab))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in digests:
        v0, v1 = pair.values(d)
        ra, rb = find(v0), find(r_tab + v1)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def default_chunk_count(n: int) -> int:
    """Chunks a split-share build of n keys uses: about 2 n^(2/3)."""
    return max(1, math.ceil(2 * n ** (2 / 3)))


def default_table_size(n: int) -> int:
    """Shared-table length a split-share build of n keys uses: about 2 n^(3/4)."""
    return max(2, math.ceil(2 * n ** (3 / 4)))


def build_split_share(
    keys: Iterable[bytes],
    L: int,
    t: int,
    seed: int = 0,
    num_chunks: int | None = None,
    r_tab: int | None = None,
) -> SplitShareTables:
    """Split keys into small chunks and set up shared randomness for them."""
    return split_and_share(keys, L, t, seed, num_chunks, r_tab)[0]


def split_and_share(
    keys: Iterable[bytes],
    L: int,
    t: int,
    seed: int = 0,
    num_chunks: int | None = None,
    r_tab: int | None = None,
) -> tuple[SplitShareTables, list[list[int]], list[int]]:
    """:func:`build_split_share`, plus the positions of each chunk's keys in
    ``keys`` and every key's digest, so a builder splits and digests once."""
    key_list = list(keys)
    n = len(key_list)
    if L < 1 or t < 2:
        raise ValueError("need L >= 1 and t >= 2")
    if num_chunks is None:
        num_chunks = default_chunk_count(n)
        cap = max(1, math.isqrt(n)) if n else 1
    else:
        cap = n  # explicit chunk counts waive the sqrt(n) guarantee
    if r_tab is None:
        r_tab = default_table_size(n)

    for splitter_gen in range(SPLIT_SHARE_ATTEMPTS):
        tables = SplitShareTables(
            master_seed=seed, num_chunks=num_chunks, r_tab=r_tab, t=t,
            splitter_generation=splitter_gen, pairs=[], tables=[], max_chunk=0,
        )
        chunks: list[list[int]] = [[] for _ in range(num_chunks)]
        for idx, k in enumerate(key_list):
            chunks[tables.chunk_of(k)].append(idx)
        tables.max_chunk = max((len(c) for c in chunks), default=0)
        if tables.max_chunk <= cap:
            break
    else:
        raise RandomnessExhausted("could not split keys into sqrt(n)-bounded chunks")

    digests = [tables.digest(k) for k in key_list]
    for ci, members in enumerate(chunks):
        if not members:
            tables.pairs.append(None)
            continue
        member_digests = [digests[i] for i in members]
        for attempt in range(SPLIT_SHARE_ATTEMPTS):
            pair = _draw_pair(seed, ci, attempt, r_tab)
            if _pair_is_acyclic(pair, member_digests, r_tab):
                tables.pairs.append(pair)
                break
        else:
            raise RandomnessExhausted(f"no acyclic pair found for chunk {ci}")
    tables.ensure_tables(L)
    return tables, chunks, digests


def split_share_eval(tables: SplitShareTables, chunk: int, j: int, key: bytes) -> int:
    """Simulated fully random value in [t] for chunk's j-th shared function."""
    return split_share_value(tables, chunk, j, tables.digest(key))


def split_share_value(tables: SplitShareTables, chunk: int, j: int, digest: int) -> int:
    """:func:`split_share_eval` for the key whose ``tables.digest`` is ``digest``."""
    if not 0 <= chunk < tables.num_chunks:
        raise IndexOutOfRange(f"chunk {chunk} out of [0, {tables.num_chunks})")
    if not 1 <= j <= len(tables.tables):
        raise IndexOutOfRange(f"function index {j} out of [1, {len(tables.tables)}]")
    pair = tables.pairs[chunk]
    if pair is None:
        pair = _draw_pair(tables.master_seed, chunk, 0, tables.r_tab)
    v0, v1 = pair.values(digest)
    t0, t1 = tables.tables[j - 1]
    return shared_pair_value(t0, t1, v0, v1, tables.t)


class ChunkHasher:
    """Adapter exposing one simulated chunk function as a SeededHasher-alike.

    It is handed the key's digest (``tables.digest(key)``) in place of the
    key, so the k probes of a key share one PRF call.
    """

    __slots__ = ("tables", "chunk", "j")

    def __init__(self, tables: SplitShareTables, chunk: int, j: int):
        self.tables = tables
        self.chunk = chunk
        self.j = j

    def hash_to_range(self, digest: int, range_: int) -> int:
        if range_ < 1:
            raise ZeroRange(f"range {range_} < 1")
        return split_share_value(self.tables, self.chunk, self.j, digest) % range_
