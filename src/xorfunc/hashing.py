"""Seeded simulation of fully random hash functions and derived samplers.

Every hash function in the package is a blake2b PRF salted with
``(master_seed, function_index)``, so one 64-bit master seed yields an
unbounded family of independent functions, deterministic across processes.
A hasher of width w gives w 64-bit words per key, one digest per 8 words
with the block number in blake2b's ``person``: a structure takes all of a
key's probe words of one role from one call, as the xor filter does
(arXiv:1912.08258).  Function indices are composed from a role tag, a retry
generation, and a slot so the builders never collide.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EmptySupport, IndexOutOfRange, KTooLarge, RandomnessExhausted

MASK64 = (1 << 64) - 1
_PRIME61 = (1 << 61) - 1
_FIXED_ONE = 1 << 64

# role tags for function_index composition
ROLE_PROBE = 0  # probe-set functions of the retrieval structures
ROLE_WEIGHT = 1  # per-key row-weight sampler (square structure)
ROLE_SPLIT = 2  # split-and-share chunk splitter
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
    """One member of the simulated fully random family, ``width`` words per key."""

    master_seed: int
    function_index: int
    width: int = 1
    _protos: tuple = field(init=False, repr=False, compare=False)
    _unpack: Callable[[bytes], tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        salt = struct.pack("<QQ", self.master_seed & MASK64, self.function_index & MASK64)
        sizes = [8 * min(8, self.width - first) for first in range(0, self.width, 8)]
        # salting blake2b costs more than copying a salted one, so each call copies these
        protos = tuple(
            hashlib.blake2b(digest_size=size, salt=salt, person=struct.pack("<Q", block))
            for block, size in enumerate(sizes)
        )
        object.__setattr__(self, "_protos", protos)
        object.__setattr__(self, "_unpack", struct.Struct(f"<{self.width}Q").unpack)

    def u64(self, key: bytes) -> int:
        """The key's first word: the one-word draw of a width-1 hasher."""
        h = self._protos[0].copy()
        h.update(key)
        return int.from_bytes(h.digest()[:8], "little")

    def words(self, key: bytes) -> tuple[int, ...]:
        """The key's ``width`` 64-bit words."""
        if len(self._protos) == 1:  # the common case, without the loop of _digest
            h = self._protos[0].copy()
            h.update(key)
            return self._unpack(h.digest())
        return self._unpack(self._digest(key))

    def word_rows(self, keys: Sequence[bytes]) -> np.ndarray:
        """:meth:`words` of every key, as one (len(keys), width) uint64 array."""
        n = len(keys)
        raw = np.fromiter(map(self._digest, keys), dtype=f"V{8 * self.width}", count=n)
        return raw.view("<u8").astype(np.uint64, copy=False).reshape(n, self.width)

    def _digest(self, key: bytes) -> bytes:
        """The key's ``8 * width`` bytes: its digests, in block order."""
        out = b""
        for proto in self._protos:
            h = proto.copy()
            h.update(key)
            out += h.digest()
        return out


def distinct_k_set(words: Sequence[int], k: int, m: int) -> tuple[int, ...]:
    """Ordered sequence of k distinct indices in [m] from a key's first k words.

    Simulates the swap-to-the-back shuffle on a virtual array without
    materializing it: step t draws ``words[t] % (m - t)``, and a small map
    records displaced values, giving expected O(k) time per key.
    """
    if k > m:
        raise KTooLarge(f"k={k} exceeds range m={m}")
    if k < 1:
        raise ValueError("k must be >= 1")
    displaced: dict[int, int] = {}
    out = []
    for step in range(k):
        g = words[step] % (m - step)
        top = m - 1 - step
        out.append(displaced.get(g, g))
        displaced[g] = displaced.get(top, top)
    return tuple(out)


def distinct_k_rows(words: np.ndarray, k: int, m: int) -> np.ndarray:
    """:func:`distinct_k_set` of every row of a uint64 word array at once, as an
    (len(words), k) int64 array.

    The swap-to-the-back shuffle runs on whole columns, replaying the
    displaced-value writes of earlier steps in order so the last write wins;
    the reduction stays exact uint64 arithmetic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(words)
    out = np.empty((n, k), dtype=np.int64)
    if not n:
        return out
    if k > m:
        raise KTooLarge(f"k={k} exceeds range m={m}")
    moved_from = np.empty((n, k - 1), dtype=np.int64)  # step t's draw, a position it swapped out
    moved_to = np.empty((n, k - 1), dtype=np.int64)  # the value step t left there (not the last)
    for step in range(k):
        g = (words[:, step] % np.uint64(m - step)).astype(np.int64)
        got = g
        top = np.full(n, m - 1 - step, dtype=np.int64)
        for t in range(step):
            got = np.where(moved_from[:, t] == g, moved_to[:, t], got)
            top = np.where(moved_from[:, t] == m - 1 - step, moved_to[:, t], top)
        out[:, step] = got
        if step < k - 1:  # no later step reads the last one's swap
            moved_from[:, step] = g
            moved_to[:, step] = top
    return out


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


@dataclass
class SplitShareTables:
    """Splitter + per-chunk universal pairs + shared random tables.

    Shared function j is ``(T0[v0] + T1[v1]) mod t``, with ``tables[j]`` and
    the chunk's pair values on the key digest.  Each pair was accepted only if
    the bipartite multigraph its chunk's digests induce on [r_tab] + [r_tab] is
    acyclic; then the function is fully random on the chunk for every redraw.
    """

    master_seed: int
    num_chunks: int
    r_tab: int
    t: int
    splitter_generation: int
    pairs: list[UniversalPair | None]
    tables: dict[int, tuple[list[int], list[int]]]  # the drawn functions, by position
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
        return self._splitter.u64(key) % self.num_chunks

    def digest(self, key: bytes) -> int:
        return self._base.u64(key)

    def draw_tables(self, positions: Iterable[int]) -> None:
        """Draw the table pairs of the shared functions at ``positions`` not drawn yet,
        each from (master_seed, position, side), so the order of draws does not matter."""
        for j in positions:
            if j in self.tables:
                continue
            pair = []
            for side in (0, 1):
                h = SeededHasher(self.master_seed, fn_index(ROLE_SHARE_TABLE, j + 1, side))
                pair.append([h.u64(struct.pack("<I", v)) % self.t for v in range(self.r_tab)])
            self.tables[j] = (pair[0], pair[1])

    def words(self, chunk: int, digest: int, first: int, count: int) -> list[int]:
        """Shared functions ``first .. first + count - 1`` at the key whose digest
        is ``digest``, under ``chunk``'s pair; each must be drawn."""
        pair = self.pairs[chunk]
        if pair is None:
            pair = _draw_pair(self.master_seed, chunk, 0, self.r_tab)
        v0, v1 = pair.values(digest)
        tables, t = self.tables, self.t
        return [(tables[j][0][v0] + tables[j][1][v1]) % t for j in range(first, first + count)]


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
            splitter_generation=splitter_gen, pairs=[], tables={}, max_chunk=0,
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
    tables.draw_tables(range(L))
    return tables, chunks, digests


def split_share_eval(tables: SplitShareTables, chunk: int, j: int, key: bytes) -> int:
    """Simulated fully random value in [t] for chunk's j-th shared function."""
    return split_share_value(tables, chunk, j, tables.digest(key))


def split_share_value(tables: SplitShareTables, chunk: int, j: int, digest: int) -> int:
    """:func:`split_share_eval` for the key whose ``tables.digest`` is ``digest``."""
    if not 0 <= chunk < tables.num_chunks:
        raise IndexOutOfRange(f"chunk {chunk} out of [0, {tables.num_chunks})")
    if j - 1 not in tables.tables:
        raise IndexOutOfRange(f"shared function {j} is not drawn")
    return tables.words(chunk, digest, j - 1, 1)[0]
