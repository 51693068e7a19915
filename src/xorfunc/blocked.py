"""Blocked retrieval: per-block single-attempt solves plus an overflow structure.

Word 0 of a key's k + 1 primary words picks its block, of expected size b,
and words 1..k its probes there.  Each block owns a segment of
``segment_len = ceil((1 + delta) * b_prime)`` primary columns, where
``b_prime = ceil((1 + eps) * b)``, and gets one solve attempt.  Blocks whose
rows are dependent (always so with more keys than columns) send their keys
to a secondary 3-probe structure.
``b_prime`` only sizes the segment: unlike the paper's ``(1 + eps) b`` cap it
turns no block away, since the segment is reserved whether it is full or not.
The primary stores f(x) XOR f'(x) where f' is the secondary's answer, so a
query is a nonadaptive XOR over k primary probes and 3 secondary probes with
no record of which blocks failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .basic import DEFAULT_RETRY_CAP, Pair, Retrieval, check_values, normalize_pairs
from .basic import threshold_warning
from .errors import KTooLarge, RandomnessExhausted
from .gf2 import reduce_segments, solve_xor_system
from .gf2 import system_full_rank  # noqa: F401  perfbench/layertrace.py patches it here
from .hashing import (
    ROLE_PROBE,
    ROLE_SECONDARY,
    SeededHasher,
    distinct_k_rows,
    distinct_k_set,
    fn_index,
)

SECONDARY_K = 3
SECONDARY_FACTOR = 1.3


def secondary_size(n_prime: int) -> int:
    """Overflow table length; floored so 3 distinct probes always fit."""
    if n_prime == 0:
        return 0
    return max(math.ceil(SECONDARY_FACTOR * n_prime), n_prime + 2)


@dataclass(eq=False)
class BlockedRetrieval(Retrieval):
    kind = "blocked"

    n: int
    r: int
    k: int
    b: int
    eps: float
    delta: float
    m0: int
    b_prime: int
    segment_len: int
    master_seed: int
    secondary_generation: int
    overflow_count: int
    primary: np.ndarray
    secondary: np.ndarray
    _primary_hasher: SeededHasher = field(init=False, repr=False)
    _secondary_hasher: SeededHasher = field(init=False, repr=False)
    _primary_entries: memoryview = field(init=False, repr=False)
    _secondary_entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._primary_hasher = SeededHasher(self.master_seed, fn_index(ROLE_PROBE), self.k + 1)
        self._secondary_hasher = SeededHasher(
            self.master_seed, fn_index(ROLE_SECONDARY, self.secondary_generation), SECONDARY_K
        )
        self._primary_entries = memoryview(self.primary)
        self._secondary_entries = memoryview(self.secondary)

    @property
    def m(self) -> int:
        return int(len(self.primary))

    @property
    def secondary_len(self) -> int:
        return int(len(self.secondary))

    @property
    def overflow_fraction(self) -> float:
        return self.overflow_count / self.n if self.n else 0.0

    @property
    def table_bits(self) -> int:
        return (len(self.primary) + len(self.secondary)) * self.r

    def primary_rows(self, keys: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """Every key's block, as an int array, and its k probes within the
        block's segment, as an (len(keys), k) int array."""
        words = self._primary_hasher.word_rows(keys)
        blocks = (words[:, 0] % np.uint64(self.m0)).astype(np.int64)
        return blocks, distinct_k_rows(words[:, 1:], self.k, self.segment_len)

    def secondary_rows(self, keys: Sequence[bytes]) -> np.ndarray:
        """Every key's probes into the secondary, as an (len(keys), 3) int array."""
        words = self._secondary_hasher.word_rows(keys)
        return distinct_k_rows(words, SECONDARY_K, self.secondary_len)

    def query(self, key: bytes) -> int:
        """XOR of k probes in the key's segment and 3 probes in the secondary."""
        words = self._primary_hasher.words(key)
        base = words[0] % self.m0 * self.segment_len
        acc = 0
        for j in distinct_k_set(words[1:], self.k, self.segment_len):
            acc ^= self._primary_entries[base + j]
        if self.secondary_len:
            words = self._secondary_hasher.words(key)
            for j in distinct_k_set(words, SECONDARY_K, self.secondary_len):
                acc ^= self._secondary_entries[j]
        return acc

    def stats(self) -> list[str]:
        return [
            f"k: {self.k}",
            f"blocks: {self.m0}",
            f"segment_len: {self.segment_len}",
            f"overflow_fraction: {self.overflow_fraction:.4f}",
            f"secondary_len: {self.secondary_len}",
        ]


def build_blocked(
    pairs: Iterable[Pair],
    r: int,
    k: int = 3,
    eps: float = 0.10,
    delta: float = 0.30,
    b: int = 64,
    seed: int = 0,
) -> BlockedRetrieval:
    """Single-pass block solves; the secondary retries until it solves.

    Every block is attempted; it overflows to the secondary only when its
    rows are singular, as they always are with more keys than its
    ``segment_len`` columns.  ``b_prime`` only sizes the segment, it is no
    admission cap.  The blocks are reduced together, as segments of one
    system in primary columns, and solved once the secondary is known; a
    singular block's columns stay zero.
    """
    items = normalize_pairs(pairs)
    n = len(items)
    if n == 0:
        raise ValueError("need at least one pair")
    if b < 8:
        raise ValueError("block size b must be >= 8")
    check_values((v for _, v in items), r)
    threshold_warning(k, delta)

    b_prime = math.ceil((1 + eps) * b)
    segment_len = math.ceil((1 + delta) * b_prime)
    if k > segment_len:
        raise KTooLarge(f"k={k} exceeds segment length {segment_len}")
    m0 = math.ceil(n / b)

    d = BlockedRetrieval(
        n=n, r=r, k=k, b=b, eps=eps, delta=delta, m0=m0, b_prime=b_prime,
        segment_len=segment_len, master_seed=seed, secondary_generation=0, overflow_count=0,
        primary=np.zeros(m0 * segment_len, dtype=np.uint64),
        secondary=np.zeros(0, dtype=np.uint64),
    )
    keys = [key for key, _ in items]
    values = np.array([v for _, v in items], dtype=np.uint64)
    block, probes = d.primary_rows(keys)
    sizes = np.bincount(block, minlength=m0)
    by_block = np.argsort(block, kind="stable")  # key positions block by block, in key order
    rows = probes[by_block] + (block[by_block] * segment_len)[:, None]  # to primary columns
    del probes
    reduction = reduce_segments(rows, len(d.primary), np.concatenate(([0], np.cumsum(sizes))))
    kept = ~np.isin(block[by_block], reduction.failed)  # a failed block's values go unused
    overflow = by_block[~kept].tolist()

    n_prime = len(overflow)
    if n_prime:
        over_keys = [keys[i] for i in overflow]
        sec_len = secondary_size(n_prime)
        for sec_gen in range(DEFAULT_RETRY_CAP):
            d = replace(
                d, secondary_generation=sec_gen, overflow_count=n_prime,
                secondary=np.zeros(sec_len, dtype=np.uint64),
            )
            rows = d.secondary_rows(over_keys)
            solved = solve_xor_system(rows, values[overflow].tolist(), sec_len)
            if solved is not None:
                d.secondary[:] = solved[0]
                break
        else:
            raise RandomnessExhausted(
                f"secondary structure failed {DEFAULT_RETRY_CAP} generations (n'={n_prime})"
            )

    stored = values[by_block]  # f XOR f', where f' is the secondary's answer
    if n_prime:
        sec = d.secondary_rows([keys[i] for i in by_block[kept]])
        stored[kept] ^= np.bitwise_xor.reduce(d.secondary[sec], axis=1)
    d.primary[:] = reduction.solve(stored)
    return d


query_blocked = BlockedRetrieval.query
verify_blocked = BlockedRetrieval.verify


def probe_plan(d: BlockedRetrieval, key: bytes) -> tuple[int, ...]:
    """Absolute offsets into the concatenated primary+secondary table.

    The plan is a pure function of seeds and key, so all lookups can issue in
    parallel.  With an empty secondary only the k primary offsets exist.  It
    comes from the batch rows, so :func:`gather_query` checks them against
    the per-key :meth:`BlockedRetrieval.query`.
    """
    blocks, probes = d.primary_rows([key])
    plan = (probes[0] + blocks[0] * d.segment_len).tolist()
    if d.secondary_len:
        plan += (d.secondary_rows([key])[0] + d.m).tolist()
    return tuple(plan)


def gather_query(d: BlockedRetrieval, key: bytes, table: np.ndarray | None = None) -> int:
    """Evaluate by XOR-gathering over the probe plan (query equivalence check)."""
    if table is None:
        table = np.concatenate([d.primary, d.secondary]) if d.secondary_len else d.primary
    acc = 0
    for off in probe_plan(d, key):
        acc ^= int(table[off])
    return acc
