"""Blocked retrieval: per-block single-attempt solves plus an overflow structure.

Keys are split into blocks of expected size b.  Each block owns a segment of
``segment_len = ceil((1 + delta) * b_prime)`` primary columns, where
``b_prime = ceil((1 + eps) * b)``, and gets one solve attempt when its key
count fits the segment.  Blocks whose rows are dependent (always so with more
keys than columns) send their keys to a secondary 3-probe structure.
``b_prime`` only sizes the segment: unlike the paper's ``(1 + eps) b`` cap it
turns no block away, since the segment is reserved whether it is full or not.
The primary stores f(x) XOR f'(x) where f' is the secondary's answer, so a
query is a nonadaptive XOR over k primary probes and 3 secondary probes with
no record of which blocks failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .basic import DEFAULT_RETRY_CAP, Pair, Retrieval, check_values, normalize_pairs
from .basic import threshold_warning
from .errors import KTooLarge, RandomnessExhausted
from .gf2 import XorReduction, reduce_xor_system, solve_xor_system
from .gf2 import system_full_rank  # noqa: F401  perfbench/layertrace.py patches it here
from .hashing import (
    ROLE_PROBE,
    ROLE_SECONDARY,
    ROLE_SPLIT,
    SeededHasher,
    distinct_k_set,
    fn_index,
    probe_hashers,
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
    _splitter: SeededHasher = field(init=False, repr=False)
    _primary_hashers: list[SeededHasher] = field(init=False, repr=False)
    _secondary_hashers: list[SeededHasher] = field(init=False, repr=False)
    _primary_entries: memoryview = field(init=False, repr=False)
    _secondary_entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._splitter = SeededHasher(self.master_seed, fn_index(ROLE_SPLIT))
        self._primary_hashers = probe_hashers(self.master_seed, ROLE_PROBE, 0, self.k)
        self._secondary_hashers = probe_hashers(
            self.master_seed, ROLE_SECONDARY, self.secondary_generation, SECONDARY_K
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

    def block_of(self, key: bytes) -> int:
        return self._splitter.hash_to_range(key, self.m0)

    def query(self, key: bytes) -> int:
        """XOR of k probes in the key's segment and 3 probes in the secondary."""
        base = self.block_of(key) * self.segment_len
        acc = 0
        for j in distinct_k_set(key, self.k, self.segment_len, self._primary_hashers):
            acc ^= self._primary_entries[base + j]
        if self.secondary_len:
            for j in distinct_k_set(key, SECONDARY_K, self.secondary_len, self._secondary_hashers):
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

    A block is attempted when its key count fits its ``segment_len`` columns;
    it overflows to the secondary only when its rows are singular.
    ``b_prime`` only sizes the segment, it is no admission cap.  Each block
    is peeled and eliminated once: the reduction made by the rank check is
    reused to solve the block once the secondary is known.
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
    blocks: list[list[Pair]] = [[] for _ in range(m0)]
    for item in items:
        blocks[d.block_of(item[0])].append(item)

    overflow: list[Pair] = []
    reductions: list[XorReduction | None] = []
    for bi, members in enumerate(blocks):
        reduction = None
        # more rows than segment columns can never have full rank
        if members and len(members) <= segment_len:
            rows = [distinct_k_set(key, k, segment_len, d._primary_hashers) for key, _ in members]
            reduction = reduce_xor_system(rows, segment_len)
        if reduction is None:
            overflow.extend(members)
        reductions.append(reduction)

    n_prime = len(overflow)
    if n_prime:
        sec_len = secondary_size(n_prime)
        for sec_gen in range(DEFAULT_RETRY_CAP):
            d = replace(
                d, secondary_generation=sec_gen, overflow_count=n_prime,
                secondary=np.zeros(sec_len, dtype=np.uint64),
            )
            rows = [
                distinct_k_set(key, SECONDARY_K, sec_len, d._secondary_hashers)
                for key, _ in overflow
            ]
            solved = solve_xor_system(rows, [v for _, v in overflow], sec_len)
            if solved is not None:
                d.secondary[:] = solved[0]
                break
        else:
            raise RandomnessExhausted(
                f"secondary structure failed {DEFAULT_RETRY_CAP} generations (n'={n_prime})"
            )

    def f_prime(key: bytes) -> int:
        if not n_prime:
            return 0
        acc = 0
        for j in distinct_k_set(key, SECONDARY_K, d.secondary_len, d._secondary_hashers):
            acc ^= d._secondary_entries[j]
        return acc

    for bi, members in enumerate(blocks):
        reduction = reductions[bi]
        if reduction is None:  # empty or failed block: segment stays all-zero
            continue
        base = bi * segment_len
        d.primary[base : base + segment_len] = reduction.solve(
            [value ^ f_prime(key) for key, value in members]
        )
    return d


query_blocked = BlockedRetrieval.query
verify_blocked = BlockedRetrieval.verify


def probe_plan(d: BlockedRetrieval, key: bytes) -> tuple[int, ...]:
    """Absolute offsets into the concatenated primary+secondary table.

    The plan is a pure function of seeds and key, so all lookups can issue in
    parallel.  With an empty secondary only the k primary offsets exist.
    """
    base = d.block_of(key) * d.segment_len
    plan = [base + j for j in distinct_k_set(key, d.k, d.segment_len, d._primary_hashers)]
    if d.secondary_len:
        shift = d.m0 * d.segment_len
        plan.extend(
            shift + j
            for j in distinct_k_set(key, SECONDARY_K, d.secondary_len, d._secondary_hashers)
        )
    return tuple(plan)


def gather_query(d: BlockedRetrieval, key: bytes, table: np.ndarray | None = None) -> int:
    """Evaluate by XOR-gathering over the probe plan (query equivalence check)."""
    if table is None:
        table = np.concatenate([d.primary, d.secondary]) if d.secondary_len else d.primary
    acc = 0
    for off in probe_plan(d, key):
        acc ^= int(table[off])
    return acc
