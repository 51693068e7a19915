"""Zero-redundancy retrieval: table length equals the key count.

Row weights are drawn per key from a binomial conditioned on
[ceil(ln(n)/2), floor(4 ln n)], which keeps the square random matrix regular
with probability near prod(1 - 2^-i) ~ 0.28879 per attempt.  The index of
the successful hash-function set is recorded; everything else about the
structure is the n*r-bit table itself.  A key's k(x) probe words come from
one hasher of width k(x), so ceil(k(x) / 8) digests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .basic import Pair, Retrieval, RetrievalStructure, check_values, normalize_pairs
from .basic import build as build_basic
from .errors import RandomnessExhausted
from .gf2 import solve_xor_system
from .hashing import (
    ROLE_PROBE,
    ROLE_WEIGHT,
    ConditionedBinomialTable,
    SeededHasher,
    build_binomial_table,
    distinct_k_set,
    fn_index,
    sample_conditioned,
)

SMALL_N_CUTOFF = 16


def weight_bounds(n: int) -> tuple[int, int, float]:
    ln_n = math.log(n)
    return math.ceil(ln_n / 2.0), math.floor(4.0 * ln_n), 2.0 * ln_n / n


def default_trial_cap(n: int) -> int:
    return math.ceil(8.0 * math.log(n))


@dataclass(eq=False)
class CompactRetrieval(Retrieval):
    """n-entry table with per-key probe counts k(x) in [lo, hi]."""

    kind = "compact"

    n: int
    r: int
    master_seed: int
    seed_index: int
    binom: ConditionedBinomialTable
    table: np.ndarray
    _weight_hasher: SeededHasher = field(init=False, repr=False)
    _probe_hashers: dict[int, SeededHasher] = field(init=False, repr=False)
    _entries: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._weight_hasher = SeededHasher(
            self.master_seed, fn_index(ROLE_WEIGHT, self.seed_index)
        )
        index = fn_index(ROLE_PROBE, self.seed_index)
        widths = range(self.binom.lo, self.binom.hi + 1)  # the probe counts a key can draw
        self._probe_hashers = {k: SeededHasher(self.master_seed, index, width=k) for k in widths}
        self._entries = memoryview(self.table)

    @property
    def m(self) -> int:
        return self.n

    def probe_count(self, key: bytes) -> int:
        return sample_conditioned(self.binom, key, self._weight_hasher)

    def probes(self, key: bytes) -> tuple[int, ...]:
        k = self.probe_count(key)
        return distinct_k_set(self._probe_hashers[k].words(key), k, self.n)

    @property
    def table_bits(self) -> int:
        return self.n * self.r

    def query(self, key: bytes) -> int:
        """Stored value on construction keys; some r-bit value for any other key."""
        acc = 0
        for j in self.probes(key):
            acc ^= self._entries[j]
        return acc

    def stats(self) -> list[str]:
        return [
            f"seed_index: {self.seed_index}",
            f"probe_range: [{self.binom.lo}, {self.binom.hi}]",
        ]


def build_compact(
    pairs: Iterable[Pair],
    r: int,
    seed: int = 0,
    trial_cap: int | None = None,
) -> "CompactRetrieval | RetrievalStructure":
    """Build the square structure; below 16 keys fall back to the k-probe one.

    Raises RandomnessExhausted after trial_cap singular attempts.
    """
    items = normalize_pairs(pairs)
    n = len(items)
    check_values((v for _, v in items), r)
    if n < SMALL_N_CUTOFF:
        k_fb = 2 if n < 3 else 3
        return build_basic(items, r=r, k=k_fb, delta=1.0, seed=seed)
    lo, hi, p = weight_bounds(n)
    binom = build_binomial_table(n, p, lo, hi)
    cap = default_trial_cap(n) if trial_cap is None else trial_cap
    values = [v for _, v in items]
    for trial in range(cap):
        d = CompactRetrieval(
            n=n, r=r, master_seed=seed, seed_index=trial, binom=binom,
            table=np.zeros(n, dtype=np.uint64),
        )
        rows = [d.probes(key) for key, _ in items]
        solved = solve_xor_system(rows, values, n)
        if solved is not None:
            d.table[:] = solved[0]
            return d
    raise RandomnessExhausted(f"no regular square system within {cap} trials")


query_compact = CompactRetrieval.query
