"""Perfect hashing from full-rank probe systems.

Hopcroft-Karp matches every key to one of its own k probe columns, no two
keys to the same column; any such perfect matching is an injective
placement.  Storing which of its k probes each key was matched to is
itself a retrieval problem over ceil(log2 k)-bit values, solved once; it
succeeds exactly when the probe rows have full rank, and full rank implies
that a perfect matching exists (a regular n x n submatrix has a nonzero
permanent).  Evaluation reads the selector and returns the selected probe.
The minimal variant keeps the increasing list of the m - n slots outside
the image and ranks a slot x as x minus the unused slots below it.  Its
container stores that list as an Elias-Fano list when that is shorter than
one bit per slot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .basic import DEFAULT_RETRY_CAP, check_table_size, normalize_pairs, threshold_warning
from .bitvector import elias_fano_shape
from .errors import RandomnessExhausted
from .filters import LOG2_E  # bits/key that any minimal perfect hash needs as n grows
from .gf2 import solve_xor_system
from .gf2 import system_full_rank  # noqa: F401  perfbench/layertrace.py patches it here
from .hashing import ROLE_PROBE, SeededHasher, distinct_k_rows, distinct_k_set, fn_index

_INF = -1


def selector_width(k: int) -> int:
    """Bits per selector entry: enough to name one of k probes."""
    return max(1, math.ceil(math.log2(k)))


def hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns the matched right vertex per left (-1 if none).

    Each phase layers the left vertices by a breadth-first search from the
    free ones, then grows augmenting paths depth-first on an explicit stack,
    so a path may be as long as the graph without deep recursion.
    """
    n_left = len(adj)
    match_l = [_INF] * n_left
    match_r = [_INF] * n_right
    while True:
        dist = [0 if v == _INF else _INF for v in match_l]
        queue = deque(u for u in range(n_left) if dist[u] == 0)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == _INF:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return match_l
        tried = [0] * n_left  # edges of each left vertex already tried in this phase
        for root in range(n_left):
            if match_l[root] != _INF:
                continue
            path = [root]
            while path:
                u = path[-1]
                if tried[u] == len(adj[u]):
                    dist[u] = _INF  # no augmenting path through u in this phase
                    path.pop()
                    continue
                v = adj[u][tried[u]]
                tried[u] += 1
                w = match_r[v]
                if w == _INF:
                    for x in path:  # each vertex on the path takes the edge it left by
                        y = adj[x][tried[x] - 1]
                        match_l[x] = y
                        match_r[y] = x
                    break
                if dist[w] == dist[u] + 1:
                    path.append(w)


@dataclass(eq=False)
class PerfectHash:
    """Selector table mapping each key to one of its k probe positions."""

    kind = "phf"
    r = 0  # a key's answer is a position, not a stored value

    n: int
    m: int
    k: int
    r_lambda: int
    delta: float
    master_seed: int
    seed_generation: int
    lambda_table: np.ndarray
    pivots: tuple[int, ...] | None = None  # the matched image, sorted; not serialized
    _hasher: SeededHasher = field(init=False, repr=False)
    _selectors: memoryview = field(init=False, repr=False)

    def __post_init__(self) -> None:
        index = fn_index(ROLE_PROBE, self.seed_generation)
        self._hasher = SeededHasher(self.master_seed, index, self.k)
        self._selectors = memoryview(self.lambda_table)

    def probes(self, key: bytes) -> tuple[int, ...]:
        return distinct_k_set(self._hasher.words(key), self.k, self.m)

    def probe_rows(self, keys: Sequence[bytes]) -> np.ndarray:
        """:meth:`probes` of every key, as one (len(keys), k) int array."""
        return distinct_k_rows(self._hasher.word_rows(keys), self.k, self.m)

    @property
    def table_bits(self) -> int:
        return self.m * self.r_lambda

    @property
    def bits_per_key(self) -> float:
        return self.table_bits / self.n if self.n else 0.0

    def query(self, key: bytes) -> int:
        """Injective on construction keys; some position in [m] for any other key."""
        probes = distinct_k_set(self._hasher.words(key), self.k, self.m)
        selector = 0
        for j in probes:
            selector ^= self._selectors[j]
        return probes[selector % self.k]

    def verify(self, pairs: Iterable[tuple[bytes, int]]) -> bool:
        """The keys map to distinct positions in [m]."""
        outs = [self.query(key) for key, _ in pairs]
        return len(set(outs)) == len(outs) and all(0 <= o < self.m for o in outs)

    def stats(self) -> list[str]:
        return [f"k: {self.k}", f"lambda_bits_per_slot: {self.r_lambda}"]


def stored_image_bits(n: int, m: int) -> int:
    """Container bits of an image of n slots out of m.

    The Elias-Fano list of the m - n unused slots, or one bit per slot where
    that list would take m bits or more (m - n above about m / 4).
    """
    low, high = elias_fano_shape(m - n, m)
    return min((m - n) * low + high, m)


@dataclass(eq=False)
class MinimalPerfectHash:
    """A perfect hash composed with rank over its image: a bijection onto [n]."""

    kind = "mphf"
    r = 0

    base: PerfectHash
    unused: list[int]  # the m - n slots outside the image, increasing

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def image_bits(self) -> int:
        """Stored size of the image; see :func:`stored_image_bits`."""
        return stored_image_bits(self.n, self.m)

    @property
    def table_bits(self) -> int:
        return self.base.table_bits + self.image_bits

    @property
    def bits_per_key(self) -> float:
        return self.table_bits / self.n if self.n else 0.0

    def query(self, key: bytes) -> int:
        """The key's slot, less the unused slots below it."""
        slot = self.base.query(key)
        return slot - bisect_left(self.unused, slot)

    def verify(self, pairs: Iterable[tuple[bytes, int]]) -> bool:
        """The keys map onto exactly [0, number of keys)."""
        outs = [self.query(key) for key, _ in pairs]
        return sorted(outs) == list(range(len(outs)))

    def stats(self) -> list[str]:
        return [
            *self.base.stats(),
            f"image_bits: {self.image_bits}",
            f"lower_bound_bits_per_key: {LOG2_E:.4f}",
        ]


def build_phf(
    keys: Iterable[bytes],
    k: int = 4,
    delta: float = 0.10,
    seed: int = 0,
) -> PerfectHash:
    """Injective map from the keys into [ceil((1+delta) n)].

    A generation is kept when its keys match perfectly into their probe
    columns and the selector system solves, i.e. when its rows have full rank.
    """
    items = normalize_pairs((key, 0) for key in keys)
    ordered = [key for key, _ in items]
    n = len(ordered)
    if k < 2:
        raise ValueError("k must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    m = math.ceil((1 + delta) * n)
    check_table_size(n, k, m)
    threshold_warning(k, delta)
    for gen in range(DEFAULT_RETRY_CAP):
        p = PerfectHash(
            n=n, m=m, k=k, r_lambda=selector_width(k), delta=delta, master_seed=seed,
            seed_generation=gen, lambda_table=np.zeros(m, dtype=np.uint64),
        )
        probe_sets = p.probe_rows(ordered).tolist()
        matched = hopcroft_karp(probe_sets, m)
        if _INF in matched:
            continue
        selectors = [row.index(col) for row, col in zip(probe_sets, matched)]
        solved = solve_xor_system(probe_sets, selectors, m)
        if solved is None:
            continue
        p.lambda_table[:] = solved[0]
        p.pivots = tuple(sorted(matched))
        return p
    raise RandomnessExhausted(f"no full-rank system within {DEFAULT_RETRY_CAP} generations")


eval_phf = PerfectHash.query


def build_mphf(
    keys: Iterable[bytes],
    k: int = 4,
    delta: float = 0.10,
    seed: int = 0,
) -> MinimalPerfectHash:
    """Perfect hash composed with rank over its image: a bijection onto [n]."""
    base = build_phf(keys, k=k, delta=delta, seed=seed)
    assert base.pivots is not None
    unused = np.setdiff1d(np.arange(base.m), base.pivots, assume_unique=True).tolist()
    return MinimalPerfectHash(base=base, unused=unused)


eval_mphf = MinimalPerfectHash.query
