"""The three benchmark workloads: inputs from a seed, the build, the query, the checks.

Keys are 8-32 random bytes drawn from a seeded generator.  Bytes ``\\n`` and
``,`` are left out so every key survives the CLI's CSV and binary-lines
formats unchanged.  The library sees only the generated keys and values; its
own hash seed is the fixed ``LIBRARY_SEED``.

Each workload sizes its reads (``verify_calls`` verify passes over all keys,
then its query stream) to take about twice as long as its build, so that
reads are sampled across most of the run rather than in short bursts between
builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import xorfunc

LIBRARY_SEED = 0
KEY_BYTES = np.array([b for b in range(256) if b not in b"\n,"], dtype=np.uint8)

# filter_blocked: criterion-05 backend parameters, s = 8 signature bits
FILTER_S = 8
FILTER_PARAMS = xorfunc.BackendParams(kind="blocked", k=3, delta=0.30, eps=0.10, block_size=64)
# the false-positive count on N non-members must lie within this many binomial
# standard deviations of N * 2^-s (two-sided; a false alarm is below 1e-8)
FP_SIGMAS = 6.0


def random_keys(rng: np.random.Generator, count: int, exclude: frozenset = frozenset()) -> list[bytes]:
    """``count`` distinct keys, none of them in ``exclude``."""
    out: list[bytes] = []
    seen = set(exclude)
    while len(out) < count:
        need = count - len(out)
        lengths = rng.integers(8, 33, size=need)
        raw = KEY_BYTES[rng.integers(0, len(KEY_BYTES), size=int(lengths.sum()))].tobytes()
        ends = np.cumsum(lengths).tolist()
        start = 0
        for end in ends:
            key = raw[start:end]
            start = end
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


@dataclass
class Inputs:
    keys: list[bytes]
    values: list[int] | None  # None for key-only kinds
    queries: list[bytes]
    expected: list  # per query: stored value, membership, or key index
    file_format: str
    file_bytes: bytes


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: str = ""

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes += note + "; "


class RetrievalBasic:
    """Kind 1: n=100,000 key/8-bit value pairs, k=3, delta=0.25; 200,000 member queries."""

    name = "retrieval_basic"
    n = 100_000
    verify_calls = 1
    rounds = 2
    r = 8

    def inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        keys = random_keys(rng, self.n)
        values = rng.integers(0, 1 << self.r, size=self.n).tolist()
        order = np.concatenate([rng.permutation(self.n) for _ in range(self.rounds)]).tolist()
        text = b"\n".join(k + b"," + str(v).encode() for k, v in zip(keys, values))
        return Inputs(
            keys, values, [keys[i] for i in order], [values[i] for i in order], "csv", text
        )

    def build(self, inp: Inputs):
        return xorfunc.build(
            zip(inp.keys, inp.values), r=self.r, k=3, delta=0.25, seed=LIBRARY_SEED
        )

    query = staticmethod(xorfunc.query)

    def check(self, inp: Inputs, answers: list, check: Check) -> None:
        wrong = sum(a != e for a, e in zip(answers, inp.expected))
        check.add(len(answers), wrong, f"{wrong} member queries returned a wrong value")

    def facts(self, s) -> dict:
        return {"build.attempts": s.seed_generation + 1}


class FilterBlocked:
    """Kind 4, s=8, blocked backend at b=64, eps=0.10, delta=0.30; n=100,000.

    The query stream is 10% members and 90% non-members from a disjoint set.
    """

    name = "filter_blocked"
    n = 100_000
    verify_calls = 1
    members = 10_000
    non_members = 90_000

    def inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        keys = random_keys(rng, self.n)
        others = random_keys(rng, self.non_members, exclude=frozenset(keys))
        picked = rng.choice(self.n, size=self.members, replace=False).tolist()
        stream = [(keys[i], True) for i in picked] + [(k, False) for k in others]
        order = rng.permutation(len(stream)).tolist()
        return Inputs(
            keys,
            None,
            [stream[i][0] for i in order],
            [stream[i][1] for i in order],
            "binary-lines",
            b"\n".join(keys),
        )

    def build(self, inp: Inputs):
        return xorfunc.build_filter(
            inp.keys, s=FILTER_S, backend_kind="blocked", params=FILTER_PARAMS, seed=LIBRARY_SEED
        )

    query = staticmethod(xorfunc.query_filter)

    def check(self, inp: Inputs, answers: list, check: Check) -> None:
        false_neg = sum(e and not a for a, e in zip(answers, inp.expected))
        check.add(self.members, false_neg, f"{false_neg} false negatives")
        false_pos = sum(a and not e for a, e in zip(answers, inp.expected))
        low, high = fp_bound(self.non_members, FILTER_S)
        bad = not low <= false_pos <= high
        check.add(self.non_members, 0)
        check.add(1, bad, f"{false_pos} false positives outside [{low:.1f}, {high:.1f}]")

    def facts(self, f) -> dict:
        backend = f.backend
        return {
            "build.attempts": backend.secondary_generation + 1,
            "blocked.overflow_frac": backend.overflow_fraction,
            "blocked.secondary_len": backend.secondary_len,
        }


def fp_bound(trials: int, s: int) -> tuple[float, float]:
    """Binomial(trials, 2^-s) mean +- FP_SIGMAS standard deviations."""
    p = 2.0**-s
    mean = trials * p
    spread = FP_SIGMAS * math.sqrt(trials * p * (1 - p))
    return mean - spread, mean + spread


class MphfDense:
    """Kind 7 at the paper's k=4, delta=0.035; n=10,000 keys, 400,000 member queries."""

    name = "mphf_dense"
    n = 10_000
    verify_calls = 16
    rounds = 40

    def inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        keys = random_keys(rng, self.n)
        order = np.concatenate([rng.permutation(self.n) for _ in range(self.rounds)]).tolist()
        return Inputs(
            keys, None, [keys[i] for i in order], order, "binary-lines", b"\n".join(keys)
        )

    def build(self, inp: Inputs):
        return xorfunc.build_mphf(inp.keys, k=4, delta=0.035, seed=LIBRARY_SEED)

    query = staticmethod(xorfunc.eval_mphf)

    def check(self, inp: Inputs, answers: list, check: Check) -> None:
        slot: dict[int, int] = {}
        unstable = 0
        for a, i in zip(answers, inp.expected):
            unstable += slot.setdefault(i, a) != a
        check.add(len(answers), unstable, f"{unstable} repeated queries changed answer")
        image_ok = sorted(slot.values()) == list(range(self.n))
        check.add(1, not image_ok, "member image is not range(n)")

    def facts(self, mp) -> dict:
        return {"build.attempts": mp.base.seed_generation + 1}


WORKLOADS = {w.name: w for w in (RetrievalBasic(), FilterBlocked(), MphfDense())}
