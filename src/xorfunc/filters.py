"""Approximate membership and Bloomier filters on top of retrieval backends.

A filter stores an s-bit signature q(x) for every key in any retrieval
backend; a query answers "member" iff the retrieved value equals the query
key's own signature.  Non-members collide with probability 2^-s because the
backend's contents are independent of their signatures.  The Bloomier
variant concatenates an r-bit payload with the signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from . import basic, blocked, compact
from .errors import DomainError
from .hashing import ROLE_SIGNATURE, SeededHasher, fn_index

LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class BackendParams:
    """Knobs forwarded to the chosen retrieval backend."""

    kind: str = "basic"  # basic | compact | blocked
    k: int = 3
    delta: float = 0.25
    eps: float = 0.10
    block_size: int = 64
    split_share: bool = False


def build_backend(pairs, r: int, seed: int, params: BackendParams):
    """The retrieval structure ``params.kind`` names, built over ``pairs``."""
    if params.kind == "basic":
        return basic.build(
            pairs,
            r=r,
            k=params.k,
            delta=params.delta,
            seed=seed,
            split_share=params.split_share,
        )
    if params.kind == "compact":
        return compact.build_compact(pairs, r=r, seed=seed)
    if params.kind == "blocked":
        return blocked.build_blocked(
            pairs,
            r=r,
            k=params.k,
            eps=params.eps,
            delta=params.delta,
            b=params.block_size,
            seed=seed,
        )
    raise ValueError(f"unknown backend kind {params.kind!r}")


@dataclass(eq=False)
class BloomierFilter:
    """Members decode to their r-bit payload; non-members are mostly rejected.

    The backend stores ``payload << s | signature``.  With ``r = 0`` there is
    no payload and this is a membership filter: no false negatives, false
    positives at rate 2^-s, and ``query`` answers a bool instead of a
    ``(found, payload)`` pair.
    """

    r: int
    s: int
    signature_seed: int
    backend_kind: str
    backend: object | None  # None only for a membership filter with s = 0
    _signer: SeededHasher = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._signer = SeededHasher(self.signature_seed, fn_index(ROLE_SIGNATURE))

    @property
    def kind(self) -> str:
        return "bloomier" if self.r else "filter"

    @property
    def n(self) -> int:
        return self.backend.n if self.backend is not None else 0

    @property
    def m(self) -> int:
        return self.backend.m if self.backend is not None else 0

    @property
    def table_bits(self) -> int:
        return self.backend.table_bits if self.backend is not None else 0

    def signature(self, key: bytes) -> int:
        if self.s == 0:
            return 0
        return self._signer.u64(key) & ((1 << self.s) - 1)

    def query(self, key: bytes) -> "bool | tuple[bool, int | None]":
        if self.backend is None:  # s = 0 membership filter: every key is accepted
            return True
        word = self.backend.query(key)
        found = (word & ((1 << self.s) - 1)) == self.signature(key)
        if not self.r:
            return found
        return (True, word >> self.s) if found else (False, None)

    def verify(self, pairs: Iterable[basic.Pair]) -> bool:
        """Every key is accepted, and with a payload it decodes to its value."""
        if not self.r:
            return all(self.query(key) for key, _ in pairs)
        return all(self.query(key) == (True, value) for key, value in pairs)

    def stats(self) -> list[str]:
        if self.r:
            return [
                f"sig_bits: {self.s}",
                f"payload_bits: {self.r}",
                f"backend: {self.backend_kind}",
            ]
        lines = [
            f"sig_bits: {self.s}",
            f"backend: {self.backend_kind}",
            f"fp_rate: {2.0 ** -self.s:.6g}",
        ]
        if self.backend is not None and "split_share: true" in self.backend.stats():
            lines.append("split_share: true")
            lines.append("fp_note: simulated hashing adds O(1/sqrt(n)) to the fp rate")
        return lines


def build_filter(
    keys: Iterable[bytes],
    s: int,
    backend_kind: str | None = None,
    params: BackendParams | None = None,
    seed: int = 0,
) -> BloomierFilter:
    """Store each key's s-bit signature in the chosen backend (a filter with r = 0)."""
    if not 0 <= s <= 64:
        raise ValueError("signature bits s must be in 0..64")
    return _build(((key, 0) for key in keys), 0, s, backend_kind, params, seed)


def build_bloomier(
    pairs: Iterable[basic.Pair],
    r: int,
    s: int,
    backend_kind: str | None = None,
    params: BackendParams | None = None,
    seed: int = 0,
) -> BloomierFilter:
    """Backend stores payload << s | signature, giving lookup plus rejection."""
    if r < 1:
        raise ValueError("payload bits r must be >= 1")
    if not 0 <= s <= 64 - r:
        raise ValueError("need r + s <= 64")
    return _build(pairs, r, s, backend_kind, params, seed)


def _build(
    pairs: Iterable[basic.Pair],
    r: int,
    s: int,
    backend_kind: str | None,
    params: BackendParams | None,
    seed: int,
) -> BloomierFilter:
    """The backend is ``params.kind``; ``backend_kind`` picks it only without
    ``params``.  The signature seed is derived from ``seed`` but differs from
    the backend's, so backend contents stay independent of any signature."""
    if params is None:
        params = BackendParams(kind=backend_kind or "basic")
    elif backend_kind is not None and backend_kind != params.kind:
        raise ValueError(f"backend_kind {backend_kind!r} differs from params.kind {params.kind!r}")
    signature_seed = (seed ^ 0x5157_3143_9E37_79B9) & ((1 << 64) - 1)
    f = BloomierFilter(
        r=r, s=s, signature_seed=signature_seed, backend_kind=params.kind, backend=None
    )
    stored = [(key, (value << s) | f.signature(key)) for key, value in pairs]
    if r + s:  # a membership filter with s = 0 stores nothing
        f.backend = build_backend(stored, r=r + s, seed=seed, params=params)
    return f


query_filter = query_bloomier = BloomierFilter.query


def membership_lower_bound(n: int, epsilon: float, u: int | None = None) -> float:
    """Information-theoretic space floor in bits for approximate membership.

    u = None is the infinite-universe mode n log2(1/eps); a finite universe
    subtracts the explicit (1-eps) n^2 / (eps u + (1-eps) n) * log2(e) term.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        if epsilon == 1.0:
            return 0.0
        raise DomainError("epsilon must be in (0, 1)")
    main = n * math.log2(1.0 / epsilon)
    if u is None:
        return main
    if u <= n:
        raise DomainError("universe must exceed n")
    slack = (1.0 - epsilon) * n * n / (epsilon * u + (1.0 - epsilon) * n)
    return main - slack * LOG2_E


def _log2_bigint(x: int) -> float:
    bits = x.bit_length()
    if bits <= 53:
        return math.log2(x)
    return (bits - 53) + math.log2(x >> (bits - 53))


def counting_lower_bound(n: int, epsilon: float, u: int) -> int:
    """Exact covering-count bound via big-integer binomial coefficients."""
    if n < 1 or u <= n:
        raise DomainError("need u > n >= 1")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must be in (0, 1)")
    covered = math.floor(epsilon * (u - n)) + n
    num = math.comb(u, n)
    den = math.comb(covered, n)
    return math.ceil(_log2_bigint(num) - _log2_bigint(den))


def bloom_comparison(n: int, epsilon: float) -> tuple[float, float, float]:
    """(bloom_bits, retrieval_bits, lower_bound_bits) for the textbook designs."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must be in (0, 1]")
    base = 0.0 if epsilon == 1.0 else n * math.log2(1.0 / epsilon)
    return base * LOG2_E, base, base
