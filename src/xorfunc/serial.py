"""Binary container format for every structure kind.

Layout (all little-endian):

    magic "SDR1" | version u8 | kind u8 | k u8 | r u8 | reserved u8
    n u64 | m u64 | master_seed u64 | seed_generation u32
    kind_specific_len u32 | kind_specific bytes
    payload_len_bits u64 | payload (entries bit-packed LSB-first, contiguous)
    crc32 u32 over everything preceding

Kind codes are positions in ``KINDS`` plus one: 1 basic retrieval,
2 compact, 3 blocked, 4 membership filter, 5 Bloomier filter, 6 perfect
hash, 7 minimal perfect hash.  Filters embed their backend's whole container
in the kind-specific block.  Derived data (binomial tables, shared hash
tables) is rebuilt on load.

Each kind is read at exactly one version byte: 2 for kinds 1-6, 3 for kind
7.  The earlier bytes (1, and 2 for kind 7) hashed each probe with its own
keyed blake2b call, not one salted digest per key and role (see
:mod:`xorfunc.hashing`), so they raise ``UnsupportedVersion``.  Kind 7's
payload is the selector table, then the Elias-Fano list of the c = m - n
slots outside the image (Vigna, arXiv:1206.4300): c low parts of
l = floor(log2(m / c)) bits, then c + ((m - 1) >> l) + 1 high bits, where
the i-th value sets bit (value >> l) + i.  An empty list takes no bits.
Where the list would take m bits or more (c above about m / 4), the image
is one bit per slot.

Each kind has one encoder and one decoder.  A decoder checks every count it
reads against the payload length and the kind-specific length before it
allocates or hashes anything, so a malformed container ends as
``ContainerError``.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from . import basic, blocked, compact, filters, phf
from .basic import DEFAULT_RETRY_CAP, SPLIT_SHARE_T
from .bitvector import elias_fano_shape
from .errors import BadCrc, BadMagic, ContainerError, EmptySupport, UnsupportedVersion
from .hashing import (
    MAX_GENERATION,
    SPLIT_SHARE_ATTEMPTS,
    SplitShareTables,
    UniversalPair,
    build_binomial_table,
    default_chunk_count,
    default_table_size,
)

MAGIC = b"SDR1"
VERSION = 2
KIND_VERSIONS = {7: 3}  # kind code -> version byte, where it is not VERSION

_FIXED_HEADER = struct.Struct("<4sBBBBBQQQII")


class _Header(NamedTuple):
    """Fixed-header fields a decoder reads."""

    k: int
    r: int
    n: int
    m: int
    seed: int
    generation: int


def _entry_bits(entries: np.ndarray, r: int) -> np.ndarray:
    """One uint8 per bit: each r-bit entry LSB-first, entries in order."""
    shifts = np.arange(r, dtype=np.uint64)
    planes = (entries.astype(np.uint64)[:, None] >> shifts[None, :]) & np.uint64(1)
    return planes.astype(np.uint8).reshape(-1)


def _entries(bits: np.ndarray, n: int, r: int) -> np.ndarray:
    """Inverse of :func:`_entry_bits` over the first n*r bits."""
    if n == 0 or r == 0:
        return np.zeros(n, dtype=np.uint64)
    planes = bits[: n * r].reshape(n, r).astype(np.uint64)
    return np.bitwise_or.reduce(planes << np.arange(r, dtype=np.uint64)[None, :], axis=1)


def pack_entries(entries: np.ndarray, r: int) -> bytes:
    """Bit-pack r-bit entries LSB-first with no per-entry padding."""
    return np.packbits(_entry_bits(entries, r), bitorder="little").tobytes()


def unpack_entries(buf: bytes, n: int, r: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=n * r, bitorder="little")
    return _entries(bits, n, r)


def _container(kind: str, h: _Header, kind_specific: bytes, payload_bits: np.ndarray) -> bytes:
    code = KINDS.index(kind) + 1
    seed = h.seed & ((1 << 64) - 1)
    version = KIND_VERSIONS.get(code, VERSION)
    head = _FIXED_HEADER.pack(
        MAGIC, version, code, h.k, h.r, 0, h.n, h.m, seed, h.generation, len(kind_specific)
    )
    payload = np.packbits(payload_bits, bitorder="little").tobytes()
    body = head + kind_specific + struct.pack("<Q", len(payload_bits)) + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _unpack(fmt: str, buf: bytes, offset: int = 0) -> tuple:
    try:
        return struct.unpack_from(fmt, buf, offset)
    except struct.error as exc:
        raise ContainerError(f"kind-specific block too short: {exc}") from exc


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ContainerError(f"inconsistent container: {what}")


def _check_table(h: _Header, bits: np.ndarray, entries: int) -> None:
    """Entries of 1..64 bits, and exactly as many payload bits as they take."""
    _require(1 <= h.r <= 64, f"entry width r={h.r}")
    _require(len(bits) == entries * h.r, "payload length does not match the table size")


def _check_probes(h: _Header) -> None:
    """A build of n keys over m columns draws 2 <= k <= m distinct probes per key."""
    _require(h.n <= h.m, f"n={h.n} keys over m={h.m} columns")
    _require(h.k >= 2 and (h.n == 0 or h.k <= h.m), f"k={h.k} probes over m={h.m} columns")


# -- basic retrieval (kind 1) -------------------------------------------------

_SPLIT_HEAD = "<IIQII"
_SPLIT_CHUNK = "<IIQQQQ"


def _encode_basic(d: basic.RetrievalStructure) -> bytes:
    ks = struct.pack("<dB", d.delta, 0)
    h = _Header(d.k, d.r, d.n, d.m, d.master_seed, d.seed_generation)
    return _container("basic", h, ks, _entry_bits(d.table, d.r))


def _encode_split_share(d: basic.SplitShareRetrieval) -> bytes:
    prov = d.provider
    ks = struct.pack("<dB", d.delta, 1)
    ks += struct.pack(
        _SPLIT_HEAD, prov.num_chunks, prov.r_tab, prov.t, prov.splitter_generation, prov.max_chunk
    )
    for ci in range(prov.num_chunks):
        seg_len = int(d.chunk_offsets[ci + 1] - d.chunk_offsets[ci])
        pair = prov.pairs[ci]
        a0, b0, a1, b1 = (pair.a0, pair.b0, pair.a1, pair.b1) if pair else (0, 0, 0, 0)
        ks += struct.pack(_SPLIT_CHUNK, seg_len, d.chunk_generations[ci], a0, b0, a1, b1)
    h = _Header(d.k, d.r, d.n, d.m, d.master_seed, d.seed_generation)
    return _container("basic", h, ks, _entry_bits(d.table, d.r))


def _decode_basic(h: _Header, ks: bytes, bits: np.ndarray):
    delta, split_flag = _unpack("<dB", ks)
    _require(split_flag in (0, 1), f"split-share flag {split_flag}")
    _check_probes(h)
    _check_table(h, bits, h.m)
    if not split_flag:
        _require(len(ks) == struct.calcsize("<dB"), "kind-specific length")
        return basic.RetrievalStructure(
            n=h.n, m=h.m, k=h.k, r=h.r, delta=delta, master_seed=h.seed,
            seed_generation=h.generation, table=_entries(bits, h.m, h.r),
        )
    off = struct.calcsize("<dB")
    num_chunks, r_tab, t, splitter_gen, max_chunk = _unpack(_SPLIT_HEAD, ks, off)
    off += struct.calcsize(_SPLIT_HEAD)
    chunk_size = struct.calcsize(_SPLIT_CHUNK)
    _require(len(ks) == off + num_chunks * chunk_size, "kind-specific length")
    # the builder derives these from n; checking them bounds the shared tables
    _require(num_chunks == default_chunk_count(h.n), "chunk count")
    _require(r_tab == default_table_size(h.n), "shared table size")
    _require(t == SPLIT_SHARE_T and splitter_gen < SPLIT_SHARE_ATTEMPTS, "splitter parameters")
    seg_lens, gens, pairs = [], [], []
    for _ in range(num_chunks):
        seg_len, gen, a0, b0, a1, b1 = _unpack(_SPLIT_CHUNK, ks, off)
        off += chunk_size
        _require(seg_len == 0 or seg_len >= h.k, "segment shorter than k")
        _require(gen < DEFAULT_RETRY_CAP, f"chunk generation {gen}")
        seg_lens.append(seg_len)
        gens.append(gen)
        pairs.append(UniversalPair(a0, b0, a1, b1, r_tab) if a0 else None)
    _require(sum(seg_lens) == h.m, "segment lengths do not add up to m")
    _require(h.generation == max(gens, default=0), "seed generation")
    provider = SplitShareTables(
        master_seed=h.seed,
        num_chunks=num_chunks,
        r_tab=r_tab,
        t=t,
        splitter_generation=splitter_gen,
        pairs=pairs,
        tables={},
        max_chunk=max_chunk,
    )
    offsets = np.concatenate(([0], np.cumsum(seg_lens))).astype(np.int64)
    return basic.SplitShareRetrieval(
        n=h.n, k=h.k, r=h.r, delta=delta, master_seed=h.seed, provider=provider,
        chunk_generations=gens, chunk_offsets=offsets, table=_entries(bits, h.m, h.r),
    )


# -- compact retrieval (kind 2) -----------------------------------------------


def _encode_compact(d: compact.CompactRetrieval) -> bytes:
    ks = struct.pack("<IId", d.binom.lo, d.binom.hi, d.binom.p)
    h = _Header(0, d.r, d.n, d.n, d.master_seed, d.seed_index)
    return _container("compact", h, ks, _entry_bits(d.table, d.r))


def _decode_compact(h: _Header, ks: bytes, bits: np.ndarray):
    _require(len(ks) == struct.calcsize("<IId"), "kind-specific length")
    lo, hi, p = _unpack("<IId", ks)
    _require(h.m == h.n >= compact.SMALL_N_CUTOFF, f"square table of n={h.n}, m={h.m}")
    _check_table(h, bits, h.n)
    _require((lo, hi) == compact.weight_bounds(h.n)[:2] and 0.0 < p < 1.0, "weight range")
    try:
        binom = build_binomial_table(h.n, p, lo, hi)
    except EmptySupport as exc:
        raise ContainerError(f"inconsistent container: {exc}") from exc
    return compact.CompactRetrieval(
        n=h.n, r=h.r, master_seed=h.seed, seed_index=h.generation, binom=binom,
        table=_entries(bits, h.n, h.r),
    )


# -- blocked retrieval (kind 3) -----------------------------------------------

_BLOCKED = "<IIIQddQQI"


def _encode_blocked(d: blocked.BlockedRetrieval) -> bytes:
    ks = struct.pack(
        _BLOCKED, d.b, d.b_prime, d.segment_len, d.m0, d.eps, d.delta, d.overflow_count,
        d.secondary_len, d.secondary_generation,
    )
    entries = np.concatenate([d.primary, d.secondary])
    h = _Header(d.k, d.r, d.n, d.m, d.master_seed, 0)
    return _container("blocked", h, ks, _entry_bits(entries, d.r))


def _decode_blocked(h: _Header, ks: bytes, bits: np.ndarray):
    _require(len(ks) == struct.calcsize(_BLOCKED), "kind-specific length")
    b, b_prime, seg_len, m0, eps, delta, n_prime, sec_len, sec_gen = _unpack(_BLOCKED, ks)
    _require(m0 >= 1 and h.m == m0 * seg_len, f"m={h.m} over {m0} segments of {seg_len}")
    _require(1 <= h.k <= seg_len, f"k={h.k} probes over a segment of {seg_len}")
    _require(n_prime <= h.n, "more overflow keys than keys")
    _require(sec_len == blocked.secondary_size(n_prime), "secondary length")
    _require(sec_gen < DEFAULT_RETRY_CAP, f"secondary generation {sec_gen}")
    _check_table(h, bits, h.m + sec_len)
    entries = _entries(bits, h.m + sec_len, h.r)
    return blocked.BlockedRetrieval(
        n=h.n, r=h.r, k=h.k, b=b, eps=eps, delta=delta, m0=m0, b_prime=b_prime,
        segment_len=seg_len, master_seed=h.seed, secondary_generation=sec_gen,
        overflow_count=n_prime, primary=entries[: h.m], secondary=entries[h.m :],
    )


# -- membership and Bloomier filters (kinds 4 and 5) --------------------------


def _encode_filter(f: filters.BloomierFilter) -> bytes:
    """Kind 4 stores s in the header's r; kind 5 stores r there and s in its block.

    The backend code is the backend's kind code, or 0 for no backend.
    """
    if f.backend is None:
        code, blob, seed = 0, b"", 0
    else:
        code = KINDS.index(f.backend_kind) + 1
        blob, seed = serialize(f.backend), f.backend.master_seed
    if f.r:
        ks, r = struct.pack("<QBB", f.signature_seed, f.s, code), f.r
    else:
        ks, r = struct.pack("<QB", f.signature_seed, code), f.s
    h = _Header(0, r, f.n, f.m, seed, 0)
    return _container(f.kind, h, ks + blob, np.zeros(0, np.uint8))


def _backend(code: int, blob: bytes, r: int) -> tuple[str, object | None]:
    """Backend name and decoded backend of r-bit entries; never another filter."""
    if code == 0:
        _require(not blob and r == 0, "an empty filter with a backend")
        return "none", None
    _require(code <= 3 and len(blob) > 5, "backend is not a retrieval kind")
    fallback = code == 2 and blob[5] == 1  # compact builds a basic backend for n < 16
    _require(blob[5] == code or fallback, "backend code differs from the embedded kind")
    backend = deserialize(blob)
    _require(backend.r == r, "backend width differs from the filter's")
    _require(not fallback or backend.n < compact.SMALL_N_CUTOFF, "basic backend coded compact")
    return KINDS[code - 1], backend


def _decode_filter(h: _Header, ks: bytes, bits: np.ndarray):
    sig_seed, code = _unpack("<QB", ks)
    _require(len(bits) == 0, "filter with a payload")
    kind, backend = _backend(code, ks[struct.calcsize("<QB") :], h.r)
    return filters.BloomierFilter(
        r=0, s=h.r, signature_seed=sig_seed, backend_kind=kind, backend=backend
    )


def _decode_bloomier(h: _Header, ks: bytes, bits: np.ndarray):
    sig_seed, s, code = _unpack("<QBB", ks)
    _require(h.r >= 1 and len(bits) == 0, "Bloomier header")
    kind, backend = _backend(code, ks[struct.calcsize("<QBB") :], h.r + s)
    return filters.BloomierFilter(
        r=h.r, s=s, signature_seed=sig_seed, backend_kind=kind, backend=backend
    )


# -- perfect hashes (kinds 6 and 7) -------------------------------------------


def _phf_header(p: phf.PerfectHash) -> _Header:
    return _Header(p.k, p.r_lambda, p.n, p.m, p.master_seed, p.seed_generation)


def _encode_phf(p: phf.PerfectHash) -> bytes:
    ks = struct.pack("<d", p.delta)
    return _container("phf", _phf_header(p), ks, _entry_bits(p.lambda_table, p.r_lambda))


def _encode_mphf(mp: phf.MinimalPerfectHash) -> bytes:
    """The selector entries, then the image (see :func:`phf.stored_image_bits`)."""
    p = mp.base
    unused = np.array(mp.unused, dtype=np.int64)
    if mp.image_bits < p.m:
        image = slot_list_bits(unused, p.m)
    else:
        image = np.ones(p.m, dtype=np.uint8)
        image[unused] = 0
    stream = np.concatenate([_entry_bits(p.lambda_table, p.r_lambda), image])
    return _container("mphf", _phf_header(p), struct.pack("<d", p.delta), stream)


def slot_list_bits(values: np.ndarray, m: int) -> np.ndarray:
    """Strictly increasing values below m as c low parts, then the high bits."""
    low, high_len = elias_fano_shape(len(values), m)
    values = values.astype(np.int64)
    high = np.zeros(high_len, dtype=np.uint8)
    high[(values >> low) + np.arange(len(values))] = 1
    return np.concatenate([_entry_bits(values & ((1 << low) - 1), low), high])


def slot_list(bits: np.ndarray, c: int, m: int) -> np.ndarray:
    """Inverse of :func:`slot_list_bits`; the caller has checked that ``bits``
    is exactly as long as a list of c values below m.

    Raises ``ContainerError`` unless the high part has exactly c ones and
    the values rise strictly and stay below m.
    """
    low = elias_fano_shape(c, m)[0]
    ones = np.flatnonzero(bits[c * low :])
    _require(len(ones) == c, "slot list count")
    values = ((ones - np.arange(c)) << low) | _entries(bits, c, low).astype(np.int64)
    _require(bool(np.all(np.diff(values) > 0)), "slot list is not increasing")
    _require(c == 0 or int(values[-1]) < m, "slot list value beyond m")
    return values


def _perfect_hash(h: _Header, ks: bytes, bits: np.ndarray, image_bits: int) -> phf.PerfectHash:
    """The selector table of kinds 6 and 7; ``image_bits`` follow it in the payload."""
    _require(len(ks) == struct.calcsize("<d"), "kind-specific length")
    (delta,) = _unpack("<d", ks)
    _require(h.r == phf.selector_width(h.k), f"selector width {h.r} for k={h.k}")
    _require(len(bits) == h.m * h.r + image_bits, "payload length does not match the table size")
    return phf.PerfectHash(
        n=h.n, m=h.m, k=h.k, r_lambda=h.r, delta=delta, master_seed=h.seed,
        seed_generation=h.generation, lambda_table=_entries(bits, h.m, h.r), pivots=None,
    )


def _decode_phf(h: _Header, ks: bytes, bits: np.ndarray):
    _check_probes(h)
    return _perfect_hash(h, ks, bits, 0)


def _decode_mphf(h: _Header, ks: bytes, bits: np.ndarray):
    _check_probes(h)
    stored = phf.stored_image_bits(h.n, h.m)
    base = _perfect_hash(h, ks, bits, stored)
    image = bits[h.m * h.r :]
    if stored < h.m:
        unused = slot_list(image, h.m - h.n, h.m)
    else:
        unused = np.flatnonzero(image == 0)
        _require(len(unused) == h.m - h.n, "image size differs from n")
    return phf.MinimalPerfectHash(base=base, unused=unused.tolist())


_ENCODERS = {
    basic.RetrievalStructure: _encode_basic,
    basic.SplitShareRetrieval: _encode_split_share,
    compact.CompactRetrieval: _encode_compact,
    blocked.BlockedRetrieval: _encode_blocked,
    filters.BloomierFilter: _encode_filter,
    phf.PerfectHash: _encode_phf,
    phf.MinimalPerfectHash: _encode_mphf,
}

# in kind-code order; the CLI's --kind choices are the same names
_DECODERS = {
    "basic": _decode_basic,
    "compact": _decode_compact,
    "blocked": _decode_blocked,
    "filter": _decode_filter,
    "bloomier": _decode_bloomier,
    "phf": _decode_phf,
    "mphf": _decode_mphf,
}
KINDS = tuple(_DECODERS)


def serialize(structure) -> bytes:
    encode = _ENCODERS.get(type(structure))
    if encode is None:
        raise TypeError(f"cannot serialize {type(structure).__name__}")
    return encode(structure)


def deserialize(data: bytes):
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic("missing SDR1 magic")
    if len(data) < _FIXED_HEADER.size:
        raise ContainerError("truncated header")
    _, version, kind, k, r, _, n, m, seed, gen, ks_len = _FIXED_HEADER.unpack_from(data)
    if version != KIND_VERSIONS.get(kind, VERSION):
        raise UnsupportedVersion(f"version {version} of kind {kind}")
    pos = _FIXED_HEADER.size
    if len(data) < pos + ks_len + 8 + 4:
        raise ContainerError("truncated container")
    ks = data[pos : pos + ks_len]
    pos += ks_len
    (payload_bits,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    payload_bytes = (payload_bits + 7) // 8
    if len(data) != pos + payload_bytes + 4:
        raise ContainerError("container length mismatch")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if crc_stored != (zlib.crc32(data[:-4]) & 0xFFFFFFFF):
        raise BadCrc("checksum mismatch")
    if not 1 <= kind <= len(KINDS):
        raise ContainerError(f"unknown kind {kind}")
    _require(gen < MAX_GENERATION, f"seed generation {gen}")
    payload = np.frombuffer(data, dtype=np.uint8, count=payload_bytes, offset=pos)
    bits = np.unpackbits(payload, count=payload_bits, bitorder="little")
    return _DECODERS[KINDS[kind - 1]](_Header(k, r, n, m, seed, gen), ks, bits)
