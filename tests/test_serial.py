import struct
import warnings
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorfunc import basic, blocked, compact, filters, phf, serial
from xorfunc.errors import BadCrc, BadMagic, ContainerError, UnsupportedVersion, XorFuncError


def pairs_of(n, tag=b"k"):
    return [(b"%s%d" % (tag, i), (i * 37) % 256 if n > 1 else 200) for i in range(n)]


def build_all_kinds(n):
    """One structure per container kind, sized for quick tests."""
    pairs = pairs_of(n)
    keys = [k for k, _ in pairs]
    small = n < 16
    backend = filters.BackendParams(
        kind="basic", k=2 if small else 3, delta=1.0 if small else 0.25
    )
    built = {
        "basic": basic.build(pairs, r=8, k=2 if small else 3, delta=1.0 if small else 0.25, seed=1),
        "compact": compact.build_compact(pairs, r=8, seed=2),
        "blocked": blocked.build_blocked(pairs, r=8, k=3, eps=0.1, delta=0.3, b=16, seed=3),
        "filter": filters.build_filter(keys, s=8, params=backend, seed=4),
        "bloomier": filters.build_bloomier(pairs, r=8, s=8, params=backend, seed=5),
        "phf": phf.build_phf(keys, k=2 if small else 3, delta=1.0 if small else 0.4, seed=6),
        "mphf": phf.build_mphf(keys, k=2 if small else 3, delta=1.0 if small else 0.4, seed=7),
    }
    return pairs, keys, built


def check_roundtrip(kind, structure, pairs, keys):
    blob = serial.serialize(structure)
    restored = serial.deserialize(blob)
    assert serial.serialize(restored) == blob
    if kind in ("basic",):
        assert basic.verify(restored, pairs)
    elif kind == "compact":
        if isinstance(restored, basic.RetrievalStructure):
            assert basic.verify(restored, pairs)
        else:
            assert all(compact.query_compact(restored, k) == v for k, v in pairs)
    elif kind == "blocked":
        assert blocked.verify_blocked(restored, pairs)
    elif kind == "filter":
        assert all(filters.query_filter(restored, k) for k in keys)
    elif kind == "bloomier":
        assert all(filters.query_bloomier(restored, k) == (True, v) for k, v in pairs)
    elif kind == "phf":
        outs = [phf.eval_phf(restored, k) for k in keys]
        assert len(set(outs)) == len(keys)
    elif kind == "mphf":
        outs = sorted(phf.eval_mphf(restored, k) for k in keys)
        assert outs == list(range(len(keys)))
    return blob


@pytest.mark.parametrize("n", [1, 10, 10_000])
def test_roundtrip_every_kind(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pairs, keys, built = build_all_kinds(n)
    for kind, structure in built.items():
        check_roundtrip(kind, structure, pairs, keys)


def test_split_share_roundtrip():
    pairs = pairs_of(3000, tag=b"ss")
    d = basic.build(pairs, r=8, k=3, delta=0.25, seed=9, split_share=True)
    blob = serial.serialize(d)
    restored = serial.deserialize(blob)
    assert isinstance(restored, basic.SplitShareRetrieval)
    assert basic.verify(restored, pairs)
    assert serial.serialize(restored) == blob


def test_payload_bit_corruption_detected():
    d = basic.build(pairs_of(100), r=8, k=3, delta=0.3, seed=1)
    blob = bytearray(serial.serialize(d))
    blob[60] ^= 0x10  # inside the payload
    with pytest.raises(BadCrc):
        serial.deserialize(bytes(blob))


def test_every_corrupted_byte_is_rejected():
    d = basic.build(pairs_of(40), r=8, k=3, delta=0.4, seed=2)
    blob = serial.serialize(d)
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x01
        with pytest.raises((BadCrc, BadMagic, UnsupportedVersion, ContainerError)):
            serial.deserialize(bytes(corrupted))


def test_bad_magic():
    with pytest.raises(BadMagic):
        serial.deserialize(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        serial.deserialize(b"SD")


def test_truncation_detected():
    d = basic.build(pairs_of(50), r=8, k=3, delta=0.4, seed=3)
    blob = serial.serialize(d)
    for cut in (4, 20, 40, len(blob) - 5):
        with pytest.raises((BadMagic, ContainerError)):
            serial.deserialize(blob[:cut])


def test_unsupported_version():
    d = basic.build(pairs_of(10), r=8, k=3, delta=0.5, seed=4)
    blob = bytearray(serial.serialize(d))
    blob[4] = 9
    with pytest.raises(UnsupportedVersion):
        serial.deserialize(bytes(blob))


def test_entry_bit_packing_is_lsb_first():
    entries = serial.unpack_entries(serial.pack_entries(__import__("numpy").array(
        [0b101, 0b011], dtype="uint64"), 3), 2, 3)
    assert entries.tolist() == [0b101, 0b011]
    # 3-bit entries: stream bits are e0[0..2] then e1[0..2] -> byte 0b011101 = 0x1D
    assert serial.pack_entries(__import__("numpy").array([0b101, 0b011], dtype="uint64"), 3) == b"\x1d"


def _with_backend_code(blob, code):
    """``blob``, a membership filter's container, relabelled to backend ``code``."""
    body = bytearray(blob[:-4])
    body[serial._FIXED_HEADER.size + 8] = code  # after the signature seed
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_filter_backend_code_must_match_the_embedded_kind():
    keys = [k for k, _ in pairs_of(100)]
    basic_blob = serial.serialize(filters.build_filter(keys, s=8, seed=1))
    blocked_blob = serial.serialize(filters.build_filter(keys, s=8, backend_kind="blocked"))
    assert serial.deserialize(_with_backend_code(basic_blob, 1)).backend_kind == "basic"
    for blob, code in ((basic_blob, 3), (basic_blob, 2), (blocked_blob, 1), (blocked_blob, 2)):
        with pytest.raises(ContainerError, match="backend"):
            serial.deserialize(_with_backend_code(blob, code))
    # below 16 keys a compact backend is stored as a basic one, and loads as compact
    small = serial.serialize(filters.build_filter(keys[:10], s=8, backend_kind="compact"))
    assert serial.deserialize(small).backend_kind == "compact"
    assert serial.deserialize(_with_backend_code(small, 1)).backend_kind == "basic"


def fuzz_containers():
    """One small container per kind, split-share and a blocked-backend Bloomier filter."""
    pairs = pairs_of(40, tag=b"fz")
    keys = [k for k, _ in pairs]
    structures = [
        basic.build(pairs, r=8, seed=1),
        basic.build(pairs_of(200, tag=b"fs"), r=8, seed=2, split_share=True),
        compact.build_compact(pairs, r=8, seed=3),
        blocked.build_blocked(pairs, r=8, b=16, seed=4),
        filters.build_filter(keys, s=8, seed=5),
        filters.build_bloomier(
            [(k, v % 16) for k, v in pairs], r=4, s=4, backend_kind="blocked",
            params=filters.BackendParams(kind="blocked", block_size=16), seed=6,
        ),
        phf.build_phf(keys, k=3, delta=0.4, seed=7),
        phf.build_mphf(keys, k=3, delta=0.4, seed=8),
    ]
    return [serial.serialize(s) for s in structures]


FUZZ_BLOBS = fuzz_containers()


@settings(max_examples=400, deadline=None)
@given(
    blob=st.sampled_from(FUZZ_BLOBS),
    edits=st.lists(
        st.tuples(st.integers(0, 199), st.integers(0, 255)), min_size=1, max_size=3
    ),
)
def test_mutated_container_loads_or_raises_container_error(blob, edits):
    body = bytearray(blob[:-4])
    for pos, value in edits:
        body[pos % len(body)] = value
    data = bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    try:
        structure = serial.deserialize(data)
    except ContainerError:
        return
    for key in (b"fz1", b"not a key"):
        try:
            structure.query(key)
        except XorFuncError:
            pass
