import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorfunc import basic, blocked, compact, filters, hashing, phf, serial
from xorfunc.bitvector import elias_fano_shape
from xorfunc.cli import EXIT_DATA, main
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


@pytest.mark.parametrize("k", [16, 64])
def test_split_share_load_draws_only_the_generations_its_chunks_use(k):
    """One chunk of all n = 1,000 columns at generation 63, every other chunk
    empty: the decoder draws that generation's k shared tables, not 64 k."""
    n, r, gen, chunk = 1000, 8, 63, 0
    num_chunks = hashing.default_chunk_count(n)
    ks = struct.pack("<dB", 0.25, 1) + struct.pack(
        serial._SPLIT_HEAD, num_chunks, hashing.default_table_size(n), basic.SPLIT_SHARE_T, 0, n
    )
    for ci in range(num_chunks):
        record = (n, gen, 1, 2, 3, 4) if ci == chunk else (0,) * 6
        ks += struct.pack(serial._SPLIT_CHUNK, *record)
    payload = np.random.default_rng(k).integers(0, 2, n * r, dtype=np.uint8)
    blob = serial._container("basic", serial._Header(k, r, n, n, 5, gen), ks, payload)
    d = serial.deserialize(blob)
    assert sorted(d.provider.tables) == list(range(gen * k, (gen + 1) * k))
    keys = [b"q%d" % i for i in range(2000)]
    members = [key for key in keys if d.provider.chunk_of(key) == chunk]
    assert members
    functions = range(gen * k + 1, (gen + 1) * k + 1)  # split_share_value counts from 1
    for key in members:
        digest = d.provider.digest(key)
        words = [hashing.split_share_value(d.provider, chunk, j, digest) for j in functions]
        expected = 0
        for j in hashing.distinct_k_set(words, k, n):
            expected ^= int(d.table[j])
        assert d.query(key) == expected
    assert all(d.query(key) == 0 for key in keys if key not in members)
    assert serial.serialize(d) == blob


def _malformed_containers():
    """Containers with a valid CRC that their decoders reject.  The kind-specific
    blocks of kinds 1, 4 and 5 are one byte short of their fixed part (the
    other kinds check their length first), and the compact container's p
    leaves no binomial mass in its weight range at n = 2,000."""
    head, none = serial._Header(3, 8, 0, 0, 1, 0), np.zeros(0, dtype=np.uint8)
    lo, hi = compact.weight_bounds(2000)[:2]
    return [
        (serial._container("basic", head, bytes(8), none), "too short"),
        (serial._container("filter", head, bytes(8), none), "too short"),
        (serial._container("bloomier", head, bytes(9), none), "too short"),
        (
            serial._container(
                "compact", serial._Header(0, 8, 2000, 2000, 1, 0),
                struct.pack("<IId", lo, hi, 1e-300), np.zeros(2000 * 8, dtype=np.uint8),
            ),
            "no binomial mass",
        ),
    ]


@pytest.mark.parametrize("blob, message", _malformed_containers())
def test_malformed_kind_specific_block_is_container_error(tmp_path, capsys, blob, message):
    with pytest.raises(ContainerError, match=message):
        serial.deserialize(blob)
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    assert main(["stats", "--structure", str(path)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and message in err


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


def _resealed(body):
    """``body`` (a container without its checksum) with a fresh CRC-32 appended."""
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_unsupported_version():
    d = basic.build(pairs_of(10), r=8, k=3, delta=0.5, seed=4)
    blob = bytearray(serial.serialize(d))
    blob[4] = 9
    with pytest.raises(UnsupportedVersion):
        serial.deserialize(bytes(blob))
    # kind 7 is read only at version 3, and kinds 1-6 only at version 2; the
    # earlier bytes hashed each probe with its own keyed blake2b call, and no
    # kind is read at another kind's version
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        built = build_all_kinds(40)[2]
    old_versions = {1: (1, 3), 2: (1, 3), 3: (1, 3), 4: (1, 3), 5: (1, 3), 6: (1, 3), 7: (1, 2)}
    for structure in built.values():
        original = serial.serialize(structure)
        code = original[5]
        assert original[4] == (3 if code == 7 else 2)
        for version in old_versions.pop(code):
            body = bytearray(original[:-4])
            body[4] = version
            with pytest.raises(UnsupportedVersion, match=f"version {version} of kind {code}"):
                serial.deserialize(_resealed(body))
    assert not old_versions  # every kind was built


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
    return _resealed(body)


@st.composite
def slot_sets(draw):
    """(m, strictly increasing values below m): empty, single, dense or bunched at an end."""
    m = draw(st.integers(1, 600))
    shape = draw(st.sampled_from(["any", "empty", "one", "dense", "low", "high"]))
    if shape == "empty":
        return m, []
    if shape == "one":
        return m, [draw(st.integers(0, m - 1))]
    if shape in ("low", "high"):
        c = draw(st.integers(1, m))
        return m, list(range(c)) if shape == "low" else list(range(m - c, m))
    lo = m // 2 + 1 if shape == "dense" else 0  # more than m/2 values: low width 0
    values = draw(st.sets(st.integers(0, m - 1), min_size=min(lo, m), max_size=m))
    return m, sorted(values)


@settings(max_examples=300, deadline=None)
@given(case=slot_sets())
def test_slot_list_roundtrip(case):
    m, values = case
    c = len(values)
    bits = serial.slot_list_bits(np.array(values, dtype=np.int64), m)
    low, high = elias_fano_shape(c, m)
    assert len(bits) == c * low + high and int(bits[c * low :].sum()) == c
    if 2 * c > m:
        assert low == 0
    assert serial.slot_list(bits, c, m).tolist() == values


def _with_image(blob, image_bits):
    """``blob``, a kind-7 container, with its payload's image replaced by ``image_bits``."""
    mp = serial.deserialize(blob)
    selector = serial._entry_bits(mp.base.lambda_table, mp.base.r_lambda)
    stream = np.concatenate([selector, image_bits]).astype(np.uint8)
    head = serial._FIXED_HEADER.size + 8  # the kind-specific block is the 8-byte delta
    body = bytearray(blob[:head])
    body += struct.pack("<Q", len(stream)) + np.packbits(stream, bitorder="little").tobytes()
    return _resealed(body)


def test_mphf_container_with_malformed_slot_list_is_rejected():
    keys = [k for k, _ in pairs_of(3000, tag=b"ef")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp = phf.build_mphf(keys, k=4, delta=0.035, seed=11)
    blob = serial.serialize(mp)
    unused = np.array(mp.unused)
    assert mp.image_bits < mp.m and len(unused) == mp.m - mp.n
    image = serial.slot_list_bits(unused, mp.m)
    assert _with_image(blob, image) == blob
    high_at = len(unused) * elias_fano_shape(len(unused), mp.m)[0]
    extra_one, missing_one = image.copy(), image.copy()
    extra_one[high_at + np.flatnonzero(image[high_at:] == 0)[0]] = 1
    missing_one[high_at + np.flatnonzero(image[high_at:])[0]] = 0
    swapped, repeated, beyond = unused.copy(), unused.copy(), unused.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    repeated[1] = repeated[0]
    beyond[-1] = mp.m
    for bad, message in (
        (extra_one, "count"),
        (missing_one, "count"),
        (serial.slot_list_bits(swapped, mp.m), "increasing|count"),
        (serial.slot_list_bits(repeated, mp.m), "increasing"),
        (serial.slot_list_bits(beyond, mp.m), "beyond m"),
    ):
        assert len(bad) == len(image)
        with pytest.raises(ContainerError, match=message):
            serial.deserialize(_with_image(blob, bad))


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
    """One small container per kind, split-share, a blocked-backend Bloomier filter and a
    minimal perfect hash at delta = 0.035, whose image is stored as a slot list."""
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
        phf.build_mphf([b"fm%d" % i for i in range(200)], k=4, delta=0.035, seed=9),
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
