import random

import numpy as np
import pytest

from xorfunc import serial
from xorfunc.basic import (
    RetrievalStructure,
    build,
    compress,
    query,
    query_compressed,
    verify,
)
from xorfunc.errors import DuplicateKeys, KTooLarge, PivotMismatch, RandomnessExhausted


def make_pairs(n, r=8, tag=b"key"):
    mask = (1 << r) - 1
    return [(b"%s%d" % (tag, i), (i * 2654435761) & mask) for i in range(n)]


def test_single_key_single_equation():
    d = build([(b"solo", 200)], r=8, k=2, delta=1.0, seed=0)
    assert query(d, b"solo") == 200
    probes = d.probes(b"solo")
    assert query(d, b"solo") == int(d.table[probes[0]]) ^ int(d.table[probes[1]])


def test_all_zero_values():
    pairs = [(b"z%d" % i, 0) for i in range(50)]
    d = build(pairs, r=8, k=3, delta=0.5, seed=1)
    assert verify(d, pairs)


def test_every_small_size_builds_and_verifies():
    for n in range(1, 65):
        pairs = make_pairs(n, tag=b"sz")
        d = build(pairs, r=8, k=2, delta=1.0, seed=n)
        assert verify(d, pairs), n


def test_build_and_verify_thousand_keys():
    pairs = make_pairs(1000)
    d = build(pairs, r=8, k=3, delta=0.25, seed=1)
    assert verify(d, pairs)
    assert d.m == 1250
    assert d.table_bits == 1250 * 8


def test_query_zero_table_returns_zero():
    d = RetrievalStructure(
        n=2, m=10, k=3, r=8, delta=0.25, master_seed=5, seed_generation=0,
        table=np.zeros(10, dtype=np.uint64),
    )
    assert query(d, b"whatever") == 0


def test_query_is_xor_of_probed_entries():
    rng = random.Random(2)
    table = np.array([rng.randrange(256) for _ in range(16)], dtype=np.uint64)
    d = RetrievalStructure(
        n=1, m=16, k=3, r=8, delta=0.25, master_seed=9, seed_generation=0, table=table
    )
    for key in (b"a", b"b", b"c"):
        expected = 0
        for j in d.probes(key):
            expected ^= int(table[j])
        assert query(d, key) == expected


def test_verify_detects_flipped_entry():
    pairs = make_pairs(200)
    d = build(pairs, r=8, k=3, delta=0.3, seed=3)
    assert verify(d, pairs)
    probed = d.probes(pairs[0][0])[0]
    d.table[probed] ^= 1
    assert not verify(d, pairs)


def test_verify_empty_pairs():
    d = build(make_pairs(10), r=8, k=3, delta=0.5, seed=0)
    assert verify(d, [])


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateKeys):
        build([(b"a", 1), (b"a", 2)], r=8)


def test_build_k_exceeding_table():
    with pytest.raises(KTooLarge):
        build([(b"a", 1)], r=8, k=3, delta=0.25)


def test_build_value_out_of_range():
    with pytest.raises(ValueError):
        build([(b"a", 256)], r=8, k=2, delta=2.0)


def test_warning_when_density_at_threshold():
    pairs = make_pairs(30)
    with pytest.warns(UserWarning):
        try:
            build(pairs, r=8, k=3, delta=0.05, seed=0)
        except RandomnessExhausted:
            pass


def test_randomness_exhausted_above_threshold():
    pairs = make_pairs(500)
    with pytest.warns(UserWarning):
        with pytest.raises(RandomnessExhausted):
            build(pairs, r=8, k=3, delta=0.01, seed=0)


def test_determinism_and_order_insensitivity():
    pairs = make_pairs(300)
    blob1 = serial.serialize(build(pairs, r=8, k=3, delta=0.25, seed=7))
    shuffled = pairs[:]
    random.Random(0).shuffle(shuffled)
    blob2 = serial.serialize(build(shuffled, r=8, k=3, delta=0.25, seed=7))
    assert blob1 == blob2


def test_build_success_independent_of_values():
    keys = [b"v%d" % i for i in range(400)]
    rng = random.Random(4)
    gens = []
    for _ in range(2):
        pairs = [(k, rng.randrange(256)) for k in keys]
        d = build(pairs, r=8, k=3, delta=0.18, seed=11)
        gens.append(d.seed_generation)
    assert gens[0] == gens[1]


def test_mean_attempts_near_one_below_threshold():
    keys = [b"r%d" % i for i in range(2000)]
    attempts = []
    for seed in range(100):
        d = build([(k, 5) for k in keys], r=4, k=3, delta=0.25, seed=seed)
        attempts.append(d.seed_generation + 1)
    assert sum(attempts) / len(attempts) <= 1.3


def test_compress_all_columns_pivots():
    table = np.array([3, 1, 4, 1, 5], dtype=np.uint64)
    d = RetrievalStructure(
        n=5, m=5, k=2, r=4, delta=0.1, master_seed=1, seed_generation=0,
        table=table, pivots=(0, 1, 2, 3, 4),
    )
    c = compress(d, d.pivots)
    assert c.membership.rank1(5) == 5
    assert c.base.tolist() == table.tolist()


def test_compress_single_key():
    d = build([(b"solo", 9)], r=4, k=2, delta=1.0, seed=2)
    c = compress(d, d.pivots)
    assert c.membership.rank1(c.m) == 1
    assert query_compressed(c, b"solo") == 9


def test_compressed_queries_match_uncompressed():
    pairs = make_pairs(2000)
    d = build(pairs, r=8, k=3, delta=0.25, seed=5)
    c = compress(d, d.pivots)
    for key, _ in pairs[:300]:
        assert query_compressed(c, key) == query(d, key)
    for i in range(10_000):
        key = b"nonmember%d" % i
        assert query_compressed(c, key) == query(d, key)


def test_compress_rejects_wrong_pivots():
    pairs = make_pairs(100)
    d = build(pairs, r=8, k=3, delta=0.4, seed=6)
    with pytest.raises(PivotMismatch):
        compress(d, d.pivots[:-1])
    wrong = list(d.pivots)
    outside = next(j for j in range(d.m) if j not in set(wrong) and d.table[j] == 0)
    # swapping a pivot holding a nonzero entry for a non-pivot column must fail
    nonzero = [p for p in wrong if d.table[p] != 0]
    if nonzero:
        bad = wrong[:]
        bad[bad.index(nonzero[0])] = outside
        with pytest.raises(PivotMismatch):
            compress(d, bad)


def test_compress_of_loaded_structure_names_missing_pivots():
    d = build(make_pairs(100), r=8, k=3, delta=0.4, seed=6)
    loaded = serial.deserialize(serial.serialize(d))
    assert loaded.pivots is None
    with pytest.raises(PivotMismatch, match="freshly built"):
        compress(loaded, loaded.pivots)


def test_empty_build_round_trips():
    d = build([], r=8, k=3, delta=0.25, seed=0)
    assert d.n == 0 and d.m == 0
    assert verify(d, [])
    assert query(d, b"anything") == 0


def test_split_share_build_verifies():
    pairs = make_pairs(2000, tag=b"ss")
    d = build(pairs, r=8, k=3, delta=0.25, seed=8, split_share=True)
    assert verify(d, pairs)
    # non-member queries are well-defined through the splitter
    for i in range(100):
        v = query(d, b"outsider%d" % i)
        assert 0 <= v < 256


def test_split_share_deterministic():
    pairs = make_pairs(500, tag=b"dd")
    b1 = serial.serialize(build(pairs, r=8, k=3, delta=0.25, seed=9, split_share=True))
    b2 = serial.serialize(build(pairs, r=8, k=3, delta=0.25, seed=9, split_share=True))
    assert b1 == b2


def test_split_share_build_splits_and_digests_each_key_once(monkeypatch):
    """The build reuses the split and the digests of its shared-randomness setup.

    Splitting and digesting every key a second time would cost 2n more PRF
    calls: 27,242 instead of 23,242 at n = 2000, seed 0.
    """
    from collections import Counter

    from xorfunc.hashing import ROLE_SHARE_BASE, ROLE_SPLIT, SeededHasher

    n = 2000
    pairs = [(b"k%d" % i, i % 256) for i in range(n)]
    calls = Counter()
    original = SeededHasher.u64

    def counting(self, key):
        calls[self.function_index >> 40] += 1  # the role tag
        return original(self, key)

    monkeypatch.setattr(SeededHasher, "u64", counting)
    d = build(pairs, r=8, k=3, delta=0.25, seed=0, split_share=True)
    monkeypatch.undo()
    assert verify(d, pairs)
    assert calls[ROLE_SHARE_BASE] == n
    assert calls[ROLE_SPLIT] == n * (d.provider.splitter_generation + 1)
    assert sum(calls.values()) == 27_242 - 2 * n
