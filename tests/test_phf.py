import math
import random
import struct
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xorfunc import serial
from xorfunc.bitvector import RankBitvector
from xorfunc.errors import KTooLarge, RandomnessExhausted
from xorfunc.hashing import ROLE_PROBE, SeededHasher, distinct_k_set, fn_index
from xorfunc.phf import (
    MinimalPerfectHash,
    build_mphf,
    build_phf,
    eval_mphf,
    eval_phf,
    hopcroft_karp,
)


def keys_of(n, tag=b"pk"):
    return [b"%s%d" % (tag, i) for i in range(n)]


def test_hopcroft_karp_small_cases():
    assert hopcroft_karp([[0], [1]], 2) == [0, 1]
    assert hopcroft_karp([[0], [0]], 1).count(-1) == 1
    match = hopcroft_karp([[0, 1], [0], [1, 2]], 3)
    assert -1 not in match and len(set(match)) == 3


def test_single_key():
    p = build_phf([b"solo"], k=2, delta=1.0, seed=0)
    pos = eval_phf(p, b"solo")
    hasher = SeededHasher(p.master_seed, fn_index(ROLE_PROBE, p.seed_generation), width=p.k)
    probes = distinct_k_set(hasher.words(b"solo"), p.k, p.m)
    assert pos in probes  # the matched column is one of the key's own probes


def test_k2_instances_match_bruteforce_injectivity():
    rng = random.Random(1)
    built = 0
    for trial in range(40):
        n = rng.randint(1, 12)
        keys = [b"t%d:%d" % (trial, i) for i in range(n)]
        try:
            p = build_phf(keys, k=2, delta=1.2, seed=trial)
        except RandomnessExhausted:
            continue
        built += 1
        outs = [eval_phf(p, key) for key in keys]
        assert len(set(outs)) == n
        assert all(0 <= o < p.m for o in outs)
    assert built >= 30


def test_injective_and_matched_positions():
    keys = keys_of(2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = build_phf(keys, k=4, delta=0.035, seed=2)
    hasher = SeededHasher(p.master_seed, fn_index(ROLE_PROBE, p.seed_generation), width=p.k)
    outs = []
    for key in keys:
        probes = distinct_k_set(hasher.words(key), p.k, p.m)
        pos = eval_phf(p, key)
        assert pos in probes
        outs.append(pos)
    assert len(set(outs)) == len(keys)
    assert p.r_lambda == 2
    assert p.table_bits == 2 * p.m


def test_nonmember_eval_stays_in_range():
    p = build_phf(keys_of(500), k=3, delta=0.25, seed=3)
    for i in range(2000):
        assert 0 <= eval_phf(p, b"outsider%d" % i) < p.m


def test_mphf_is_bijection():
    keys = keys_of(2000, tag=b"mk")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp = build_mphf(keys, k=4, delta=0.035, seed=4)
    outs = sorted(eval_mphf(mp, key) for key in keys)
    assert outs == list(range(2000))


def test_range_of_k_slots_is_rejected_for_two_or_more_keys():
    # three keys at k=4, delta=0.10 give m=4: every probe row is all ones
    for build in (build_phf, build_mphf):
        with pytest.raises(KTooLarge):
            build([b"a", b"b", b"c"])
        with pytest.raises(KTooLarge):
            build([b"a", b"b"], k=3, delta=0.5)  # m = 3
    assert eval_mphf(build_mphf([b"a"], k=2, delta=1.0), b"a") == 0


def test_mphf_single_key():
    mp = build_mphf([b"one"], k=2, delta=1.0, seed=5)
    assert eval_mphf(mp, b"one") == 0


def test_space_accounting():
    keys = keys_of(1000)
    p = build_phf(keys, k=4, delta=0.25, seed=6)
    assert p.table_bits == p.m * math.ceil(math.log2(4))
    mp = build_mphf(keys, k=4, delta=0.25, seed=6)
    # the container holds the selectors and an Elias-Fano list of the c unused slots
    c = p.m - p.n
    low = math.floor(math.log2(p.m / c))
    assert (c, low) == (250, 2)
    assert mp.image_bits == c * low + c + ((p.m - 1) >> low) + 1 == 1063
    assert mp.table_bits == p.table_bits + mp.image_bits
    payload_bits_at = serial._FIXED_HEADER.size + 8  # after the 8-byte delta block
    assert struct.unpack_from("<Q", serial.serialize(mp), payload_bits_at)[0] == mp.table_bits
    # at delta = 0.4 the list (1,500 bits) would be longer than one bit per slot
    wide = build_mphf(keys, k=4, delta=0.4, seed=6)
    assert wide.image_bits == wide.m == 1400
    assert mp.bits_per_key > p.bits_per_key


@st.composite
def images(draw):
    """(m, increasing unused slots) with at least one used slot, any share unused."""
    m = draw(st.integers(min_value=1, max_value=400))
    c = draw(st.integers(min_value=0, max_value=m - 1))
    return m, sorted(draw(st.permutations(range(m)))[:c])


@given(images())
@example((1, []))
@example((300, []))  # c = 0
@example((300, list(range(299))))  # c = m - 1
@example((300, list(range(1, 300, 2))))  # c = m / 2, stored as one bit per slot
@settings(max_examples=200, deadline=None)
def test_list_rank_matches_the_bitvector_rank(image):
    m, unused = image
    bits = np.ones(m, dtype=np.uint8)
    bits[unused] = 0
    reference = RankBitvector(bits)
    # a base that answers the slot itself leaves only the rank in query
    mp = MinimalPerfectHash(base=SimpleNamespace(query=lambda slot: slot), unused=unused)
    for slot in np.flatnonzero(bits).tolist():
        assert mp.query(slot) == reference.rank1(slot)


@pytest.mark.parametrize("delta, list_image", [(0.035, True), (0.4, False)])
def test_fresh_and_loaded_mphf_answer_alike(delta, list_image):
    keys = keys_of(3000, tag=b"fl")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp = build_mphf(keys, k=4, delta=delta, seed=12)
    assert (mp.image_bits < mp.m) == list_image
    loaded = serial.deserialize(serial.serialize(mp))
    assert loaded.unused == mp.unused and len(mp.unused) == mp.m - mp.n
    probe = keys + [b"outsider%d" % i for i in range(500)]
    assert [loaded.query(key) for key in probe] == [mp.query(key) for key in probe]
    assert sorted(mp.query(key) for key in keys) == list(range(len(keys)))


def test_same_generation_shared_between_matching_and_solve():
    # selectors must address the same probe sets the matrix was built from:
    # a successful build implies eval hits the matched pivot for every key
    keys = keys_of(300)
    p = build_phf(keys, k=3, delta=0.3, seed=7)
    assert p.pivots is not None
    pivots = set(p.pivots)
    for key in keys:
        assert eval_phf(p, key) in pivots


def test_roundtrip():
    keys = keys_of(800)
    mp = build_mphf(keys, k=3, delta=0.4, seed=8)
    blob = serial.serialize(mp)
    mp2 = serial.deserialize(blob)
    assert sorted(eval_mphf(mp2, key) for key in keys) == list(range(800))
    assert serial.serialize(mp2) == blob

    p = build_phf(keys, k=3, delta=0.4, seed=8)
    blob_p = serial.serialize(p)
    p2 = serial.deserialize(blob_p)
    assert [eval_phf(p2, key) for key in keys] == [eval_phf(p, key) for key in keys]
    assert serial.serialize(p2) == blob_p


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_phf(keys_of(10), k=1)
    with pytest.raises(ValueError):
        build_phf(keys_of(10), k=3, delta=0.0)


def test_hopcroft_karp_long_augmenting_path(monkeypatch):
    # the first phase matches left i to right i+1, which leaves the last left
    # vertex free; its one augmenting path then runs through all 20k vertices
    n = 20_000
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]

    def refuse(limit):
        raise AssertionError("matching must not need a raised recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert hopcroft_karp(adj, n) == list(range(n))


def test_probe_rows_are_the_probes_of_each_key():
    keys = keys_of(500)
    p = build_phf(keys, k=4, delta=0.10, seed=2)
    probe = keys + [b"", b"w" * 129]
    assert p.probe_rows(probe).tolist() == [list(p.probes(key)) for key in probe]
