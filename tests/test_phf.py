import math
import random
import sys
import warnings

import pytest

from xorfunc import serial
from xorfunc.errors import RandomnessExhausted
from xorfunc.hashing import ROLE_PROBE, distinct_k_set, probe_hashers
from xorfunc.phf import (
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
    probes = distinct_k_set(
        b"solo", p.k, p.m, probe_hashers(p.master_seed, ROLE_PROBE, p.seed_generation, p.k)
    )
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
    hashers = probe_hashers(p.master_seed, ROLE_PROBE, p.seed_generation, p.k)
    outs = []
    for key in keys:
        probes = distinct_k_set(key, p.k, p.m, hashers)
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


def test_mphf_single_key():
    mp = build_mphf([b"one"], k=2, delta=1.0, seed=5)
    assert eval_mphf(mp, b"one") == 0


def test_space_accounting():
    keys = keys_of(1000)
    p = build_phf(keys, k=4, delta=0.25, seed=6)
    assert p.table_bits == p.m * math.ceil(math.log2(4))
    mp = build_mphf(keys, k=4, delta=0.25, seed=6)
    assert mp.table_bits == p.table_bits + p.m + mp.used.index_bits
    assert mp.bits_per_key > p.bits_per_key


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
