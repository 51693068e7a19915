import numpy as np
import pytest

from conftest import failing_reductions
from xorfunc import serial
from xorfunc.blocked import (
    BlockedRetrieval,
    build_blocked,
    gather_query,
    probe_plan,
    query_blocked,
    secondary_size,
    verify_blocked,
)
from xorfunc.errors import DuplicateKeys
from xorfunc.gf2 import system_full_rank
from xorfunc.hashing import distinct_k_set


def make_pairs(n, tag=b"bk"):
    return [(b"%s%d" % (tag, i), (i * 131) % 256) for i in range(n)]


def test_single_block_success_degenerates_to_flat_scheme():
    pairs = make_pairs(20)
    d = build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=64, seed=0)
    assert d.m0 == 1
    assert d.overflow_count == 0
    assert d.secondary_len == 0
    assert verify_blocked(d, pairs)
    assert len(probe_plan(d, pairs[0][0])) == 3  # no secondary probes to issue


def test_forced_block_failure_rides_the_secondary():
    pairs = make_pairs(20)
    with failing_reductions(1):
        d = build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=64, seed=0)
    assert d.overflow_count == 20
    assert not d.primary.any()  # failed segment zeroed
    assert verify_blocked(d, pairs)
    assert len(probe_plan(d, pairs[0][0])) == 6


def test_medium_build_verifies_and_reports():
    pairs = make_pairs(20_000)
    d = build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=64, seed=1)
    assert verify_blocked(d, pairs)
    assert d.b_prime == 71
    assert d.segment_len == 93
    assert 0.0 < d.overflow_fraction < 0.5
    assert d.table_bits == (d.m0 * d.segment_len + d.secondary_len) * 8


def test_overflow_is_exactly_the_singular_blocks():
    pairs = make_pairs(20_000)
    d = build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=64, seed=1)
    blocks = {}
    for key, _ in pairs:
        blocks.setdefault(d.block_of(key), []).append(key)
    singular, admitted_large = 0, 0
    for keys in blocks.values():
        rows = [distinct_k_set(key, d.k, d.segment_len, d._primary_hashers) for key in keys]
        if system_full_rank(rows, d.segment_len) is None:
            singular += len(keys)
        elif len(keys) > d.b_prime:
            admitted_large += 1
    assert admitted_large > 0  # b_prime sizes the segment; it does not cap a block
    assert d.overflow_count == singular


def test_probe_plan_shape_and_gather_equivalence():
    pairs = make_pairs(5000)
    d = build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=32, seed=2)
    assert d.secondary_len > 0
    table = np.concatenate([d.primary, d.secondary])
    for i in range(2000):
        key = b"probe%d" % i
        plan = probe_plan(d, key)
        assert len(plan) == 6
        assert plan == probe_plan(d, key)  # pure function of seeds and key
        seg_base = d.block_of(key) * d.segment_len
        for off in plan[:3]:
            assert seg_base <= off < seg_base + d.segment_len
        assert gather_query(d, key, table) == query_blocked(d, key)


def test_failed_block_key_answered_by_secondary_term():
    pairs = make_pairs(40)
    with failing_reductions(1, 2):
        d = build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=32, seed=3)
    key, value = pairs[0]
    base = d.block_of(key) * d.segment_len
    assert not d.primary[base : base + d.segment_len].any()
    acc = 0
    from xorfunc.hashing import distinct_k_set

    for j in distinct_k_set(key, 3, d.secondary_len, d._secondary_hashers):
        acc ^= int(d.secondary[j])
    assert acc == value == query_blocked(d, key)


def test_zero_tables_answer_zero():
    d = build_blocked(make_pairs(30), r=8, k=3, eps=0.1, delta=0.3, b=16, seed=4)
    z = BlockedRetrieval(
        n=d.n, r=d.r, k=d.k, b=d.b, eps=d.eps, delta=d.delta, m0=d.m0,
        b_prime=d.b_prime, segment_len=d.segment_len, master_seed=d.master_seed,
        secondary_generation=0, overflow_count=0,
        primary=np.zeros_like(d.primary), secondary=np.zeros(0, dtype=np.uint64),
    )
    assert all(query_blocked(z, b"q%d" % i) == 0 for i in range(50))


def test_overflow_shrinks_with_extra_segment_slack():
    lean, roomy = [], []
    for seed in range(20):
        pairs = [(b"m%d:%d" % (seed, i), i % 16) for i in range(3000)]
        lean.append(
            build_blocked(pairs, r=4, k=3, eps=0.10, delta=0.20, b=16, seed=seed).overflow_count
        )
        roomy.append(
            build_blocked(pairs, r=4, k=3, eps=0.10, delta=0.40, b=16, seed=seed).overflow_count
        )
    assert sum(roomy) / 20 <= sum(lean) / 20


def test_secondary_size_floors():
    assert secondary_size(0) == 0
    assert secondary_size(1) == 3
    assert secondary_size(2) == 4
    assert secondary_size(100) == 130


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_blocked(make_pairs(10), r=8, b=4)
    with pytest.raises(DuplicateKeys):
        build_blocked([(b"a", 1), (b"a", 2)], r=8)


def test_roundtrip_preserves_answers():
    pairs = make_pairs(4000)
    d = build_blocked(pairs, r=8, k=3, eps=0.1, delta=0.3, b=32, seed=5)
    blob = serial.serialize(d)
    d2 = serial.deserialize(blob)
    assert verify_blocked(d2, pairs)
    assert serial.serialize(d2) == blob
