"""The per-key query path builds no hasher and reads the stored tables in place."""

import warnings

import numpy as np
import pytest

from conftest import failing_reductions
from xorfunc import basic, blocked, compact, filters, phf, serial
from xorfunc.blocked import probe_plan
from xorfunc.hashing import ROLE_PROBE, SeededHasher, distinct_k_set, probe_hashers

N = 300


def pairs_of(n, tag=b"qp"):
    return [(b"%s%d" % (tag, i), (i * 53) % 256) for i in range(n)]


def _builders():
    pairs = pairs_of(N)
    keys = [key for key, _ in pairs]
    built = {
        "basic": lambda: basic.build(pairs, r=8, seed=1),
        "compressed": lambda: _compressed(basic.build(pairs, r=8, seed=1)),
        "split-share": lambda: basic.build(pairs, r=8, seed=2, split_share=True),
        "compact": lambda: compact.build_compact(pairs, r=8, seed=3),
        "blocked": lambda: blocked.build_blocked(pairs, r=8, b=16, seed=4),
        "phf": lambda: phf.build_phf(keys, k=4, delta=0.1, seed=5),
        "mphf": lambda: phf.build_mphf(keys, k=4, delta=0.1, seed=6),
    }
    for backend in ("basic", "compact", "blocked"):
        params = filters.BackendParams(kind=backend, block_size=16)
        built[f"filter-{backend}"] = lambda p=params: filters.build_filter(
            keys, s=8, backend_kind=p.kind, params=p, seed=7
        )
        built[f"bloomier-{backend}"] = lambda p=params: filters.build_bloomier(
            pairs, r=8, s=8, backend_kind=p.kind, params=p, seed=8
        )
    return keys, built


def _compressed(d):
    return basic.compress(d, d.pivots)


KEYS, BUILDERS = _builders()
QUERIES = KEYS[:100] + [b"absent%d" % i for i in range(100)]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_queries_construct_no_hasher(kind, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        structure = BUILDERS[kind]()
    loaded = serial.deserialize(serial.serialize(structure)) if kind != "compressed" else None
    expected = [structure.query(key) for key in QUERIES]

    made = []
    original = SeededHasher.__post_init__

    def counting(self):
        made.append(self.function_index)
        original(self)

    monkeypatch.setattr(SeededHasher, "__post_init__", counting)
    for s in (structure, loaded):
        if s is not None:
            assert [s.query(key) for key in QUERIES] == expected
    assert made == []


def test_basic_views_see_in_place_edits():
    pairs = pairs_of(N)
    d = basic.build(pairs, r=8, seed=1)
    c = _compressed(d)
    c.base ^= np.uint64(1)  # every stored entry, and the same ones of the full table
    d.table[list(d.pivots)] ^= np.uint64(1)
    assert any(d.query(key) != value for key, value in pairs)
    assert all(c.query(key) == d.query(key) for key, _ in pairs)


def test_blocked_views_see_in_place_edits():
    pairs = pairs_of(40)
    with failing_reductions(1):
        d = blocked.build_blocked(pairs, r=8, b=64, seed=0)
    assert d.secondary_len  # every key rides the secondary
    key, value = pairs[0]
    plan = probe_plan(d, key)
    d.primary[plan[0]] ^= np.uint64(1)
    assert d.query(key) == value ^ 1
    d.secondary[plan[-1] - d.m] ^= np.uint64(2)
    assert d.query(key) == value ^ 3


def test_phf_and_mphf_views_see_in_place_edits():
    key = KEYS[0]
    p = phf.build_phf(KEYS, k=4, delta=0.1, seed=5)
    hashers = probe_hashers(p.master_seed, ROLE_PROBE, p.seed_generation, p.k)
    probes = distinct_k_set(key, p.k, p.m, hashers)
    before = p.query(key)
    p.lambda_table[probes[0]] ^= np.uint64(1)  # the selector changes, so does the probe
    assert p.query(key) != before
    assert p.query(key) in probes

    mp = phf.build_mphf(KEYS, k=4, delta=0.1, seed=6)
    key = next(key for key in KEYS if mp.base.query(key) > 0)
    rank = mp.query(key)
    mp.used.super_counts[mp.base.query(key) >> 12] += np.uint64(5)
    assert mp.query(key) == rank + 5


def test_split_share_and_compact_views_see_in_place_edits():
    pairs = pairs_of(N)
    key, value = pairs[0]
    s = basic.build(pairs, r=8, seed=2, split_share=True)
    ci = s.provider.chunk_of(key)
    start, end = s.chunk_offsets[ci], s.chunk_offsets[ci + 1]
    s.table[start:end] ^= np.uint64(1)  # k = 3 probes, all in the key's segment
    assert s.query(key) == value ^ 1

    c = compact.build_compact(pairs, r=8, seed=3)
    c.table ^= np.uint64(1)  # flips the answer once per probe
    assert c.query(key) == value ^ (c.probe_count(key) & 1)


def test_split_share_query_makes_two_prf_calls(monkeypatch):
    """The chunk split and one key digest: the k = 3 probes share the digest."""
    pairs = pairs_of(N)
    s = basic.build(pairs, r=8, seed=2, split_share=True)
    calls = []
    original = SeededHasher.u64

    def counting(self, key):
        calls.append(key)
        return original(self, key)

    monkeypatch.setattr(SeededHasher, "u64", counting)
    for key, value in pairs[:100]:
        calls.clear()
        assert s.query(key) == value
        assert len(calls) == 2
