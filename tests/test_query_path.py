"""The per-key query path builds no hasher, hashes each key once per role and reads
the stored tables in place."""

import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import failing_reductions
from xorfunc import basic, blocked, compact, filters, phf, serial
from xorfunc.blocked import probe_plan
from xorfunc.hashing import SeededHasher

N = 300


def pairs_of(n, tag=b"qp"):
    return [(b"%s%d" % (tag, i), (i * 53) % 256) for i in range(n)]


def _builders():
    pairs = pairs_of(N)
    keys = [key for key, _ in pairs]
    built = {
        "basic": lambda: basic.build(pairs, r=8, seed=1),
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


KEYS, BUILDERS = _builders()
QUERIES = KEYS[:100] + [b"absent%d" % i for i in range(100)]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_queries_construct_no_hasher(kind, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        structure = BUILDERS[kind]()
    loaded = serial.deserialize(serial.serialize(structure))
    expected = [structure.query(key) for key in QUERIES]

    made = []
    original = SeededHasher.__post_init__

    def counting(self):
        made.append(self.function_index)
        original(self)

    monkeypatch.setattr(SeededHasher, "__post_init__", counting)
    for s in (structure, loaded):
        assert [s.query(key) for key in QUERIES] == expected
    assert made == []


def test_basic_views_see_in_place_edits():
    pairs = pairs_of(N)
    d = basic.build(pairs, r=8, seed=1)
    assert d.k == 3
    d.table ^= np.uint64(1)  # every entry, so each of a key's 3 probes flips its answer
    for key, value in pairs:
        assert d.query(key) == value ^ 1


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
    probes = p.probes(key)
    before = p.query(key)
    p.lambda_table[probes[0]] ^= np.uint64(1)  # the selector changes, so does the probe
    assert p.query(key) != before
    assert p.query(key) in probes

    mp = phf.build_mphf(KEYS, k=4, delta=0.1, seed=6)
    key = next(key for key in KEYS if mp.base.query(key) > mp.unused[0])
    rank = mp.query(key)
    del mp.unused[0]  # one unused slot fewer below the key's slot
    assert mp.query(key) == rank + 1


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


# per query: (SeededHasher.words calls, SeededHasher.u64 calls); a compact key
# draws its probe count with one u64, and a filter its signature
HASH_CALLS = {
    "basic": (1, 0),
    "compact": (1, 1),
    "blocked": (2, 0),  # the primary's block and probes, then the secondary's probes
    "phf": (1, 0),
    "mphf": (1, 0),
    "filter-basic": (1, 1),
    "filter-blocked": (2, 1),
    "bloomier-blocked": (2, 1),
}


def _count_hash_calls(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("words", "u64"):
        original = getattr(SeededHasher, name)

        def counting(self, key, name=name, original=original):
            calls[name] += 1
            return original(self, key)

        monkeypatch.setattr(SeededHasher, name, counting)
    original_rows = SeededHasher.word_rows

    def counting_rows(self, keys):
        calls["word_rows"] += len(keys)
        return original_rows(self, keys)

    monkeypatch.setattr(SeededHasher, "word_rows", counting_rows)
    return calls


@pytest.mark.parametrize("kind", sorted(HASH_CALLS))
def test_one_digest_per_key_and_role(kind, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        structure = BUILDERS[kind]()
    backend = getattr(structure, "backend", structure)
    assert getattr(backend, "secondary_len", 1)  # blocked kinds probe a secondary
    calls = _count_hash_calls(monkeypatch)
    words, u64 = HASH_CALLS[kind]
    for key in QUERIES:
        calls.clear()
        structure.query(key)
        assert (calls["words"], calls["u64"], calls["word_rows"]) == (words, u64, 0)


def test_basic_build_hashes_each_key_once(monkeypatch):
    """A build that solves at generation 0 takes all n probe rows from n digests."""
    pairs = pairs_of(2000)
    calls = _count_hash_calls(monkeypatch)
    d = basic.build(pairs, r=8, seed=1)
    assert d.seed_generation == 0
    assert calls == {"word_rows": len(pairs)}
