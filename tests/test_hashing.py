import hashlib
import math
import struct
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CHI2_999, chi_square_ok
from xorfunc.errors import EmptySupport, IndexOutOfRange, KTooLarge, ZeroRange
from xorfunc.hashing import (
    MASK64,
    ROLE_PROBE,
    SeededHasher,
    build_binomial_table,
    build_split_share,
    distinct_k_set,
    fn_index,
    probe_hashers,
    sample_conditioned,
    split_share_eval,
)


class _StubHasher:
    def __init__(self, value: int):
        self.value = value

    def u64(self, key: bytes) -> int:
        return self.value


def test_hash_to_range_single_bucket():
    h = SeededHasher(42, 0)
    assert h.hash_to_range(b"anything", 1) == 0


def test_hash_to_range_zero_range():
    with pytest.raises(ZeroRange):
        SeededHasher(0, 0).hash_to_range(b"x", 0)


def test_hash_is_a_pure_function_of_inputs():
    # frozen golden value: must never change across runs or platforms
    assert SeededHasher(12345, 67).u64(b"determinism") == SeededHasher(12345, 67).u64(
        b"determinism"
    )
    assert SeededHasher(12345, 67).u64(b"determinism") == 0x28F780E34C2908AA


_WORDS = st.one_of(
    st.integers(min_value=0, max_value=1 << 66),
    st.sampled_from([(1 << 63) - 1, 1 << 63, MASK64, 1 << 64, (1 << 64) + 5]),
)


@given(_WORDS, _WORDS, st.lists(st.binary(max_size=300), min_size=1, max_size=4))
@example(1 << 63, MASK64, [b"", b"x" * 128, b"y" * 129, b""])
@example(0, 1 << 64, [bytes(range(256)) * 2])
@settings(max_examples=200, deadline=None)
def test_u64_equals_a_fresh_keyed_blake2b(seed, index, keys):
    # the hasher copies one keyed prototype per call; repeating keys on the
    # same hasher shows the prototype is never consumed
    h = SeededHasher(seed, index)
    prf_key = struct.pack("<QQ", seed & MASK64, index & MASK64)
    for key in keys + keys[::-1]:
        fresh = hashlib.blake2b(key, digest_size=8, key=prf_key).digest()
        assert h.u64(key) == int.from_bytes(fresh, "little")


def test_hash_uniformity_chi_square():
    h = SeededHasher(7, fn_index(ROLE_PROBE, 0, 0))
    counts = [0] * 16
    for i in range(100_000):
        counts[h.hash_to_range(b"u%d" % i, 16)] += 1
    stat = sum((c - 6250.0) ** 2 / 6250.0 for c in counts)
    assert stat < CHI2_999[15]


def test_distinct_k_set_single_draw():
    hashers = probe_hashers(3, ROLE_PROBE, 0, 1)
    out = distinct_k_set(b"key", 1, 10, hashers)
    assert len(out) == 1 and 0 <= out[0] < 10
    assert out[0] == hashers[0].hash_to_range(b"key", 10)


def test_distinct_k_set_full_shuffle_is_permutation():
    hashers = probe_hashers(5, ROLE_PROBE, 0, 4)
    for i in range(50):
        out = distinct_k_set(b"p%d" % i, 4, 4, hashers)
        assert sorted(out) == [0, 1, 2, 3]


def test_distinct_k_set_k_too_large():
    with pytest.raises(KTooLarge):
        distinct_k_set(b"x", 5, 4, probe_hashers(0, ROLE_PROBE, 0, 5))


def test_distinct_k_set_subsets_uniform():
    hashers = probe_hashers(11, ROLE_PROBE, 0, 3)
    counts = {frozenset(c): 0 for c in combinations(range(6), 3)}
    draws = 60_000
    for i in range(draws):
        counts[frozenset(distinct_k_set(b"s%d" % i, 3, 6, hashers))] += 1
    expected = draws / 20.0
    sigma = math.sqrt(draws * (1 / 20) * (19 / 20))
    for c in counts.values():
        assert abs(c - expected) <= 3.0 * sigma + 1


@given(
    st.binary(min_size=0, max_size=24),
    st.integers(min_value=1, max_value=100),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_distinct_k_set_entries_distinct(key, m, data):
    k = data.draw(st.integers(min_value=1, max_value=m))
    hashers = probe_hashers(99, ROLE_PROBE, 0, k)
    out = distinct_k_set(key, k, m, hashers)
    assert len(out) == k
    assert len(set(out)) == k
    assert all(0 <= j < m for j in out)


def test_distinct_k_set_fuzz_seeded():
    import random

    rng = random.Random(5)
    hashers = probe_hashers(123, ROLE_PROBE, 0, 100)
    for i in range(20_000):
        m = rng.randint(1, 100)
        k = rng.randint(1, m)
        out = distinct_k_set(b"f%d" % i, k, m, hashers)
        assert len(set(out)) == k and max(out) < m


def test_binomial_table_point_mass():
    tbl = build_binomial_table(100, 0.1, 7, 7)
    assert tbl.cdf == (1 << 64,)
    h = SeededHasher(0, 0)
    assert all(sample_conditioned(tbl, b"k%d" % i, h) == 7 for i in range(20))


def test_binomial_table_matches_pascal_oracle():
    # exact dyadic pmf via Pascal's triangle at p = 1/2
    n = 10
    pascal = [1]
    for _ in range(n):
        pascal = [a + b for a, b in zip([0] + pascal, pascal + [0])]
    exact_cdf = []
    acc = 0
    for c in pascal:
        acc += c
        exact_cdf.append(acc / 2.0**n)
    tbl = build_binomial_table(n, 0.5, 0, n)
    for got_fixed, want in zip(tbl.cdf, exact_cdf):
        assert abs(got_fixed / 2.0**64 - want) < 1e-12


def test_binomial_table_cooper_regime_tails():
    n = 1 << 16
    ln_n = math.log(n)
    lo, hi = math.ceil(ln_n / 2), math.floor(4 * ln_n)
    tbl = build_binomial_table(n, 2 * ln_n / n, lo, hi)
    assert tbl.tail_lo <= 1.0 / n
    assert tbl.tail_hi <= 1.0 / n


def test_binomial_table_empty_support():
    with pytest.raises(EmptySupport):
        build_binomial_table(1000, 1e-12, 900, 1000)


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.01, max_value=0.99),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_binomial_cdf_monotone_bounded(n, p, data):
    lo = data.draw(st.integers(min_value=0, max_value=n))
    hi = data.draw(st.integers(min_value=lo, max_value=n))
    try:
        tbl = build_binomial_table(n, p, lo, hi)
    except EmptySupport:
        return
    assert all(a < b for a, b in zip(tbl.cdf, tbl.cdf[1:]))
    assert tbl.cdf[-1] == 1 << 64
    assert all(0 < v <= 1 << 64 for v in tbl.cdf)


def test_sample_conditioned_hash_zero_hits_lowest_cell():
    tbl = build_binomial_table(50, 0.3, 5, 25)
    assert sample_conditioned(tbl, b"ignored", _StubHasher(0)) == 5


def test_sample_conditioned_always_in_bounds():
    for n in (1 << 10, 1 << 12, 1 << 14):
        ln_n = math.log(n)
        lo, hi = math.ceil(ln_n / 2), math.floor(4 * ln_n)
        tbl = build_binomial_table(n, 2 * ln_n / n, lo, hi)
        h = SeededHasher(n, 1)
        for i in range(2000):
            assert lo <= sample_conditioned(tbl, b"c%d" % i, h) <= hi


def test_sample_conditioned_pmf_chi_square():
    n = 4096
    ln_n = math.log(n)
    lo, hi = math.ceil(ln_n / 2), math.floor(4 * ln_n)
    tbl = build_binomial_table(n, 2 * ln_n / n, lo, hi)
    h = SeededHasher(77, 5)
    counts = [0] * (hi - lo + 1)
    for i in range(100_000):
        counts[sample_conditioned(tbl, b"m%d" % i, h) - lo] += 1
    assert chi_square_ok(counts, tbl.sample_probabilities())


def test_split_share_single_key():
    tables = build_split_share([b"only"], L=2, t=16, seed=1)
    assert tables.max_chunk == 1
    chunk = tables.chunk_of(b"only")
    v = split_share_eval(tables, chunk, 1, b"only")
    assert 0 <= v < 16
    assert v == split_share_eval(tables, chunk, 1, b"only")


def test_split_share_max_chunk_bound():
    keys = [b"ss%d" % i for i in range(10_000)]
    tables = build_split_share(keys, L=1, t=256, seed=2)
    assert tables.max_chunk <= 100  # sqrt(n)


def test_split_share_eval_constant_tables():
    tables = build_split_share([b"a", b"b", b"c"], L=1, t=64, seed=3, num_chunks=1, r_tab=4)
    tables.tables[0] = ([0, 0, 0, 0], [0, 0, 0, 0])
    assert all(split_share_eval(tables, 0, 1, k) == 0 for k in (b"a", b"b", b"c"))
    tables.tables[0] = ([7, 7, 7, 7], [0, 0, 0, 0])
    assert all(split_share_eval(tables, 0, 1, k) == 7 for k in (b"a", b"b", b"c"))


def test_split_share_eval_index_errors():
    tables = build_split_share([b"a"], L=1, t=4, seed=4)
    with pytest.raises(IndexOutOfRange):
        split_share_eval(tables, tables.num_chunks, 1, b"a")
    with pytest.raises(IndexOutOfRange):
        split_share_eval(tables, 0, 2, b"a")


def test_split_share_toy_exhaustive_uniformity():
    # 3 keys in one chunk, r_tab = 4, t = 2: over all 2^8 table fillings the
    # triple of simulated values must hit each of the 8 outcomes exactly 32x.
    keys = [b"a", b"b", b"c"]
    tables = build_split_share(keys, L=1, t=2, seed=11, num_chunks=1, r_tab=4)
    counts: dict[tuple, int] = {}
    for filling in product(range(2), repeat=8):
        tables.tables[0] = (list(filling[:4]), list(filling[4:]))
        outs = tuple(split_share_eval(tables, 0, 1, k) for k in keys)
        counts[outs] = counts.get(outs, 0) + 1
    assert len(counts) == 8
    assert set(counts.values()) == {32}


def test_split_share_pair_redraw_uniformity_on_coordinates():
    # fixed 8 keys in one chunk; redraw the shared tables many times and
    # check pairs of outputs look jointly uniform
    keys = [b"k%d" % i for i in range(8)]
    t = 1 << 16
    tables = build_split_share(keys, L=1, t=t, seed=6, num_chunks=1, r_tab=16)
    pair = tables.pairs[0]
    digests = [tables.digest(k) for k in keys]
    coords = [pair.values(d) for d in digests]
    redraw = SeededHasher(99, 0)
    counts = [[0] * 16 for _ in range(2)]
    pairs_checked = [(0, 1), (3, 7)]
    for it in range(10_000):
        t0 = [redraw.u64(b"t0:%d:%d" % (it, v)) % t for v in range(16)]
        t1 = [redraw.u64(b"t1:%d:%d" % (it, v)) % t for v in range(16)]
        outs = [(t0[v0] + t1[v1]) % t for v0, v1 in coords]
        for slot, (a, b) in enumerate(pairs_checked):
            bucket = (outs[a] >> 14) * 4 + (outs[b] >> 14)
            counts[slot][bucket] += 1
    for slot in range(2):
        stat = sum((c - 625.0) ** 2 / 625.0 for c in counts[slot])
        assert stat < CHI2_999[15]
