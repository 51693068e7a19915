import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorfunc.bitvector import RankBitvector
from xorfunc.errors import IndexOutOfRange


def test_all_zero_vector():
    v = RankBitvector([0] * 1000)
    assert all(v.rank1(i) == 0 for i in range(0, 1001, 37))


def test_all_one_vector():
    v = RankBitvector([1] * 1000)
    assert all(v.rank1(i) == i for i in range(0, 1001, 37))


def test_random_vector_matches_prefix_sum_oracle():
    rng = random.Random(3)
    bits = [rng.randrange(2) for _ in range(100_000)]
    prefix = [0]
    for b in bits:
        prefix.append(prefix[-1] + b)
    v = RankBitvector(bits)
    for _ in range(1000):
        i = rng.randint(0, 100_000)
        assert v.rank1(i) == prefix[i]


def test_rank_steps_are_zero_or_one():
    rng = random.Random(5)
    bits = [rng.randrange(2) for _ in range(5000)]
    v = RankBitvector(bits)
    prev = 0
    for i in range(1, 5001):
        cur = v.rank1(i)
        assert cur - prev in (0, 1)
        assert (cur - prev == 1) == bool(bits[i - 1])
        prev = cur


def test_index_out_of_range():
    v = RankBitvector([1, 0, 1])
    with pytest.raises(IndexOutOfRange):
        v.rank1(4)
    with pytest.raises(IndexOutOfRange):
        v.rank1(-1)


def test_empty_vector():
    v = RankBitvector([])
    assert v.rank1(0) == 0
    assert v.length == 0


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=300))
@settings(max_examples=100, deadline=None)
def test_rank_matches_running_count(bits):
    v = RankBitvector(bits)
    running = 0
    for i, b in enumerate(bits):
        assert v.rank1(i) == running
        running += b
    assert v.rank1(len(bits)) == running
