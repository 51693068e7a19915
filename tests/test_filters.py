import math

import pytest

from xorfunc import serial
from xorfunc.errors import DomainError
from xorfunc.filters import (
    BackendParams,
    bloom_comparison,
    build_bloomier,
    build_filter,
    counting_lower_bound,
    membership_lower_bound,
    query_bloomier,
    query_filter,
)

LOG2_E = math.log2(math.e)


def keys_of(n, tag=b"fk"):
    return [b"%s%d" % (tag, i) for i in range(n)]


def test_zero_signature_bits_accepts_everything():
    f = build_filter(keys_of(100), s=0, seed=1)
    assert query_filter(f, b"member or not")
    assert query_filter(f, b"fk0")


@pytest.mark.parametrize("kind", ["basic", "compact", "blocked"])
def test_zero_signature_filter_reports_one_backend_line_fresh_or_reloaded(kind):
    f = build_filter(keys_of(100), s=0, params=BackendParams(kind=kind), seed=1)
    loaded = serial.deserialize(serial.serialize(f))
    assert f.stats() == loaded.stats()
    assert [line for line in f.stats() if line.startswith("backend:")] == ["backend: none"]


def test_zero_signature_filter_rejects_unknown_backend_kind():
    with pytest.raises(ValueError, match="unknown backend kind"):
        build_filter(keys_of(10), s=0, params=BackendParams(kind="nope"))
    with pytest.raises(ValueError, match="unknown backend kind"):
        build_filter(keys_of(10), s=0, backend_kind="nope")


def test_no_false_negatives():
    keys = keys_of(2000)
    f = build_filter(keys, s=8, seed=2)
    assert all(query_filter(f, k) for k in keys)


def test_false_positive_rate_near_two_to_minus_s():
    keys = keys_of(2000)
    f = build_filter(keys, s=8, seed=3)
    probes = 40_000
    fp = sum(query_filter(f, b"nm%d" % i) for i in range(probes))
    expected = probes * 2.0**-8
    assert 0.6 * expected <= fp <= 1.4 * expected


def test_signature_seed_changes_false_positive_set():
    keys = keys_of(500)
    f1 = build_filter(keys, s=6, seed=4)
    f2 = build_filter(keys, s=6, seed=5)
    diff = sum(
        query_filter(f1, b"x%d" % i) != query_filter(f2, b"x%d" % i) for i in range(5000)
    )
    assert diff > 0
    assert all(query_filter(f1, k) and query_filter(f2, k) for k in keys)


def test_compact_and_blocked_backends():
    keys = keys_of(600)
    for kind, params in (
        ("compact", BackendParams(kind="compact")),
        ("blocked", BackendParams(kind="blocked", block_size=32)),
    ):
        f = build_filter(keys, s=8, backend_kind=kind, params=params, seed=5)
        assert all(query_filter(f, k) for k in keys)


def test_split_share_backend():
    keys = keys_of(800)
    f = build_filter(
        keys, s=8, params=BackendParams(kind="basic", split_share=True), seed=6
    )
    assert all(query_filter(f, k) for k in keys)


def test_params_alone_pick_the_backend_kind():
    keys = keys_of(300)
    params = BackendParams(kind="blocked", block_size=32)
    f = build_filter(keys, s=8, params=params, seed=10)
    b = build_bloomier([(k, i % 16) for i, k in enumerate(keys)], r=4, s=8, params=params)
    for built in (f, b):
        assert built.backend_kind == "blocked"
        assert built.backend.kind == "blocked"
    assert build_filter(keys, s=8, backend_kind="compact", seed=10).backend_kind == "compact"


def test_conflicting_backend_kind_is_rejected():
    params = BackendParams(kind="blocked")
    with pytest.raises(ValueError, match="differs"):
        build_filter(keys_of(50), s=8, backend_kind="basic", params=params)
    with pytest.raises(ValueError, match="differs"):
        build_bloomier([(b"a", 1)], r=4, s=8, backend_kind="compact", params=params)


def test_bloomier_members_roundtrip():
    pairs = [(b"bl%d" % i, i % 16) for i in range(1500)]
    f = build_bloomier(pairs, r=4, s=8, seed=7)
    assert all(query_bloomier(f, k) == (True, v) for k, v in pairs)


def test_bloomier_zero_s_always_returns_value():
    pairs = [(b"b0%d" % i, i % 8) for i in range(200)]
    f = build_bloomier(pairs, r=3, s=0, seed=8)
    found, value = query_bloomier(f, b"not a member")
    assert found and 0 <= value < 8


def test_bloomier_rejects_most_non_members():
    pairs = [(b"br%d" % i, i % 16) for i in range(1000)]
    f = build_bloomier(pairs, r=4, s=8, seed=9)
    accepted = sum(query_bloomier(f, b"nm%d" % i)[0] for i in range(40_000))
    expected = 40_000 * 2.0**-8
    assert 0.6 * expected <= accepted <= 1.4 * expected


def test_bloomier_width_limit():
    with pytest.raises(ValueError):
        build_bloomier([(b"a", 1)], r=60, s=8)


def test_lower_bound_infinite_universe_exact():
    assert membership_lower_bound(1000, 2.0**-8, None) == 8000.0


def test_lower_bound_epsilon_one_is_zero():
    assert membership_lower_bound(50, 1.0, None) == 0.0


def test_lower_bound_matches_counting_oracle():
    closed = membership_lower_bound(100, 2.0**-4, 10**6)
    exact = counting_lower_bound(100, 2.0**-4, 10**6)
    assert abs(closed - exact) <= 2.0


def test_lower_bound_converges_to_infinite_universe_value():
    base = membership_lower_bound(200, 2.0**-6, None)
    assert abs(membership_lower_bound(200, 2.0**-6, 10**12) - base) < 1e-3


def test_lower_bound_monotone_in_n_and_inverse_epsilon():
    vals_n = [membership_lower_bound(n, 2.0**-6, 10**7) for n in range(10, 200, 10)]
    assert all(a <= b for a, b in zip(vals_n, vals_n[1:]))
    vals_eps = [membership_lower_bound(100, 2.0**-s, 10**7) for s in range(1, 16)]
    assert all(a <= b for a, b in zip(vals_eps, vals_eps[1:]))


def test_lower_bound_domain_errors():
    with pytest.raises(DomainError):
        membership_lower_bound(0, 0.5, None)
    with pytest.raises(DomainError):
        membership_lower_bound(10, 1.5, None)
    with pytest.raises(DomainError):
        membership_lower_bound(10, 0.5, 10)


def test_bloom_comparison_values():
    bloom, retrieval, lower = bloom_comparison(1000, 0.5)
    assert abs(bloom - 1000 * LOG2_E) < 1e-9
    assert retrieval == lower == 1000.0
    assert bloom_comparison(1000, 1.0) == (0.0, 0.0, 0.0)
    bloom, _, lower = bloom_comparison(500, 2.0**-10)
    assert abs(bloom / lower - LOG2_E) < 1e-12
