import math

import pytest

from xorfunc import basic, blocked, phf
from xorfunc.errors import ConvergenceFailure, DomainError
from xorfunc.thresholds import (
    beta_approx,
    beta_k,
    beta_k_cached,
    calkin_f,
    empirical_threshold,
    rank_mc_gf2,
    rank_mc_weighted,
)


def test_rate_function_vanishes_at_one_half():
    for beta in (0.1, 0.7, 0.95):
        for k in (3, 4, 7):
            assert abs(calkin_f(0.5, beta, k)) < 1e-12


def test_rate_function_limit_at_zero():
    ln2 = math.log(2)
    for beta in (0.6, 0.9):
        want = -ln2 + beta * ln2
        assert abs(calkin_f(1e-9, beta, 3) - want) < 1e-6


def test_rate_function_domain():
    with pytest.raises(DomainError):
        calkin_f(0.0, 0.9, 3)
    with pytest.raises(DomainError):
        calkin_f(1.0, 0.9, 3)
    # odd powers with alpha above 1/2 stay defined (signed power)
    assert math.isfinite(calkin_f(0.75, 0.9, 3))


def test_rate_function_touches_zero_at_threshold():
    from xorfunc.thresholds import _max_f

    assert abs(_max_f(0.88949, 3)) < 2e-4


def test_beta_k_matches_table_values():
    assert abs(beta_k(3, 1e-5).beta - 0.88949) < 5e-4
    assert abs(beta_k(4, 1e-5).beta - 0.96714) < 5e-4


def test_beta_inverse_consistent():
    res = beta_k(3, 1e-5)
    assert abs(res.beta * res.beta_inverse - 1.0) < 1e-12
    assert res.method == "exact_eq10"


def test_beta_k_increasing_in_k():
    vals = [beta_k(k, 1e-5).beta for k in range(3, 9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cached_threshold_falls_back_to_the_closed_form_past_k_28():
    assert beta_k_cached(28) == beta_k(28, 1e-6).beta
    with pytest.raises(ConvergenceFailure):
        beta_k(29)
    assert beta_k_cached(29) == beta_approx(29)


@pytest.mark.parametrize(
    "build",
    [
        lambda pairs: basic.build(pairs, r=8, k=29),
        lambda pairs: blocked.build_blocked(pairs, r=8, k=29),
        lambda pairs: phf.build_mphf([key for key, _ in pairs], k=29, delta=0.1),
    ],
    ids=["basic", "blocked", "mphf"],
)
def test_builders_take_k_beyond_the_bisection_range(build):
    pairs = [(b"key%d" % i, i % 256) for i in range(2000)]
    structure = build(pairs)
    assert "k: 29" in structure.stats() and structure.verify(pairs)


def test_beta_approx_spot_values():
    assert abs(beta_approx(3) - 0.9091) < 5e-4
    assert abs(beta_approx(5) - 0.9893) < 5e-4


def test_beta_approx_approaches_one_from_below():
    vals = [beta_approx(k) for k in range(3, 30)]
    assert all(v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals[5:], vals[6:]))


def test_approximation_error_shrinks_with_k():
    # tolerance well below the smallest gap so bisection slop cannot reorder
    errs = [abs(beta_k(k, 1e-7).beta - beta_approx(k)) for k in range(4, 9)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_rank_mc_identical_allones_rows():
    exp = rank_mc_gf2(5, 5, 5, trials=10, seed=0)
    assert exp.full_rank_count == 0


def test_rank_mc_fraction_transition():
    high = rank_mc_gf2(800, 1000, 3, trials=25, seed=1).fraction
    low = rank_mc_gf2(800, 810, 3, trials=25, seed=1).fraction
    assert high >= 0.8
    assert low <= 0.3


def test_rank_mc_monotone_in_n_with_nested_rows():
    # row i's probe set does not depend on n, so the n=800 matrix extends the
    # n=600 one; full rank at 800 rows implies full rank of the prefix
    trials = 25
    small = rank_mc_gf2(600, 900, 3, trials=trials, seed=2)
    large = rank_mc_gf2(800, 900, 3, trials=trials, seed=2)
    assert small.full_rank_count >= large.full_rank_count


def test_weighted_vacuous_bound_still_reports():
    exp = rank_mc_weighted(5, 8, 3, p=2, trials=20, seed=3)
    assert exp.trials == 20
    assert 0 <= exp.full_rank_count <= 20
    assert exp.field == "prime(2)"


def test_weighted_planted_identity_always_full_rank():
    exp = rank_mc_weighted(
        30, 40, 3, p=101, trials=15, seed=4, plant=True, identity_weights=True
    )
    assert exp.full_rank_count == 15


def test_weighted_planted_success_at_moderate_prime():
    exp = rank_mc_weighted(100, 110, 3, p=211, trials=60, seed=5, plant=True)
    assert exp.fraction >= 0.5


def test_weighted_rejects_composite_or_huge_p():
    with pytest.raises(ValueError):
        rank_mc_weighted(5, 8, 3, p=10, trials=1)
    with pytest.raises(ValueError):
        rank_mc_weighted(5, 8, 3, p=(1 << 31) + 11, trials=1)


def test_empirical_threshold_sane_window():
    est = empirical_threshold(3, 500, trials=20, tol=0.01, seed=6)
    assert 0.84 <= est <= 0.97
