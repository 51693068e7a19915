"""Numerical lab for full-rank thresholds of sparse random GF(2) matrices.

The critical density beta_k is characterized as the least beta at which
f(alpha, beta) = -ln 2 - alpha ln alpha - (1-alpha) ln(1-alpha)
                 + beta ln(1 + (1-2 alpha)^k)
touches zero for some alpha in (0, 1/2).  Alongside the exact root we expose
the closed-form large-k approximation and Monte-Carlo rank experiments over
GF(2) and over prime fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .gf2 import system_full_rank
from .hashing import ROLE_PROBE, SeededHasher, distinct_k_rows, distinct_k_set, fn_index

_GRID_POINTS = 1024
_GOLDEN_STEPS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ThresholdResult:
    k: int
    beta: float
    beta_inverse: float
    method: str


@dataclass(frozen=True)
class RankExperiment:
    n: int
    m: int
    k: int
    trials: int
    full_rank_count: int
    field: str

    @property
    def fraction(self) -> float:
        return self.full_rank_count / self.trials if self.trials else 0.0


def calkin_f(alpha: float, beta: float, k: int) -> float:
    """Rate function whose sign change over alpha locates the threshold."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha {alpha} outside (0, 1)")
    return (
        -math.log(2.0)
        - alpha * math.log(alpha)
        - (1.0 - alpha) * math.log(1.0 - alpha)
        + beta * math.log1p((1.0 - 2.0 * alpha) ** k)
    )


def _f_grid(alpha: np.ndarray, beta: float, k: int) -> np.ndarray:
    return (
        -math.log(2.0)
        - alpha * np.log(alpha)
        - (1.0 - alpha) * np.log(1.0 - alpha)
        + beta * np.log1p((1.0 - 2.0 * alpha) ** k)
    )


def _alpha_grid() -> np.ndarray:
    # Log-spaced points cover the exponentially small maximizer at larger k;
    # alpha above 0.45 is excluded because f tends to 0 from below at 1/2,
    # which would otherwise mask the genuine interior maximum.
    small = np.geomspace(1e-12, 0.05, _GRID_POINTS // 2, endpoint=False)
    bulk = np.linspace(0.05, 0.45, _GRID_POINTS - _GRID_POINTS // 2)
    return np.concatenate([small, bulk])


def _max_f(beta: float, k: int) -> float:
    """sup over alpha in (0, 1/2): dense grid then golden-section refinement."""
    grid = _alpha_grid()
    vals = _f_grid(grid, beta, k)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, _GRID_POINTS - 1)]
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    for _ in range(_GOLDEN_STEPS):
        if calkin_f(c, beta, k) > calkin_f(d, beta, k):
            hi = d
        else:
            lo = c
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
    mid = 0.5 * (lo + hi)
    return max(float(vals[i]), calkin_f(mid, beta, k))


def beta_k(k: int, tol: float = 1e-6) -> ThresholdResult:
    """Least beta where the rate function reaches zero inside (0, 1/2)."""
    if k < 3:
        raise ValueError("characterization requires k >= 3")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = 0.5, 1.0
    if _max_f(lo, k) > 0.0 or _max_f(hi, k) <= 0.0:
        raise ConvergenceFailure("bisection endpoints do not bracket the threshold")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _max_f(mid, k) > 0.0:
            hi = mid
        else:
            lo = mid
    beta = 0.5 * (lo + hi)
    return ThresholdResult(k=k, beta=beta, beta_inverse=1.0 / beta, method="exact_eq10")


_BETA_CACHE: dict[int, float] = {}


def beta_k_cached(k: int) -> float:
    """beta_k, or beta_approx where the bisection cannot bracket it (k >= 29).

    There the rate function's sign cannot be resolved in double precision,
    and the closed form is accurate: 1 - beta_k is near e^-k / ln 2.
    """
    if k not in _BETA_CACHE:
        try:
            _BETA_CACHE[k] = beta_k(k, 1e-6).beta
        except ConvergenceFailure:
            _BETA_CACHE[k] = beta_approx(k)
    return _BETA_CACHE[k]


def beta_approx(k: int) -> float:
    """Truncated large-k expansion of the threshold."""
    if k < 3:
        raise ValueError("approximation stated for k >= 3")
    ln2 = math.log(2.0)
    correction = (k * k - 2.0 * k + 2.0 * k / ln2 - 1.0) * math.exp(-2.0 * k) / (2.0 * ln2)
    return 1.0 - math.exp(-k) / ln2 - correction


def rank_mc_gf2(n: int, m: int, k: int, trials: int, seed: int = 0) -> RankExperiment:
    """Count full-row-rank events for random weight-k row matrices."""
    if k > m:
        raise ValueError("k must be <= m")
    full = 0
    row_keys = [str(i).encode() for i in range(n)]
    for trial in range(trials):
        words = SeededHasher(seed, fn_index(ROLE_PROBE, trial), width=k).word_rows(row_keys)
        rows = distinct_k_rows(words, k, m)
        if system_full_rank(rows, m) is not None:
            full += 1
    return RankExperiment(n=n, m=m, k=k, trials=trials, full_rank_count=full, field="gf2")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _prime_rank(mat: np.ndarray, p: int) -> int:
    """Row rank over Z_p by modular elimination (p < 2^31 keeps int64 exact)."""
    a = np.mod(mat.astype(np.int64), p)
    n, m = a.shape
    pr = 0
    for c in range(m):
        if pr == n:
            break
        nz = np.nonzero(a[pr:, c])[0]
        if nz.size == 0:
            continue
        q = pr + int(nz[0])
        if q != pr:
            a[[pr, q]] = a[[q, pr]]
        inv = pow(int(a[pr, c]), p - 2, p)
        below = pr + nz[1:]
        if below.size:
            factors = (a[below, c] * inv) % p
            a[below] = (a[below] - factors[:, None] * a[pr]) % p
        pr += 1
    return pr


def rank_mc_weighted(
    n: int,
    m: int,
    k: int,
    p: int,
    trials: int,
    seed: int = 0,
    plant: bool = False,
    identity_weights: bool = False,
) -> RankExperiment:
    """Full-rank counts when the 1-entries are replaced by random field values.

    With ``plant`` the probe sets embed an injective placement (row i covers
    column i), so they are suitable by construction and the failure rate is
    governed by the n/|F| polynomial-identity bound.  ``identity_weights``
    is a test hook: weight 1 on the planted diagonal, 0 elsewhere.
    """
    if not _is_prime(p) or p >= 1 << 31:
        raise ValueError("p must be a prime below 2^31")
    if plant and m < n:
        raise ValueError("planting an injective placement needs m >= n")
    if k > m:
        raise ValueError("k must be <= m")
    full = 0
    row_keys = [str(i).encode() for i in range(n)]
    for trial in range(trials):
        words = SeededHasher(seed, fn_index(ROLE_PROBE, trial), width=k).words
        rng = np.random.default_rng((seed & 0xFFFFFFFF, trial))
        mat = np.zeros((n, m), dtype=np.int64)
        for i, key in enumerate(row_keys):
            probes = list(distinct_k_set(words(key), k, m))
            if plant and i not in probes:
                probes[-1] = i
            if identity_weights:
                weights = [1 if j == i else 0 for j in probes]
            else:
                weights = rng.integers(0, p, size=k).tolist()
            mat[i, probes] = weights
        if _prime_rank(mat, p) == n:
            full += 1
    return RankExperiment(
        n=n, m=m, k=k, trials=trials, full_rank_count=full, field=f"prime({p})"
    )


def empirical_threshold(
    k: int, n: int, trials: int = 40, tol: float = 0.005, seed: int = 0
) -> float:
    """n/m ratio where the measured full-rank fraction crosses one half."""
    m_lo = n  # ratio 1.0: essentially never full rank for k >= 3
    m_hi = math.ceil(n / 0.75)
    frac = lambda m: rank_mc_gf2(n, m, k, trials, seed).fraction
    if frac(m_lo) >= 0.5 or frac(m_hi) < 0.5:
        raise ConvergenceFailure("bracket endpoints do not straddle the crossover")
    while (n / m_lo - n / m_hi) > tol and m_hi - m_lo > 1:
        mid = (m_lo + m_hi) // 2
        if frac(mid) >= 0.5:
            m_hi = mid
        else:
            m_lo = mid
    return n / (0.5 * (m_lo + m_hi))
