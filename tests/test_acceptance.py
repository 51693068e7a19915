"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Statistical criteria run with frozen seeds, so every number asserted here is
reproducible bit for bit.  The per-criterion lines are printed as each test
runs and again in the terminal summary, where capture cannot hide them.
"""

import math
import sys
import time
import warnings
from itertools import product

import pytest

from conftest import ACCEPTANCE_LINES
from xorfunc import basic, blocked, compact, filters, phf, serial, thresholds
from xorfunc.errors import BadCrc, BadMagic, ContainerError, RandomnessExhausted
from xorfunc.hashing import build_split_share, split_share_eval

pytestmark = pytest.mark.slow


def report(num, name, checks, elapsed):
    ok = all(bool(v) for _, v in checks)
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s)"
    failing = [label for label, v in checks if not v]
    if failing:
        line += "  failing: " + "; ".join(failing)
    ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def pairs_of(n, r=8, tag=b"key"):
    mask = (1 << r) - 1
    return [(b"%s%d" % (tag, i), (i * 2654435761) & mask) for i in range(n)]


def test_criterion_01_threshold_reproduction():
    t0 = time.time()
    exact = {3: 0.88949, 4: 0.96714, 5: 0.98916, 6: 0.99622}
    approx = {3: 0.9091, 4: 0.9690, 5: 0.9893, 6: 0.99624}
    checks = []
    for k in range(3, 7):
        res = thresholds.beta_k(k, 1e-5)
        checks.append((f"beta_{k}", abs(res.beta - exact[k]) <= 5e-4))
        checks.append((f"beta_approx_{k}", abs(thresholds.beta_approx(k) - approx[k]) <= 5e-4))
        checks.append((f"beta_inverse_{k}", abs(res.beta * res.beta_inverse - 1.0) < 1e-9))
    elapsed = time.time() - t0
    checks.append(("runtime<10s", elapsed < 10.0))
    report(1, "threshold reproduction (exact + approximation rows)", checks, elapsed)


def test_criterion_02_rank_phase_transition():
    t0 = time.time()
    dense = thresholds.rank_mc_gf2(2000, 2500, 3, trials=50, seed=1)  # n/m = 0.80
    sparse = thresholds.rank_mc_gf2(2000, 2062, 3, trials=50, seed=1)  # n/m ~ 0.97
    est3 = thresholds.empirical_threshold(3, 2000, trials=40, tol=0.005, seed=2)
    est4 = thresholds.empirical_threshold(4, 2000, trials=40, tol=0.005, seed=2)
    elapsed = time.time() - t0
    checks = [
        ("full-rank fraction >= 0.9 at ratio 0.80", dense.fraction >= 0.9),
        ("full-rank fraction <= 0.1 at ratio 0.97", sparse.fraction <= 0.1),
        (f"empirical k=3 ({est3:.4f}) within 0.03 of 0.88949", abs(est3 - 0.88949) <= 0.03),
        (f"empirical k=4 ({est4:.4f}) within 0.03 of 0.96714", abs(est4 - 0.96714) <= 0.03),
        ("estimates ordered: k=4 above k=3", est4 > est3),
        ("runtime<2min", elapsed < 120.0),
    ]
    report(2, "rank phase transition", checks, elapsed)


def test_criterion_03_basic_retrieval_correctness_and_space():
    t0 = time.time()
    n = 100_000
    pairs = pairs_of(n)
    d = basic.build(pairs, r=8, k=3, delta=0.25, seed=0)
    verified = basic.verify(d, pairs)
    table_bits_ok = d.table_bits == math.ceil(1.25 * n) * 8
    attempts = []
    for seed in range(20):
        attempts.append(basic.build(pairs, r=8, k=3, delta=0.25, seed=seed).seed_generation + 1)
    mean_attempts = sum(attempts) / len(attempts)
    elapsed = time.time() - t0
    checks = [
        ("build succeeded", True),
        ("verify passes on all keys", verified),
        ("table bits == ceil(1.25e5)*8", table_bits_ok),
        (f"mean attempts {mean_attempts:.2f} <= 1.5", mean_attempts <= 1.5),
        ("runtime<1min", elapsed < 60.0),
    ]
    report(3, "basic retrieval correctness + space", checks, elapsed)


def test_criterion_04_compact_retrieval():
    t0 = time.time()
    pairs = pairs_of(1024, tag=b"ck")
    successes = 0
    for seed in range(200):
        try:
            compact.build_compact(pairs, r=8, seed=seed, trial_cap=1)
            successes += 1
        except RandomnessExhausted:
            pass
    fraction = successes / 200
    d = compact.build_compact(pairs, r=8, seed=0)
    verified = all(compact.query_compact(d, k) == v for k, v in pairs)
    elapsed = time.time() - t0
    checks = [
        (f"attempt success fraction {fraction:.3f} in [0.15, 0.45]", 0.15 <= fraction <= 0.45),
        ("completed build verifies exactly", verified),
        ("table exactly n*r bits", d.table_bits == 1024 * 8),
        ("runtime<2min", elapsed < 120.0),
    ]
    report(4, "compact retrieval (square table)", checks, elapsed)


def test_criterion_05_blocked_retrieval():
    t0 = time.time()
    n = 1_000_000
    pairs = pairs_of(n)
    t_build0 = time.time()
    d = blocked.build_blocked(pairs, r=8, k=3, eps=0.10, delta=0.30, b=64, seed=0)
    t_small = time.time() - t_build0
    verified = blocked.verify_blocked(d, pairs)
    plan_ok = all(
        len(blocked.probe_plan(d, b"key%d" % i)) == 6 for i in range(0, n, 97)
    ) and d.secondary_len > 0
    overflow = d.overflow_fraction
    bits_ratio = d.table_bits / (n * 8)

    pairs2 = pairs_of(2 * n)
    t_build0 = time.time()
    blocked.build_blocked(pairs2, r=8, k=3, eps=0.10, delta=0.30, b=64, seed=0)
    t_large = time.time() - t_build0
    elapsed = time.time() - t0
    checks = [
        ("verify passes on all keys", verified),
        ("probe_plan length == 6 for every key", plan_ok),
        (f"overflow fraction {overflow:.4f} <= 0.20", overflow <= 0.20),
        (f"total table bits {bits_ratio:.3f}*n*r <= 1.6*n*r", bits_ratio <= 1.6),
        (f"time(2n)/time(n) = {t_large / t_small:.2f} <= 3", t_large / t_small <= 3.0),
        ("runtime<3min", elapsed < 180.0),
    ]
    report(5, "blocked retrieval (linear-time construction)", checks, elapsed)


def test_criterion_06_filter_false_positive_rate():
    t0 = time.time()
    keys = [b"fk%d" % i for i in range(10_000)]
    probes = 100_000
    checks = []
    for s, seed in ((8, 1), (4, 1), (12, 3)):
        f = filters.build_filter(keys, s=s, backend_kind="basic", seed=seed)
        fn = sum(not filters.query_filter(f, k) for k in keys)
        fp = sum(filters.query_filter(f, b"non%d" % i) for i in range(probes))
        expected = probes * 2.0**-s
        lo, hi = 0.7 * expected, 1.3 * expected
        checks.append((f"s={s}: zero false negatives", fn == 0))
        checks.append(
            (f"s={s}: fp {fp} within [{lo:.1f}, {hi:.1f}]", lo <= fp <= hi)
        )
    elapsed = time.time() - t0
    checks.append(("runtime<1min", elapsed < 60.0))
    report(6, "membership filter false-positive rate", checks, elapsed)


def test_criterion_07_lower_bound():
    t0 = time.time()
    infinite = filters.membership_lower_bound(1000, 2.0**-8, None)
    closed = filters.membership_lower_bound(100, 2.0**-4, 10**6)
    exact = filters.counting_lower_bound(100, 2.0**-4, 10**6)
    elapsed = time.time() - t0
    checks = [
        ("infinite-universe bound == 8000 bits exactly", infinite == 8000.0),
        (
            f"closed form {closed:.2f} within 2 bits of counting oracle {exact}",
            abs(closed - exact) <= 2.0,
        ),
        ("runtime<1s", elapsed < 1.0),
    ]
    report(7, "approximate-membership space lower bound", checks, elapsed)


def test_criterion_08_perfect_hashing():
    t0 = time.time()
    n = 10_000
    keys = [b"pk%d" % i for i in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = phf.build_phf(keys, k=4, delta=0.035, seed=0)
        mp = phf.build_mphf(keys, k=4, delta=0.035, seed=0)
    outs = [phf.eval_phf(p, k) for k in keys]
    mphf_outs = sorted(phf.eval_mphf(mp, k) for k in keys)
    mphf_bits = mp.bits_per_key
    elapsed = time.time() - t0
    checks = [
        ("m == ceil(1.035 n)", p.m == math.ceil(1.035 * n)),
        ("eval injective on all keys", len(set(outs)) == n),
        ("lambda table 2 bits/slot", p.r_lambda == 2),
        ("2.07 bits/key exactly", p.table_bits == 2 * math.ceil(1.035 * n)),
        ("mphf is a bijection onto [n]", mphf_outs == list(range(n))),
        (f"mphf measured {mphf_bits:.3f} bits/key reported", mphf_bits > 0),
        ("runtime<2min", elapsed < 120.0),
    ]
    note = (
        f"    [criterion 08 note] measured MPHF space {mphf_bits:.3f} bits/key "
        "(Elias-Fano list of unused slots; asymptotic figure 2.29 not asserted)"
    )
    ACCEPTANCE_LINES.append(note)
    sys.__stdout__.write(note + "\n")
    report(8, "perfect hashing + minimal perfect hashing", checks, elapsed)


def test_criterion_09_weighted_full_rank():
    t0 = time.time()
    p = (1 << 31) - 1
    exp = thresholds.rank_mc_weighted(200, 220, 3, p=p, trials=200, seed=0, plant=True)
    failure = 1.0 - exp.fraction
    bound = 200 / p + 0.05
    elapsed = time.time() - t0
    checks = [
        (f"failure fraction {failure:.4f} <= n/p + 0.05 = {bound:.4f}", failure <= bound),
        ("runtime<1min", elapsed < 60.0),
    ]
    report(9, "weighted full-rank bound over a large prime field", checks, elapsed)


def test_criterion_10_split_and_share():
    t0 = time.time()
    pairs = pairs_of(10_000, tag=b"sk")
    d = basic.build(pairs, r=8, k=3, delta=0.25, seed=4, split_share=True)
    verified = basic.verify(d, pairs)

    keys = [b"a", b"b", b"c"]
    tables = build_split_share(keys, L=1, t=2, seed=11, num_chunks=1, r_tab=4)
    counts: dict[tuple, int] = {}
    for filling in product(range(2), repeat=8):
        tables.tables[0] = (list(filling[:4]), list(filling[4:]))
        outs = tuple(split_share_eval(tables, 0, 1, k) for k in keys)
        counts[outs] = counts.get(outs, 0) + 1
    uniform = len(counts) == 8 and set(counts.values()) == {32}
    elapsed = time.time() - t0
    checks = [
        ("split-share build succeeds and verifies", verified),
        ("toy enumeration: joint outputs exactly uniform", uniform),
        ("runtime<1min", elapsed < 60.0),
    ]
    report(10, "split-and-share simulated randomness", checks, elapsed)


def test_criterion_11_serialization():
    t0 = time.time()
    checks = []
    for n in (1, 10, 2000):
        pairs = pairs_of(n, tag=b"se")
        keys = [k for k, _ in pairs]
        small = n < 16
        backend = filters.BackendParams(
            kind="basic", k=2 if small else 3, delta=1.0 if small else 0.25
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            structures = {
                "basic": basic.build(
                    pairs, r=8, k=2 if small else 3, delta=1.0 if small else 0.25, seed=1
                ),
                "compact": compact.build_compact(pairs, r=8, seed=2),
                "blocked": blocked.build_blocked(
                    pairs, r=8, k=3, eps=0.1, delta=0.3, b=16, seed=3
                ),
                "filter": filters.build_filter(keys, s=8, params=backend, seed=4),
                "bloomier": filters.build_bloomier(pairs, r=8, s=8, params=backend, seed=5),
                "phf": phf.build_phf(
                    keys, k=2 if small else 4, delta=1.0 if small else 0.25, seed=6
                ),
                "mphf": phf.build_mphf(
                    keys, k=2 if small else 4, delta=1.0 if small else 0.25, seed=7
                ),
            }
        for kind, st in structures.items():
            blob = serial.serialize(st)
            restored = serial.deserialize(blob)
            identical = serial.serialize(restored) == blob
            if kind == "basic":
                good = basic.verify(restored, pairs)
            elif kind == "compact":
                good = (
                    basic.verify(restored, pairs)
                    if isinstance(restored, basic.RetrievalStructure)
                    else all(compact.query_compact(restored, k) == v for k, v in pairs)
                )
            elif kind == "blocked":
                good = blocked.verify_blocked(restored, pairs)
            elif kind == "filter":
                good = all(filters.query_filter(restored, k) for k in keys)
            elif kind == "bloomier":
                good = all(filters.query_bloomier(restored, k) == (True, v) for k, v in pairs)
            elif kind == "phf":
                good = len({phf.eval_phf(restored, k) for k in keys}) == n
            else:
                good = sorted(phf.eval_mphf(restored, k) for k in keys) == list(range(n))
            checks.append((f"{kind}@n={n} round-trip verify + byte-identical", good and identical))
        corrupted = bytearray(serial.serialize(structures["basic"]))
        corrupted[len(corrupted) // 2] ^= 0x04
        try:
            serial.deserialize(bytes(corrupted))
            detected = False
        except (BadCrc, BadMagic, ContainerError):
            detected = True
        checks.append((f"bit corruption detected @n={n}", detected))
    elapsed = time.time() - t0
    checks.append(("runtime<30s", elapsed < 30.0))
    report(11, "serialization round-trip + corruption detection", checks, elapsed)
