#!/usr/bin/env python3
"""Measure minimal-perfect-hash construction scaling and the size of its dense core.

Usage: python scripts/mphf_scaling.py --sizes 10000,20000,50000
Builds at the paper's MPHF parameters (k = 4, delta = 0.035, seed 0) over the
keys b"key0", b"key1", ...  Reports per-size build time, the rows left in
the core after peeling, the dense system that lazy elimination hands to
``gf2.eliminate`` (rows x columns), container bits per key, the median
time of one ``eval_mphf`` call over the built keys (``query_us``) and the
process's peak RSS so far.  The core and dense sizes are those of the last
generation tried, the one kept.
"""

import argparse
import resource
import statistics
import time

from xorfunc import gf2, serial
from xorfunc.phf import build_mphf, eval_mphf

K, DELTA, SEED = 4, 0.035, 0


def median_query_us(h, keys) -> float:
    """Median single-key ``eval_mphf`` time over ``keys``, in microseconds."""
    times = []
    for key in keys:
        start = time.perf_counter_ns()
        eval_mphf(h, key)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1000


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10000,20000,50000")
    args = ap.parse_args()

    seen = {}
    peel, eliminate = gf2.peel, gf2.eliminate

    def peel_and_record(probe_rows, n_cols):
        peel_order, core = peel(probe_rows, n_cols)
        seen.update(core_rows=len(core), dense_rows=0, dense_cols=0)
        return peel_order, core

    def eliminate_and_record(arr, n_cols):
        seen.update(dense_rows=arr.shape[0], dense_cols=n_cols)
        return eliminate(arr, n_cols)

    gf2.peel, gf2.eliminate = peel_and_record, eliminate_and_record
    print("n,seconds,core_rows,dense_rows,dense_cols,bits_per_key,query_us,peak_rss_mb")
    for n in (int(s) for s in args.sizes.split(",")):
        keys = [b"key%d" % i for i in range(n)]
        start = time.perf_counter()
        h = build_mphf(keys, k=K, delta=DELTA, seed=SEED)
        elapsed = time.perf_counter() - start
        bits_per_key = 8 * len(serial.serialize(h)) / n
        query_us = median_query_us(h, keys)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{n},{elapsed:.2f},{seen['core_rows']},{seen['dense_rows']},{seen['dense_cols']},"
            f"{bits_per_key:.4f},{query_us:.2f},{peak_rss_mb:.1f}"
        )


if __name__ == "__main__":
    main()
