#!/usr/bin/env python3
"""Measure blocked-retrieval construction scaling and overflow breakdown.

Usage: python scripts/blocked_scaling.py --sizes 125000,250000,500000,1000000
Reports per-size build time, overflow fraction split into oversize blocks
(more keys than segment columns, so never full rank) and singular blocks,
and total table bits per key-bit.
"""

import argparse
import time

import numpy as np

from xorfunc.blocked import build_blocked


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="125000,250000,500000,1000000")
    ap.add_argument("--r", type=int, default=8)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--eps", type=float, default=0.10)
    ap.add_argument("--delta", type=float, default=0.30)
    ap.add_argument("--b", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("n,seconds,overflow_fraction,oversize_fraction,singular_fraction,table_bits_over_nr")
    for n in (int(s) for s in args.sizes.split(",")):
        pairs = [(b"key%d" % i, i % (1 << args.r)) for i in range(n)]
        start = time.perf_counter()
        d = build_blocked(
            pairs, r=args.r, k=args.k, eps=args.eps, delta=args.delta, b=args.b,
            seed=args.seed,
        )
        elapsed = time.perf_counter() - start

        # recount which overflow keys came from blocks that cannot be full rank
        sizes = np.bincount(d.primary_rows([key for key, _ in pairs])[0], minlength=d.m0)
        oversize_keys = int(sizes[sizes > d.segment_len].sum())
        singular_keys = d.overflow_count - oversize_keys
        print(
            f"{n},{elapsed:.2f},{d.overflow_fraction:.4f},"
            f"{oversize_keys / n:.4f},{singular_keys / n:.4f},"
            f"{d.table_bits / (n * args.r):.4f}"
        )


if __name__ == "__main__":
    main()
