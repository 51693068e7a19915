"""Command-line front end.

Exit codes: 0 success, 1 usage error (including a parameter a command
rejects), 2 data error (unreadable path, parse, duplicate keys, verification
mismatch, corrupt container), 3 randomness exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import filters, phf, serial, thresholds
from .errors import DomainError, DuplicateKeys, ParseError, RandomnessExhausted, XorFuncError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RANDOMNESS = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit((EXIT_USAGE, f"{self.prog}: error: {message}"))


def ingest(path: str, fmt: str, r: int) -> list[tuple[bytes, int]]:
    """(key bytes, value) pairs from csv / tsv / binary-lines input.

    binary-lines treats each line as a bare key with value 0 (for filters
    and hash functions).  Values must parse as unsigned ints below 2^r.
    """
    sep = {"csv": b",", "tsv": b"\t"}.get(fmt)
    if fmt not in ("csv", "tsv", "binary-lines"):
        raise ParseError(f"unknown format {fmt!r}")
    pairs: list[tuple[bytes, int]] = []
    seen: dict[bytes, int] = {}
    data = Path(path).read_bytes()
    limit = 1 << r
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line:
            continue
        if sep is None:
            key, value = line, 0
        else:
            if sep not in line:
                raise ParseError(f"line {lineno}: missing {sep!r} separator")
            key, _, raw = line.partition(sep)
            try:
                value = int(raw)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad value {raw!r}") from exc
            if not 0 <= value < limit:
                raise ParseError(f"line {lineno}: value {value} out of range for r={r}")
        if key in seen:
            raise DuplicateKeys(f"line {lineno}: key seen before at line {seen[key]}")
        seen[key] = lineno
        pairs.append((key, value))
    return pairs


def _build_structure(args, pairs):
    params = filters.BackendParams(
        kind=args.backend,
        k=args.k,
        delta=args.delta,
        eps=args.eps,
        block_size=args.block_size,
        split_share=args.split_share,
    )
    keys = [key for key, _ in pairs]
    if args.kind in ("basic", "compact", "blocked"):
        params = replace(params, kind=args.kind)
        return filters.build_backend(pairs, r=args.bits, seed=args.seed, params=params)
    if args.kind == "filter":
        return filters.build_filter(keys, s=args.sig_bits, params=params, seed=args.seed)
    if args.kind == "bloomier":
        return filters.build_bloomier(
            pairs, r=args.bits, s=args.sig_bits, params=params, seed=args.seed
        )
    if args.kind == "phf":
        return phf.build_phf(keys, k=args.k, delta=args.delta, seed=args.seed)
    if args.kind == "mphf":
        return phf.build_mphf(keys, k=args.k, delta=args.delta, seed=args.seed)
    raise ParseError(f"unknown kind {args.kind!r}")


def _query_one(structure, key: bytes) -> str:
    """yes/no for a filter, "yes VALUE"/"no" for a Bloomier filter, else the number."""
    match structure.query(key):
        case bool(found):
            return "yes" if found else "no"
        case (True, value):
            return f"yes {value}"
        case (False, _):
            return "no"
        case answer:
            return str(answer)


def _stats_lines(structure) -> list[str]:
    total_bits = len(serial.serialize(structure)) * 8
    n, table_bits = structure.n, structure.table_bits
    lines = [
        f"type: {structure.kind}",
        f"n: {n}",
        f"m: {structure.m}",
        f"r: {structure.r}",
        f"table_bits: {table_bits}",
        f"header_bits: {total_bits - table_bits}",
        f"total_bits: {total_bits}",
    ]
    if n:
        lines.append(f"bits_per_key: {table_bits / n:.4f}")
        lines.append(f"total_bits_per_key: {total_bits / n:.4f}")
    return lines + structure.stats()


def _read_structure(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read structure file: {exc}") from exc
    return serial.deserialize(data)


def _cmd_build(args) -> int:
    pairs = ingest(args.input, args.format, args.bits)
    structure = _build_structure(args, pairs)
    Path(args.out).write_bytes(serial.serialize(structure))
    print(f"built kind={args.kind} n={len(pairs)} -> {args.out}")
    return EXIT_OK


def _cmd_query(args) -> int:
    structure = _read_structure(args.structure)
    if args.key is not None:
        keys = [args.key.encode()]
    else:
        keys = [line for line in Path(args.keys_file).read_bytes().split(b"\n") if line]
    for key in keys:
        print(_query_one(structure, key))
    return EXIT_OK


def _cmd_verify(args) -> int:
    structure = _read_structure(args.structure)
    pairs = ingest(args.input, args.format, structure.r or 64)
    if structure.verify(pairs):
        print(f"verified {len(pairs)} keys")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_DATA


def _cmd_stats(args) -> int:
    structure = _read_structure(args.structure)
    for line in _stats_lines(structure):
        print(line)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.queries < 1:
        raise ValueError("--queries must be >= 1")
    structure = _read_structure(args.structure)
    keys = [b"bench-%d" % i for i in range(args.queries)]
    start = time.perf_counter()
    for key in keys:
        _query_one(structure, key)
    elapsed = time.perf_counter() - start
    qps = args.queries / elapsed if elapsed > 0 else float("inf")
    print(f"queries: {args.queries}")
    print(f"seconds: {elapsed:.4f}")
    print(f"queries_per_sec: {qps:.0f}")
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    results = [(k, thresholds.beta_k(k, args.tol)) for k in range(args.k_min, args.k_max + 1)]
    print("k,beta,beta_approx,beta_inverse")  # after every k is accepted, so no partial CSV
    for k, res in results:
        print(f"{k},{res.beta:.5f},{thresholds.beta_approx(k):.5f},{res.beta_inverse:.5f}")
    return EXIT_OK


def _cmd_mc_rank(args) -> int:
    if args.n < 1 or args.trials < 1 or (args.ratio is not None and args.ratio <= 0):
        raise ValueError("need --n >= 1, --trials >= 1 and --ratio > 0")
    if args.m is not None:
        m = args.m
    elif args.ratio is not None:
        m = round(args.n / args.ratio)
    else:
        raise ValueError("need --m or --ratio")
    if args.field == "gf2":
        exp = thresholds.rank_mc_gf2(args.n, m, args.k, args.trials, args.seed)
    else:
        try:
            p = int(args.field.removeprefix("prime:"))
        except ValueError as exc:
            raise ValueError(f"bad field spec {args.field!r}") from exc
        exp = thresholds.rank_mc_weighted(
            args.n, m, args.k, p, args.trials, args.seed, plant=args.plant
        )
    print("k,n,m,trials,full_rank_count,fraction")
    print(
        f"{exp.k},{exp.n},{exp.m},{exp.trials},{exp.full_rank_count},{exp.fraction:.4f}"
    )
    return EXIT_OK


def _cmd_lower_bound(args) -> int:
    u = None if args.universe in (None, 0) else args.universe
    bound = filters.membership_lower_bound(args.n, args.epsilon, u)
    bloom_bits, retrieval_bits, lb = filters.bloom_comparison(args.n, args.epsilon)
    print(f"lower_bound_bits: {bound:.2f}")
    print(f"bloom_bits: {bloom_bits:.2f}")
    print(f"retrieval_bits: {retrieval_bits:.2f}")
    if args.exact and u is not None:
        print(f"counting_bound_bits: {filters.counting_lower_bound(args.n, args.epsilon, u)}")
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(prog="xorfunc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a structure from key/value input")
    b.add_argument("--kind", choices=serial.KINDS, required=True)
    b.add_argument("--input", required=True)
    b.add_argument("--format", choices=("csv", "tsv", "binary-lines"), default="csv")
    b.add_argument("--bits", type=int, default=8, help="value bits r")
    b.add_argument("--k", type=int, default=3, help="probes per key")
    b.add_argument("--delta", type=float, default=0.25)
    b.add_argument("--eps", type=float, default=0.10)
    b.add_argument("--block-size", type=int, default=64)
    b.add_argument("--sig-bits", type=int, default=8, help="signature bits s")
    b.add_argument("--backend", choices=filters.BACKEND_KINDS, default="basic")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--split-share", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="query a serialized structure")
    q.add_argument("--structure", required=True)
    group = q.add_mutually_exclusive_group(required=True)
    group.add_argument("--key")
    group.add_argument("--keys-file")
    q.set_defaults(func=_cmd_query)

    v = sub.add_parser("verify", help="check a structure against its input")
    v.add_argument("--structure", required=True)
    v.add_argument("--input", required=True)
    v.add_argument("--format", choices=("csv", "tsv", "binary-lines"), default="csv")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("stats", help="print size and shape numbers")
    s.add_argument("--structure", required=True)
    s.set_defaults(func=_cmd_stats)

    be = sub.add_parser("bench", help="measure query throughput")
    be.add_argument("--structure", required=True)
    be.add_argument("--queries", type=int, default=100000)
    be.set_defaults(func=_cmd_bench)

    t = sub.add_parser("thresholds", help="full-rank density thresholds as CSV")
    t.add_argument("--k-min", type=int, default=3)
    t.add_argument("--k-max", type=int, default=6)
    t.add_argument("--tol", type=float, default=1e-6)
    t.set_defaults(func=_cmd_thresholds)

    mc = sub.add_parser("mc-rank", help="Monte-Carlo full-rank experiment")
    mc.add_argument("--k", type=int, default=3)
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--ratio", type=float)
    mc.add_argument("--m", type=int)
    mc.add_argument("--trials", type=int, default=50)
    mc.add_argument("--field", default="gf2", help="gf2 or prime:P")
    mc.add_argument("--plant", action="store_true")
    mc.add_argument("--seed", type=int, default=0)
    mc.set_defaults(func=_cmd_mc_rank)

    lb = sub.add_parser("lower-bound", help="approximate-membership space bounds")
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--epsilon", type=float, required=True)
    lb.add_argument("--universe", type=int, default=None)
    lb.add_argument("--exact", action="store_true")
    lb.set_defaults(func=_cmd_lower_bound)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors routed through _Parser.error
        if isinstance(exc.code, tuple):
            code, message = exc.code
            print(message, file=sys.stderr)
            return code
        return EXIT_USAGE if exc.code else EXIT_OK
    except RandomnessExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANDOMNESS
    except (ValueError, DomainError) as exc:  # a parameter the command rejects, such as --k 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (XorFuncError, OSError) as exc:  # parse, duplicate-key, container and path errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())
