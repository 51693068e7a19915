"""Build/query benchmark for xorfunc.

Run from the repository root:

    python3 perfbench/run.py --workload retrieval_basic --seed 1 --seconds 40 --trace 0

One process, one thread, one closed-loop caller: each query is issued after
the previous one returns.  An iteration builds the structure from the
generated inputs, serializes it, loads it back, runs ``xorfunc verify``
in-process through ``cli.main`` over every key, and then issues the
workload's single-key query stream against the loaded structure.  Iterations
repeat for about ``--seconds`` (at least two run).  Every answer is checked
on every iteration.

``--trace 0`` prints the end-to-end metrics (see ``run_untraced``).
``--trace 1`` wraps the library's layer functions (see ``layertrace.py``)
and prints the per-layer metrics of one iteration, as medians over the run's
iterations; each traced iteration is preceded by an untraced build, which
gives ``trace.overhead_ratio`` and must produce a byte-identical container.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it start
with ``#`` and carry the full report.  ``--out PATH`` also writes a JSON
record with the stamp, container hash and trace table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import xorfunc
    from xorfunc import cli, serial
except ImportError as exc:
    print(f"perfbench: cannot import xorfunc from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(xorfunc.__file__).resolve().is_relative_to(SRC.resolve()):
    print(f"perfbench: xorfunc was imported from {xorfunc.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

import layertrace  # noqa: E402  (needs xorfunc on the path)
from workloads import WORKLOADS, Check  # noqa: E402


def stamp() -> dict:
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    # the ceiling stops git from reporting a repository that merely encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """One benchmark process: fixed inputs, repeated iterations, checked answers."""

    def __init__(self, workload, seed: int, workdir: Path, tracer=None):
        self.w = workload
        self.inp = workload.inputs(seed)
        self.tracer = tracer
        self.check = Check()
        self.input_path = workdir / "input"
        self.blob_path = workdir / "structure.sdr"
        self.input_path.write_bytes(self.inp.file_bytes)
        self.sha: str | None = None
        self.facts: dict = {}
        self.blob_len = 0

    def span(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, *args)

    def timed_build(self):
        gc.collect()
        t0 = time.perf_counter()
        structure = self.span("build", self.w.build, self.inp)
        return structure, time.perf_counter() - t0

    def record_container(self, blob: bytes) -> None:
        sha = hashlib.sha256(blob).hexdigest()
        if self.sha is None:
            self.sha = sha
        self.check.add(1, sha != self.sha, "container differs between builds at one seed")

    def iteration(self, structure) -> dict:
        """Everything after the build; returns this iteration's timings."""
        w, inp, check = self.w, self.inp, self.check
        self.facts = w.facts(structure)
        blob = serial.serialize(structure)
        self.record_container(blob)
        self.blob_len = len(blob)
        loaded = serial.deserialize(blob)
        again = serial.serialize(loaded)
        check.add(1, again != blob, "serialize(deserialize(blob)) != blob")
        del structure, again
        self.blob_path.write_bytes(blob)

        argv = ["verify", "--structure", str(self.blob_path), "--input", str(self.input_path),
                "--format", inp.file_format]
        verify_s = []
        for _ in range(w.verify_calls):
            out = io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.span("cli.verify", cli.main, argv)
            verify_s.append(time.perf_counter() - t0)
            ok = code == 0 and out.getvalue().strip() == f"verified {len(inp.keys)} keys"
            check.add(1, not ok, f"xorfunc verify exited {code}: {out.getvalue().strip()!r}")

        gc.collect()
        answers, lat_ns = self.queries(loaded)
        w.check(inp, answers, check)
        return {"verify_s": verify_s, "lat_ns": lat_ns}

    def queries(self, structure):
        query, keys = self.w.query, self.inp.queries
        answers = [None] * len(keys)
        lat_ns = np.zeros(len(keys), dtype=np.int64)
        clock = time.perf_counter_ns
        if self.tracer is None:
            for i, key in enumerate(keys):
                t0 = clock()
                answers[i] = query(structure, key)
                lat_ns[i] = clock() - t0
        else:
            span = self.tracer.span
            for i, key in enumerate(keys):
                answers[i] = span("query", query, structure, key)
        return answers, lat_ns


WINDOW = 50_000  # queries per latency window: 500 samples beyond its p99


def iterations(seconds: float):
    """Yield iteration numbers: at least two, then while the next one is
    expected to end no more than half an iteration past ``seconds``."""
    start = last = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i >= 2 and now + 0.5 * (now - last) > start + seconds:
            return
        last = now
        yield i
        i += 1


def run_untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics over repeated iterations.

    Throughputs are pooled (work done / time taken over the run).  Latency
    percentiles are taken per 50,000-query window: p50 is the mean of the
    window medians.  On a host whose CPU speed switches between levels every
    few seconds, a median across windows jumps to whichever level held most
    of the run; the mean moves smoothly with the share of time spent at each
    level.

    p99 (the median of the window p99s) is reported under ``info``, not as a
    metric: outside interruptions of the process hit about 1% of ~10 us
    queries, so p99 sits on the edge between uninterrupted and interrupted
    queries and jumps with the host's load from one run to the next.
    """
    builds, verify_s, windows = [], [], []
    query_ns = 0
    for _ in iterations(seconds):
        structure, build_s = run.timed_build()
        builds.append(build_s)
        t = run.iteration(structure)
        verify_s.extend(t["verify_s"])
        query_ns += int(t["lat_ns"].sum())
        lat_us = t["lat_ns"] / 1e3
        for start in range(0, len(lat_us), WINDOW):
            windows.append(np.percentile(lat_us[start : start + WINDOW], [50, 99]))
    p50, p99 = zip(*windows)
    n = len(run.inp.keys)
    queries = len(run.inp.queries) * len(builds)
    return {
        "metrics": {
            "setup_s": statistics.median(builds),
            "query_qps": queries / (query_ns / 1e9),
            "query_p50_us": statistics.fmean(p50),
            "verify_keys_per_s": n * len(verify_s) / sum(verify_s),
            "bits_per_key": 8 * run.blob_len / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "info": {"query_p99_us": statistics.median(p99)},
        "iterations": len(builds),
        "query_samples": queries,
        "raw": {"setup_s": builds, "verify_s": verify_s,
                "query_p50_us": [float(x) for x in p50], "query_p99_us": [float(x) for x in p99]},
    }


# per-layer metrics that must repeat exactly at one seed
COUNT_METRICS = {
    "hashing.prf_calls", "hashing.probe_sets", "gf2.solve_calls", "gf2.rank_calls",
    "gf2.eliminate_calls", "gf2.core_rows", "gf2.core_cols", "gf2.solve_ok_ratio",
    "build.attempts", "blocked.overflow_frac", "blocked.secondary_len",
    "bitvector.rank1_calls", "serial.container_bytes", "cli.ingest_rows",
}


def run_traced(run: Run, seconds: float) -> dict:
    tracer = run.tracer
    plain, traced, per_iter, table = [], [], [], None
    for _ in iterations(seconds):
        run.tracer = None
        structure, build_s = run.timed_build()
        plain.append(build_s)
        run.record_container(serial.serialize(structure))
        del structure

        run.tracer = tracer
        tracer.reset()
        layertrace.install(tracer)
        try:
            structure, build_s = run.timed_build()
            traced.append(build_s)
            run.iteration(structure)
        finally:
            tracer.restore()
        per_iter.append({
            "blocked.overflow_frac": 0.0,
            "blocked.secondary_len": 0,
            **layertrace.layer_metrics(tracer),
            **run.facts,
            "serial.container_bytes": run.blob_len,
        })
        table = table or tracer.table()

    counts = {k: v for k, v in per_iter[0].items() if k in COUNT_METRICS}
    for later in per_iter[1:]:
        same = all(later[k] == v for k, v in counts.items())
        run.check.add(1, not same, "per-layer counts differ between iterations at one seed")
    metrics = {k: statistics.median(it[k] for it in per_iter) for k in per_iter[0]}
    metrics.update(counts)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {"metrics": metrics, "iterations": len(per_iter), "counts": counts,
            "trace_table": table}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full run record here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    workload = WORKLOADS[args.workload]
    info = stamp()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in info.items()))

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        run = Run(workload, args.seed, Path(tmp), layertrace.Tracer() if args.trace else None)
        try:
            result = (run_traced if args.trace else run_untraced)(run, args.seconds)
        except Exception as exc:  # any exception is a failed operation of this run
            print(f"# error: {type(exc).__name__}: {exc}", file=sys.stderr)
            run.check.add(1, 1, f"{type(exc).__name__}: {exc}")
            result = {"metrics": {}, "iterations": 0}

    check = run.check
    failed_frac = check.failed / check.attempted
    print(f"# iterations={result['iterations']} container_sha256={run.sha}")
    if "query_samples" in result:
        print(f"# query_samples={result['query_samples']}")
    for name, value in result.get("info", {}).items():
        print(f"# {name} = {value:.6g} (informational, not a metric; see README.md)")
    if check.notes:
        print(f"# failures: {check.notes}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac = {failed_frac:.6g} ({check.failed} of {check.attempted} operations)")
    correct = check.failed == 0 and len(metrics) == len(units)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "stamp": info, "container_sha256": run.sha,
                  "attempted": check.attempted, "failed": check.failed,
                  **{k: v for k, v in result.items() if k != "metrics"}, "metrics": metrics}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
