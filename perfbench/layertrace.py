"""Layer tracing from outside the library.

The tracer wraps public functions of the ``xorfunc`` layers, patching each in
the namespace of the module that calls it, so a real build or query is split
into layers without editing the library.  Spans are aggregated in memory by
``(parent, name)``, where the parent is the span directly enclosing the call
(``None`` for the benchmark's own root spans such as ``build``, ``query`` and
``cli.verify``).  For every key the tracer keeps the call count, the
inclusive time and the self time: the span minus the spans nested directly
in it.

A wrapped call costs more than the call itself: some of the cost falls
inside the span's own clock readings (``inner``) and some outside, in the
parent (``outer``).  The tracer measures both once, on a function that does
nothing, and takes them out again: a span's work is its measured duration
minus ``inner`` and minus ``inner + outer`` for every span nested in it.
"""

from __future__ import annotations

from collections import Counter
from statistics import median
from time import perf_counter

from xorfunc import basic, blocked, cli, gf2, hashing, phf, serial
from xorfunc.bitvector import RankBitvector


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, work of child spans, nested span count]
        self._patches: list[tuple[object, str, object]] = []
        self.inner = self.outer = 0.0
        self.reset()
        self.inner, self.outer = self._calibrate()
        self.reset()

    def reset(self) -> None:
        self.acc: dict[tuple, list] = {}  # (parent, name) -> [calls, self_s, incl_s]
        self.counts: Counter = Counter()

    def span(self, name: str, fn, *args):
        """Call ``fn`` inside a span called ``name``; returns its result."""
        return self.wrap(name, fn)(*args)

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` wrapped in a span; hooks see ``self.counts`` and the args or result."""
        stack = self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self.counts, *args)
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                work = dt - self.inner - frame[2] * (self.inner + self.outer)
                key = (parent[0] if parent else None, name)
                acc = self.acc.get(key)
                if acc is None:
                    acc = self.acc[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += work - frame[1]
                acc[2] += work
                if parent is not None:
                    parent[1] += work
                    parent[2] += frame[2] + 1
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def _calibrate(self, calls: int = 20000, rounds: int = 7) -> tuple[float, float]:
        """(inner, outer): seconds a wrapped call adds inside and outside its span."""

        def noop():
            return None

        traced = self.wrap("noop", noop)
        inner, outer = [], []
        for _ in range(rounds):
            self.reset()
            t0 = perf_counter()
            for _ in range(calls):
                pass
            loop = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            plain = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(calls):
                traced()
            wrapped = perf_counter() - t0
            recorded = self.acc[(None, "noop")][2]  # with inner = outer = 0 so far
            inner.append((recorded - (plain - loop)) / calls)
            outer.append((wrapped - loop - recorded) / calls)
        return max(0.0, median(inner)), max(0.0, median(outer))

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregates ---------------------------------------------------------

    def _sum(self, field: int, name: str, parent=...) -> float:
        return sum(
            (acc[field] for (p, n), acc in self.acc.items() if n == name and parent in (..., p)),
            0.0,
        )

    def calls(self, name: str, parent=...) -> int:
        return int(self._sum(0, name, parent))

    def self_s(self, name: str, parent=...) -> float:
        return self._sum(1, name, parent)

    def incl_s(self, name: str, parent=...) -> float:
        return self._sum(2, name, parent)

    def table(self) -> list[dict]:
        """Every (parent, name) aggregate, for the run record."""
        return [
            {"parent": p, "name": n, "calls": a[0], "self_s": a[1], "incl_s": a[2]}
            for (p, n), a in sorted(self.acc.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]


def _count_core(counts, arr, n_cols, *rest) -> None:
    counts["gf2.core_rows"] += int(arr.shape[0])
    counts["gf2.core_cols"] += int(n_cols)


def _count_ok(counts, result) -> None:
    counts["gf2.ok"] += result is not None


def _count_rows(counts, result) -> None:
    counts["cli.ingest_rows"] += len(result)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark reports on."""
    tracer.patch(hashing.SeededHasher, "u64", "hashing.prf")
    for mod in (basic, blocked, phf):
        tracer.patch(mod, "distinct_k_set", "hashing.probe_set")
    for mod in (basic, blocked, phf):
        tracer.patch(mod, "solve_xor_system", "gf2.solve", on_result=_count_ok)
    for mod in (blocked, phf):
        tracer.patch(mod, "system_full_rank", "gf2.rank", on_result=_count_ok)
    tracer.patch(gf2, "eliminate", "gf2.eliminate", on_call=_count_core)
    tracer.patch(gf2, "pack_probe_rows", "gf2.pack")
    tracer.patch(blocked, "build_blocked", "build.blocked")  # called by filters
    tracer.patch(phf, "build_phf", "build.phf")  # called by build_mphf
    tracer.patch(phf, "hopcroft_karp", "phf.matching")
    tracer.patch(RankBitvector, "__init__", "bitvector.build")
    tracer.patch(RankBitvector, "rank1", "bitvector.rank1")
    tracer.patch(serial, "serialize", "serial.serialize")
    tracer.patch(serial, "deserialize", "serial.deserialize")
    tracer.patch(cli, "ingest", "cli.ingest", on_result=_count_rows)


BUILDER_SPANS = ("build", "build.blocked", "build.phf")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced iteration (see BENCHMARK.json)."""
    queries = t.calls("query", None)
    probe_sets = t.calls("hashing.probe_set")
    solver_calls = t.calls("gf2.solve") + t.calls("gf2.rank")
    return {
        "hashing.prf_calls": t.calls("hashing.prf"),
        "hashing.prf_s": t.self_s("hashing.prf"),
        "hashing.probe_sets": probe_sets,
        "hashing.probe_set_s": t.self_s("hashing.probe_set"),
        "hashing.probe_set_ns": 1e9 * t.incl_s("hashing.probe_set") / max(1, probe_sets),
        "gf2.solve_calls": t.calls("gf2.solve"),
        "gf2.solve_s": t.incl_s("gf2.solve"),
        "gf2.rank_calls": t.calls("gf2.rank"),
        "gf2.rank_s": t.incl_s("gf2.rank"),
        "gf2.solve_ok_ratio": t.counts["gf2.ok"] / solver_calls if solver_calls else 1.0,
        "gf2.eliminate_calls": t.calls("gf2.eliminate"),
        "gf2.eliminate_s": t.incl_s("gf2.eliminate"),
        "gf2.core_rows": t.counts["gf2.core_rows"],
        "gf2.core_cols": t.counts["gf2.core_cols"],
        "gf2.peel_backsub_s": t.self_s("gf2.solve") + t.self_s("gf2.rank"),
        "build.self_s": sum(t.self_s(name) for name in BUILDER_SPANS),
        "phf.matching_s": t.incl_s("phf.matching"),
        "query.self_ns": 1e9 * t.self_s("query", None) / max(1, queries),
        "bitvector.rank1_calls": t.calls("bitvector.rank1"),
        "bitvector.rank1_s": t.incl_s("bitvector.rank1", "query"),
        "bitvector.build_s": sum(t.incl_s("bitvector.build", name) for name in BUILDER_SPANS),
        "serial.serialize_s": t.self_s("serial.serialize"),
        "serial.deserialize_s": t.self_s("serial.deserialize"),
        "cli.ingest_s": t.incl_s("cli.ingest"),
        "cli.ingest_rows": t.counts["cli.ingest_rows"],
        "cli.verify_check_s": t.incl_s("cli.verify", None)
        - t.incl_s("cli.ingest", "cli.verify")
        - t.incl_s("serial.deserialize", "cli.verify"),
    }
