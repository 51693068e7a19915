"""Self-test of the benchmark: determinism of counts and containers.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it makes two traced runs and one untraced run at the
default seed (one second each, so two iterations) and checks that

* every run passes its correctness gate,
* the two traced runs report identical per-layer counts, and
* all three runs built byte-identical containers, so the layer wrappers
  do not change what the library computes.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = json.loads((HERE / "predictions.json").read_text())["seeds"]["default"]
sys.path.insert(0, str(Path.cwd() / "src"))
from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text())


def check_workload(workload: str, seed: int, tmp: Path) -> list[str]:
    traced = [one_run(workload, seed, 1, tmp / f"{workload}.t{i}.json") for i in (1, 2)]
    plain = one_run(workload, seed, 0, tmp / f"{workload}.plain.json")
    problems = []
    if traced[0]["counts"] != traced[1]["counts"]:
        diff = {k: (v, traced[1]["counts"].get(k)) for k, v in traced[0]["counts"].items()
                if traced[1]["counts"].get(k) != v}
        problems.append(f"per-layer counts differ between traced runs: {diff}")
    hashes = {r["container_sha256"] for r in (*traced, plain)}
    if len(hashes) != 1:
        problems.append(f"container hashes differ: {sorted(hashes)}")
    if any(r["failed"] for r in (*traced, plain)):
        problems.append("a run failed its correctness gate")
    return problems


def main() -> int:
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for workload in sorted(WORKLOADS):
            problems = check_workload(workload, SEED, Path(tmp))
            failed |= bool(problems)
            print(f"{workload}: " + ("ok" if not problems else "; ".join(problems)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
