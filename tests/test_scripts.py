"""Every script in ``scripts/`` runs at its smallest size and prints its CSV header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,header",
    [
        pytest.param(
            "blocked_scaling.py", ["--sizes", "2000"],
            "n,seconds,overflow_fraction,oversize_fraction,singular_fraction,table_bits_over_nr",
            id="blocked_scaling",
        ),
        pytest.param(
            "mphf_scaling.py", ["--sizes", "2000"],
            "n,seconds,core_rows,dense_rows,dense_cols,bits_per_key,query_us,peak_rss_mb",
            id="mphf_scaling",
        ),
        pytest.param(
            "rank_transition.py", ["--n", "200", "--trials", "2", "--points", "3"],
            "ratio,m,fraction", id="rank_transition",
        ),
        pytest.param(
            "thresholds_table.py", ["--k-max", "4"],
            "k,beta,beta_approx,beta_inverse,abs_gap", id="thresholds_table",
        ),
    ],
)
def test_script_runs_and_prints_its_header(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert header in lines
    assert len(lines) > lines.index(header) + 1  # at least one data row
