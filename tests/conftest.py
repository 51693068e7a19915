"""Shared oracles, statistical helpers, and acceptance reporting."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

from xorfunc import blocked

# one "[criterion NN] PASS/FAIL ..." line per acceptance criterion
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# 99.9% chi-square quantiles by degrees of freedom
CHI2_999 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458,
    7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588, 11: 31.264, 12: 32.909,
    13: 34.528, 14: 36.123, 15: 37.697, 16: 39.252, 17: 40.790, 18: 42.312,
    19: 43.820, 20: 45.315, 21: 46.797, 22: 48.268, 23: 49.728, 24: 51.179,
    25: 52.620, 26: 54.052, 27: 55.476, 28: 56.892, 29: 58.301, 30: 59.703,
    31: 61.098, 32: 62.487, 33: 63.870, 34: 65.247, 35: 66.619, 36: 67.985,
    37: 69.346, 38: 70.703, 39: 72.055, 40: 73.402,
}


def chi_square_ok(observed: list[int], probs: list[float], min_expected: float = 10.0) -> bool:
    """Chi-square test against given cell probabilities at the 99.9% level.

    Cells with tiny expected counts are merged into their neighbor so the
    asymptotic distribution applies.
    """
    total = sum(observed)
    merged: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for o, p in zip(observed, probs):
        acc_o += o
        acc_e += p * total
        if acc_e >= min_expected:
            merged.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_o or acc_e:
        if merged:
            lo, le = merged[-1]
            merged[-1] = (lo + acc_o, le + acc_e)
        else:
            merged.append((acc_o, acc_e))
    if len(merged) < 2:
        return True
    stat = sum((o - e) ** 2 / e for o, e in merged)
    df = min(len(merged) - 1, 40)
    return stat < CHI2_999[df]


def naive_rank(entries: list[list[int]]) -> int:
    """Textbook GF(2) elimination on explicit 0/1 entries (independent oracle)."""
    mat = [row[:] for row in entries]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for row in range(pivot_row, n_rows):
            if mat[row][col] == 1:
                pivot = row
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for row in range(n_rows):
            if row != pivot_row and mat[row][col] == 1:
                for c in range(n_cols):
                    mat[row][c] ^= mat[pivot_row][c]
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def random_weight_k_entries(
    rng: random.Random, n_rows: int, n_cols: int, k: int
) -> list[list[int]]:
    rows = []
    for _ in range(n_rows):
        cols = rng.sample(range(n_cols), k)
        row = [0] * n_cols
        for c in cols:
            row[c] = 1
        rows.append(row)
    return rows


@contextlib.contextmanager
def failing_reductions(*calls: int):
    """Blocked builds inside see their ``calls``-th block reductions (1-based) fail.

    The other calls reduce as usual, so the chosen blocks overflow to the
    secondary whatever their rank, exercising the compensation path.
    """
    real = blocked.reduce_xor_system
    count = 0

    def fake(rows, n_cols):
        nonlocal count
        count += 1
        return None if count in calls else real(rows, n_cols)

    with mock.patch.object(blocked, "reduce_xor_system", fake):
        yield
