"""GF(2) systems of XOR equations, one equation per probe set.

Rows are packed little-endian into numpy uint64 words: bit j of a row lives
in word j // 64 at bit position j % 64.

:func:`peel` first takes, again and again, a column hit by a single remaining
row; the rows that never peel form the core.  The core is packed and
eliminated forward only (:func:`eliminate`), which leaves it in row echelon
form, and one core routine (:func:`_solve_core`) then runs one of three
tails on it:

* nothing, when only full rank is asked (:func:`system_full_rank`);
* back-substitution of the values, last pivot first (:func:`solve_xor_system`);
* the same back-substitution over an identity block, which records the rows
  whose values make up each core entry (:func:`reduce_xor_system`).

Every table is zero off the pivot columns.  A solution with that property is
unique, so it does not depend on how the core was eliminated.  The peeled
columns are filled last, last peeled first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_ONE = np.uint64(1)


def words_for(n_cols: int) -> int:
    return max(1, (n_cols + 63) >> 6)


def pack_probe_rows(sets: Sequence[Sequence[int]], n_cols: int, extra: int = 0) -> np.ndarray:
    """Packed matrix straight from probe index sets, plus ``extra`` zero words a row."""
    n = len(sets)
    arr = np.zeros((n, words_for(n_cols) + extra), dtype=np.uint64)
    if n == 0:
        return arr
    ri = np.fromiter(
        (i for i, s in enumerate(sets) for _ in s), dtype=np.intp, count=sum(len(s) for s in sets)
    )
    cj = np.fromiter((j for s in sets for j in s), dtype=np.int64, count=len(ri))
    np.bitwise_or.at(arr, (ri, cj >> 6), _ONE << (cj & 63).astype(np.uint64))
    return arr


def eliminate(arr: np.ndarray, n_cols: int) -> list[int]:
    """In-place forward elimination over the first n_cols columns; returns pivot columns.

    Pivots are searched in increasing column order and, within a column, the
    topmost active row is taken and cleared from the rows below it only.  Row
    t of the result is then zero left of the t-th pivot column.  Word slices
    beyond n_cols (right-hand sides) ride along with the row operations.
    """
    n = arr.shape[0]
    pivots: list[int] = []
    pr = 0
    for c in range(n_cols):
        if pr == n:
            break
        w = c >> 6
        active = (arr[pr:, w] >> np.uint64(c & 63)) & _ONE
        nz = np.nonzero(active)[0]
        if nz.size == 0:
            continue
        p = pr + int(nz[0])
        if p != pr:
            arr[[pr, p]] = arr[[p, pr]]
        below = pr + nz[1:].astype(np.intp)
        if below.size:
            arr[below, w:] ^= arr[pr, w:]
        pivots.append(c)
        pr += 1
    return pivots


def _back_substitute_core(arr: np.ndarray, wc: int, pivots: Sequence[int], nbits: int) -> list[int]:
    """Solve the echelon rows, last pivot first: one nbits-wide entry per pivot.

    The words from ``wc`` on hold each row's right-hand side.  The solution is
    zero off the pivot columns and row t is zero left of its pivot, so entry t
    is its right-hand side XOR the solved entries at the columns row t hits.
    Narrow entries (values) are kept as ``nbits`` bit-planes over the columns,
    and bit b of that XOR is the parity of ``row_t & plane_b``: nbits steps a
    row.  Wide entries (the identity block) are XOR-ed column by column, about
    ``len(pivots) / 4`` steps a row.
    """
    by_plane = 4 * nbits < len(pivots)
    planes = [0] * nbits
    solved_at: dict[int, int] = {}
    done = 0  # the solved pivot columns
    entries = [0] * len(pivots)
    for t in range(len(pivots) - 1, -1, -1):
        words = arr[t].tobytes()
        row = int.from_bytes(words[: 8 * wc], "little")
        x = int.from_bytes(words[8 * wc :], "little")
        bit = 1 << pivots[t]
        if by_plane:
            for b, plane in enumerate(planes):
                if (row & plane).bit_count() & 1:
                    x ^= 1 << b
            rest = x
            while rest:
                low = rest & -rest
                planes[low.bit_length() - 1] |= bit
                rest ^= low
        else:
            hit = row & done
            while hit:
                low = hit & -hit
                x ^= solved_at[low]
                hit ^= low
            solved_at[bit] = x
            done |= bit
        entries[t] = x
    return entries


def peel(
    probe_rows: Sequence[Sequence[int]], n_cols: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Peel forced assignments: ``(row, column)`` pairs in peel order, then the core.

    A column hit by a single remaining row fixes that row's equation; removing
    the row may leave further such columns.  The rows that never peel form
    the core, which only dense elimination can solve.
    """
    deg = [0] * n_cols
    cxor = [0] * n_cols
    for i, row in enumerate(probe_rows):
        for j in row:
            deg[j] += 1
            cxor[j] ^= i
    queue = deque(j for j in range(n_cols) if deg[j] == 1)
    peel_order: list[tuple[int, int]] = []
    peeled = [False] * len(probe_rows)
    while queue:
        j = queue.popleft()
        if deg[j] != 1:
            continue
        i = cxor[j]
        peeled[i] = True
        peel_order.append((i, j))
        for j2 in probe_rows[i]:
            deg[j2] -= 1
            cxor[j2] ^= i
            if deg[j2] == 1:
                queue.append(j2)
    return peel_order, [i for i, done in enumerate(peeled) if not done]


def _solve_core(
    probe_rows: Sequence[Sequence[int]], core: Sequence[int], rhs: np.ndarray | None, nbits: int
) -> tuple[list[int], list[int] | None] | None:
    """The core's pivot columns and its solved entries, or None when its rows are dependent.

    The tail depends on ``rhs``, one row of words per core row that rides
    through the forward elimination: None checks the rank only (the entries
    are None); values or an identity block are back-substituted over their low
    ``nbits`` bits, giving one int per pivot.
    """
    core_cols = sorted({j for i in core for j in probe_rows[i]})
    if len(core_cols) < len(core):  # fewer columns than rows: never full rank
        return None
    col_of = {j: t for t, j in enumerate(core_cols)}
    rows = [[col_of[j] for j in probe_rows[i]] for i in core]
    wc = words_for(len(core_cols))
    arr = pack_probe_rows(rows, len(core_cols), 0 if rhs is None else rhs.shape[1])
    if rhs is not None:
        arr[:, wc:] = rhs
    piv = eliminate(arr, len(core_cols))
    if len(piv) < len(core):
        return None
    entries = None if rhs is None else _back_substitute_core(arr, wc, piv, nbits)
    return [core_cols[c] for c in piv], entries


def _back_substitute(
    probe_rows: Sequence[Sequence[int]],
    values: Sequence[int],
    peel_order: Sequence[tuple[int, int]],
    table: list[int],
) -> None:
    """Fill the peeled columns, last peeled first, once the core columns are set."""
    for i, j in reversed(peel_order):
        acc = int(values[i])
        for j2 in probe_rows[i]:
            if j2 != j:
                acc ^= table[j2]
        table[j] = acc


def solve_xor_system(
    probe_rows: Sequence[Sequence[int]],
    values: Sequence[int],
    n_cols: int,
) -> tuple[np.ndarray, list[int]] | None:
    """Solve one XOR equation per probe set, or None when rows are dependent.

    Peels forced assignments first (columns hit by a single remaining row),
    then eliminates the residual core densely.  Exactly the rows that a full
    Gaussian elimination could solve are solved here; the returned table is
    zero outside the pivot columns, one pivot per row.
    """
    if not probe_rows:
        return np.zeros(n_cols, dtype=np.uint64), []
    peel_order, core = peel(probe_rows, n_cols)
    table = [0] * n_cols
    pivot_cols: list[int] = []
    if core:
        vals = np.array([values[i] for i in core], dtype=np.uint64)
        nbits = int(vals.max()).bit_length()
        solved = _solve_core(probe_rows, core, vals[:, None], nbits)
        if solved is None:
            return None
        pivot_cols, entries = solved
        for col, val in zip(pivot_cols, entries):
            table[col] = val
    _back_substitute(probe_rows, values, peel_order, table)
    pivot_cols.extend(j for _, j in reversed(peel_order))
    return np.array(table, dtype=np.uint64), pivot_cols


def system_full_rank(probe_rows: Sequence[Sequence[int]], n_cols: int) -> list[int] | None:
    """Pivot columns when the system has full row rank, else None.

    Same peel + dense-core route as the solver, without carrying values.
    """
    if not probe_rows:
        return []
    peel_order, core = peel(probe_rows, n_cols)
    pivot_cols = [j for _, j in peel_order]
    if core:
        solved = _solve_core(probe_rows, core, None, 0)
        if solved is None:
            return None
        pivot_cols.extend(solved[0])
    return pivot_cols


@dataclass(frozen=True)
class XorReduction:
    """A full-rank probe system reduced once, to be solved for values given later.

    ``core_rows[t]`` marks the core rows (indices into ``core``) whose values
    XOR to the entry of core pivot column ``core_pivots[t]``: it is row t of
    the inverse of the core restricted to its pivot columns.  So :meth:`solve`
    repeats neither the peel nor the dense elimination.
    """

    probe_rows: Sequence[Sequence[int]]
    n_cols: int
    peel_order: list[tuple[int, int]]
    core: list[int]
    core_pivots: list[int]
    core_rows: np.ndarray  # bool, (len(core_pivots), len(core))

    def solve(self, values: Sequence[int]) -> np.ndarray:
        """The table ``solve_xor_system(probe_rows, values, n_cols)`` returns."""
        table = [0] * self.n_cols
        if self.core_pivots:
            vals = np.array([values[i] for i in self.core], dtype=np.uint64)
            entries = np.bitwise_xor.reduce(np.where(self.core_rows, vals, 0), axis=1)
            for col, val in zip(self.core_pivots, entries.tolist()):
                table[col] = val
        _back_substitute(self.probe_rows, values, self.peel_order, table)
        return np.array(table, dtype=np.uint64)


def reduce_xor_system(probe_rows: Sequence[Sequence[int]], n_cols: int) -> XorReduction | None:
    """Reduce the system for later solves, or None when the rows are dependent.

    Peels and eliminates exactly as :func:`solve_xor_system` does, carrying an
    identity block over the core rows in place of values.
    """
    peel_order, core = peel(probe_rows, n_cols)
    core_pivots: list[int] = []
    core_rows = np.zeros((0, len(core)), dtype=bool)
    if core:
        identity = pack_probe_rows([[t] for t in range(len(core))], len(core))
        solved = _solve_core(probe_rows, core, identity, len(core))
        if solved is None:
            return None
        core_pivots, entries = solved
        nbytes = (len(core) + 7) // 8
        packed_rows = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in entries), np.uint8)
        bits = np.unpackbits(packed_rows.reshape(len(entries), nbytes), axis=1, bitorder="little")
        core_rows = bits[:, : len(core)].view(bool)
    return XorReduction(probe_rows, n_cols, peel_order, core, core_pivots, core_rows)
