"""Dense GF(2) linear algebra on word-packed rows.

Rows are stored little-endian: bit j of a row lives in word j // 64 at bit
position j % 64.  Python ints carry the same layout on the immutable
:class:`BitMatrix` type; hot paths operate on numpy uint64 arrays with the
identical packing, so conversion is a plain byte copy.

Elimination is Gaussian with pivots searched in increasing column order and,
within a column, the topmost active row.  Row swaps are folded into the
returned transform so that the pseudoinverse invariant (pivot columns of
``C @ M`` are unit vectors) holds verbatim.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

_ONE = np.uint64(1)


@dataclass(frozen=True)
class BitMatrix:
    """Immutable 0/1 matrix with int-bitset rows (bit j of row i = entry i,j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative dimensions")
        if len(self.rows) != self.n_rows:
            raise ValueError("row count does not match n_rows")
        mask = (1 << self.n_cols) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside n_cols")

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        n_rows = len(entries)
        n_cols = len(entries[0]) if n_rows else 0
        rows = []
        for line in entries:
            if len(line) != n_cols:
                raise ValueError("ragged rows")
            rows.append(sum((1 << j) for j, v in enumerate(line) if v & 1))
        return cls(n_rows, n_cols, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1


@dataclass(frozen=True)
class Pseudoinverse:
    """Invertible row-operation matrix C plus the pivot columns b_1..b_n."""

    c: BitMatrix
    pivots: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.pivots)) != len(self.pivots):
            raise ValueError("pivot columns must be distinct")


@dataclass(frozen=True)
class WordVector:
    """Vector of r-bit values, r <= 64."""

    entries: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.r <= 64:
            raise ValueError("r must be in 1..64")
        limit = 1 << self.r
        for e in self.entries:
            if e < 0 or e >= limit:
                raise ValueError("entry does not fit in r bits")

    @property
    def length(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# word-packed kernels


def words_for(n_cols: int) -> int:
    return max(1, (n_cols + 63) >> 6)


def pack_rows(rows: Sequence[int], n_cols: int) -> np.ndarray:
    """Pack int-bitset rows into an (n, W) uint64 array, little-endian."""
    w = words_for(n_cols)
    n = len(rows)
    if n == 0:
        return np.zeros((0, w), dtype=np.uint64)
    nbytes = w * 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    return np.frombuffer(buf, dtype="<u8").reshape(n, w).astype(np.uint64)


def pack_probe_rows(sets: Sequence[Sequence[int]], n_cols: int) -> np.ndarray:
    """Packed matrix straight from probe index sets (no intermediate ints)."""
    w = words_for(n_cols)
    n = len(sets)
    arr = np.zeros((n, w), dtype=np.uint64)
    if n == 0:
        return arr
    ri = np.fromiter(
        (i for i, s in enumerate(sets) for _ in s), dtype=np.intp, count=sum(len(s) for s in sets)
    )
    cj = np.fromiter((j for s in sets for j in s), dtype=np.int64, count=len(ri))
    np.bitwise_or.at(arr, (ri, cj >> 6), _ONE << (cj & 63).astype(np.uint64))
    return arr


def eliminate(
    arr: np.ndarray,
    n_cols: int,
    vals: np.ndarray | None = None,
    jordan: bool = True,
) -> list[int]:
    """In-place elimination over the first n_cols columns; returns pivot columns.

    Word slices beyond n_cols (an augmented block) ride along with the row
    operations.  ``vals`` is an optional uint64 payload XOR-ed alongside.
    With ``jordan`` each pivot column is cleared above as well, so pivot
    columns of the result are exact unit vectors.
    """
    n = arr.shape[0]
    pivots: list[int] = []
    pr = 0
    for c in range(n_cols):
        if pr == n:
            break
        w = c >> 6
        b = np.uint64(c & 63)
        active = (arr[pr:, w] >> b) & _ONE
        nz = np.nonzero(active)[0]
        if nz.size == 0:
            continue
        p = pr + int(nz[0])
        if p != pr:
            arr[[pr, p]] = arr[[p, pr]]
            if vals is not None:
                vals[[pr, p]] = vals[[p, pr]]
        below = pr + nz[1:].astype(np.intp)
        if below.size:
            arr[below, w:] ^= arr[pr, w:]
            if vals is not None:
                vals[below] ^= vals[pr]
        if jordan and pr:
            above = np.nonzero((arr[:pr, w] >> b) & _ONE)[0]
            if above.size:
                arr[above, w:] ^= arr[pr, w:]
                if vals is not None:
                    vals[above] ^= vals[pr]
        pivots.append(c)
        pr += 1
    return pivots


def _bitplane(values: np.ndarray, t: int, n: int) -> np.ndarray:
    """Pack bit t of each of n values into uint64 words."""
    bits = ((values >> np.uint64(t)) & _ONE).astype(np.uint8)
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros(words_for(n) * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view("<u8").astype(np.uint64)


def _gather_xor(packed: np.ndarray, vec: np.ndarray, r: int) -> np.ndarray:
    """Per-row XOR of r-bit values selected by the packed row bits."""
    n_sel = vec.shape[0]
    out = np.zeros(packed.shape[0], dtype=np.uint64)
    for t in range(r):
        plane = _bitplane(vec, t, n_sel)
        parity = (np.bitwise_count(packed & plane[None, :]).sum(axis=1) & 1).astype(np.uint64)
        out |= parity << np.uint64(t)
    return out


# ---------------------------------------------------------------------------
# public operations on BitMatrix


def rank(m: BitMatrix) -> int:
    """GF(2) row rank; the input is not modified."""
    arr = pack_rows(m.rows, m.n_cols)
    return len(eliminate(arr, m.n_cols, jordan=False))


def pseudoinverse(m: BitMatrix) -> Pseudoinverse:
    """Row-operation matrix C with unit vectors at the pivot columns of C @ M.

    Raises SingularMatrix when the rows are dependent.
    """
    n = m.n_rows
    wm = words_for(m.n_cols)
    wi = words_for(n)
    arr = np.zeros((n, wm + wi), dtype=np.uint64)
    if n:
        arr[:, :wm] = pack_rows(m.rows, m.n_cols)
        idx = np.arange(n)
        arr[idx, wm + (idx >> 6)] |= _ONE << (idx & 63).astype(np.uint64)
    pivots = eliminate(arr, m.n_cols, jordan=True)
    if len(pivots) < n:
        raise SingularMatrix(f"rank {len(pivots)} < {n} rows")
    c_rows = tuple(
        int.from_bytes(arr[i, wm:].tobytes(), "little") & ((1 << n) - 1) for i in range(n)
    )
    return Pseudoinverse(BitMatrix(n, n, c_rows), tuple(pivots))


def mat_vec_xor(m: BitMatrix, a: WordVector) -> WordVector:
    """Entry i = XOR of a_j over the set bits j of row i."""
    if a.length != m.n_cols:
        raise DimensionMismatch(f"vector length {a.length} != {m.n_cols} columns")
    packed = pack_rows(m.rows, m.n_cols)
    vec = np.array(a.entries, dtype=np.uint64).reshape(-1)
    if m.n_rows == 0:
        return WordVector((), a.r)
    if m.n_cols == 0:
        return WordVector((0,) * m.n_rows, a.r)
    out = _gather_xor(packed, vec, a.r)
    return WordVector(tuple(int(v) for v in out), a.r)


def solve_sparse(m: BitMatrix, pinv: Pseudoinverse, u: WordVector) -> WordVector:
    """Sparse solution of M @ a = u: a_j = 0 off the pivots, a_{b_i} = (C @ u)_i."""
    if u.length != m.n_rows:
        raise DimensionMismatch(f"rhs length {u.length} != {m.n_rows} rows")
    if pinv.c.n_rows != m.n_rows or len(pinv.pivots) != m.n_rows:
        raise DimensionMismatch("pseudoinverse does not fit this matrix")
    u_prime = mat_vec_xor(pinv.c, u)
    a = [0] * m.n_cols
    for i, b in enumerate(pinv.pivots):
        a[b] = u_prime.entries[i]
    return WordVector(tuple(a), u.r)


# ---------------------------------------------------------------------------
# sparse system solver for the structure builders


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


def _core_matrix(
    probe_rows: Sequence[Sequence[int]], core: Sequence[int]
) -> tuple[list[int], np.ndarray] | None:
    """The columns the core rows hit and the core packed over them.

    None when there are fewer columns than rows, so full rank is impossible.
    """
    core_cols = sorted({j for i in core for j in probe_rows[i]})
    if len(core_cols) < len(core):
        return None
    col_of = {j: t for t, j in enumerate(core_cols)}
    packed = pack_probe_rows([[col_of[j] for j in probe_rows[i]] for i in core], len(core_cols))
    return core_cols, packed


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
        system = _core_matrix(probe_rows, core)
        if system is None:
            return None
        core_cols, packed = system
        vals = np.array([values[i] for i in core], dtype=np.uint64)
        piv = eliminate(packed, len(core_cols), vals=vals, jordan=True)
        if len(piv) < len(core):
            return None
        for local_col, val in zip(piv, vals.tolist()):
            col = core_cols[local_col]
            table[col] = val
            pivot_cols.append(col)
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
        system = _core_matrix(probe_rows, core)
        if system is None:
            return None
        core_cols, packed = system
        piv = eliminate(packed, len(core_cols), jordan=False)
        if len(piv) < len(core):
            return None
        pivot_cols.extend(core_cols[c] for c in piv)
    return pivot_cols


@dataclass(frozen=True)
class XorReduction:
    """A full-rank probe system reduced once, to be solved for values given later.

    ``core_rows[t]`` marks the rows whose values XOR to the entry of core
    pivot column ``core_pivots[t]``, so :meth:`solve` repeats neither the
    peel nor the dense elimination.
    """

    probe_rows: Sequence[Sequence[int]]
    n_cols: int
    peel_order: list[tuple[int, int]]
    core_pivots: list[int]
    core_rows: np.ndarray  # bool, (len(core_pivots), len(probe_rows))

    def solve(self, values: Sequence[int]) -> np.ndarray:
        """The table ``solve_xor_system(probe_rows, values, n_cols)`` returns."""
        table = [0] * self.n_cols
        if self.core_pivots:
            vals = np.array(values, dtype=np.uint64)
            entries = np.bitwise_xor.reduce(np.where(self.core_rows, vals, 0), axis=1)
            for col, val in zip(self.core_pivots, entries.tolist()):
                table[col] = val
        _back_substitute(self.probe_rows, values, self.peel_order, table)
        return np.array(table, dtype=np.uint64)


def reduce_xor_system(probe_rows: Sequence[Sequence[int]], n_cols: int) -> XorReduction | None:
    """Reduce the system for later solves, or None when the rows are dependent.

    Peels and eliminates exactly as :func:`solve_xor_system` does, carrying an
    identity block over the rows in place of values.
    """
    n = len(probe_rows)
    peel_order, core = peel(probe_rows, n_cols)
    core_pivots: list[int] = []
    core_rows = np.zeros((0, n), dtype=bool)
    if core:
        system = _core_matrix(probe_rows, core)
        if system is None:
            return None
        core_cols, packed = system
        identity = pack_probe_rows([[i] for i in core], n)
        arr = np.hstack([packed, identity])
        piv = eliminate(arr, len(core_cols), jordan=True)
        if len(piv) < len(core):
            return None
        core_pivots = [core_cols[c] for c in piv]
        ride = arr[:, packed.shape[1] :].astype("<u8").view(np.uint8)
        core_rows = np.unpackbits(ride, axis=1, bitorder="little")[:, :n].astype(bool)
    return XorReduction(probe_rows, n_cols, peel_order, core_pivots, core_rows)
