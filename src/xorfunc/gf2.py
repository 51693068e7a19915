"""GF(2) systems of XOR equations, one equation per probe set.

Rows are packed little-endian into numpy uint64 words: bit j of a row lives
in word j // 64 at bit position j % 64.

:func:`peel` first takes, again and again, a column hit by a single remaining
row; the rows that never peel form the core.  One core routine
(:func:`_solve_core`) behind :func:`solve_xor_system`, :func:`system_full_rank`
and :func:`reduce_xor_system` then runs three stages, carrying right-hand
sides as Python ints (the values, ``1 << t`` for a reduction, none for a rank):

* lazy elimination (Genuzio, Ottaviano & Vigna, arXiv:1603.04330) solves the
  rows left with one idle column and activates the heaviest idle column
  when none is, leaving a dense system over the few active columns;
* the dense system alone is packed, eliminated forward (:func:`eliminate`)
  and back-substituted, each free active column carried as a unit kernel
  vector in the bits above the values; every solved column is then its
  row's right-hand side XOR its active part applied to that solution;
* the kernel vectors, put in echelon form by their highest column, have as
  highest columns exactly the columns a column-order elimination of the
  core skips; they clear the solution there.

Every table is thus zero off the pivot columns of a column-order
elimination.  A solution with that property is unique, so the tables and
pivots, and the containers made from them, do not depend on how the core
was eliminated.  The peeled columns are filled last, last peeled first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_ONE = np.uint64(1)


def words_for(n_cols: int) -> int:
    return max(1, (n_cols + 63) >> 6)


def pack_probe_rows(sets: Sequence[Sequence[int]], n_cols: int) -> np.ndarray:
    """Packed matrix straight from probe index sets."""
    n = len(sets)
    arr = np.zeros((n, words_for(n_cols)), dtype=np.uint64)
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


def _words(ints: Sequence[int], n_words: int) -> np.ndarray:
    """Python ints packed into a writable (len(ints), n_words) uint64 array."""
    buf = bytearray().join(x.to_bytes(8 * n_words, "little") for x in ints)
    return np.frombuffer(buf, dtype=np.uint64).reshape(len(ints), n_words)


def _bits(words: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of each row of packed words, as a 0/1 uint8 matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :width]


def _ints(bits: np.ndarray) -> list[int]:
    """The rows of a 0/1 matrix as Python ints, column j at bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw, nb = packed.tobytes(), packed.shape[1]
    if not nb:
        return [0] * len(bits)
    return [int.from_bytes(raw[i : i + nb], "little") for i in range(0, len(raw), nb)]


def _xor_products(masks: Sequence[int], vecs: Sequence[int], width: int) -> list[int]:
    """For each mask, the XOR of ``vecs[i]`` over its set bits i (``width``-bit vecs).

    A GF(2) matrix product taken as bit-plane parities: bit b of a result is
    the parity of ``mask & plane_b``, where plane b marks the vecs with bit b set.
    """
    if not masks or not vecs or not width:
        return [0] * len(masks)
    w = words_for(len(vecs))
    planes = _words(_ints(_bits(_words(vecs, words_for(width)), width).T), w)
    out: list[int] = []
    step = max(1, (1 << 19) // (width * w))
    for s in range(0, len(masks), step):
        packed = _words(masks[s : s + step], w)
        parity = np.bitwise_xor.reduce(packed[:, None, :] & planes, axis=2)
        out += _ints(np.bitwise_count(parity) & 1)
    return out


def _lazy_eliminate(
    rows: Sequence[Sequence[int]], n_cols: int, vals: list[int]
) -> tuple[list[tuple[int, int]], list[int], list[int], list[int]]:
    """Lazy Gaussian elimination: solved (column, row) pairs, dense rows, active columns and parts.

    Every column starts idle.  A row with one idle column is solved for it and
    XOR-ed, active part ``act[i]`` and right-hand side ``vals[i]`` (updated in
    place), into the other rows holding that column; a row with no idle column
    joins the dense system.  When no row qualifies, the idle column in the
    most rows becomes active: bit ``a`` of the active parts is ``active[a]``.
    A row only loses idle columns, so a column's row count is fixed while it is idle.
    """
    idle = [set(r) for r in rows]
    rows_of: list[list[int]] = [[] for _ in range(n_cols)]
    for i, cols in enumerate(idle):
        for c in cols:
            rows_of[c].append(i)
    heaviest = iter(sorted(range(n_cols), key=lambda c: -len(rows_of[c])))
    is_idle = [True] * n_cols
    act = [0] * len(rows)
    ready = [i for i, cols in enumerate(idle) if len(cols) <= 1]
    done = [False] * len(rows)
    solved: list[tuple[int, int]] = []
    dense: list[int] = []
    active: list[int] = []
    left = len(rows)
    while left:
        if not ready:
            c = next(heaviest)
            if is_idle[c]:
                is_idle[c] = False
                bit = 1 << len(active)
                active.append(c)
                for r in rows_of[c]:
                    idle[r].discard(c)
                    act[r] |= bit
                    if len(idle[r]) <= 1:
                        ready.append(r)
            continue
        i = ready.pop()
        if done[i]:
            continue
        done[i] = True
        left -= 1
        if not idle[i]:
            dense.append(i)
            continue
        c = idle[i].pop()
        is_idle[c] = False
        solved.append((c, i))
        for r in rows_of[c]:
            if r != i:
                idle[r].discard(c)
                act[r] ^= act[i]
                vals[r] ^= vals[i]
                if len(idle[r]) <= 1:
                    ready.append(r)
    return solved, dense, active, act


def _solve_core(
    probe_rows: Sequence[Sequence[int]], core: Sequence[int], rhs: list[int] | None, nbits: int
) -> tuple[list[int], list[int] | None] | None:
    """The core's pivot columns and its solved entries, or None when its rows are dependent.

    ``rhs`` holds one right-hand side per core row below ``1 << nbits``: the
    values, or ``1 << t`` for the identity block of a reduction.  None checks
    the rank only, and the entries are None.
    """
    core_cols = sorted({j for i in core for j in probe_rows[i]})
    n_cols = len(core_cols)
    if n_cols < len(core):  # fewer columns than rows: never full rank
        return None
    col_of = {j: t for t, j in enumerate(core_cols)}
    vals = [0] * len(core) if rhs is None else list(rhs)
    solved, dense, active, act = _lazy_eliminate(
        [[col_of[j] for j in probe_rows[i]] for i in core], n_cols, vals
    )

    # the dense system over the active columns, right-hand sides riding along
    wa = words_for(len(active))
    shift = 64 * wa
    arr = _words([act[i] | vals[i] << shift for i in dense], wa + ((nbits + 63) >> 6))
    piv = eliminate(arr, len(active))
    if len(piv) < len(dense):
        return None
    # back-substitution, last pivot first; free column f is kernel bit nbits + f
    free = sorted(set(range(len(active))) - set(piv))
    width = nbits + len(free)
    planes = np.zeros((width, wa), dtype=np.uint64)  # plane b: the entries with bit b set
    for f, a in enumerate(free):
        planes[nbits + f, a >> 6] |= _ONE << np.uint64(a & 63)
    rhs_bits = _bits(arr[:, wa:], nbits)
    for t in range(len(piv) - 1, -1, -1):
        w = piv[t] >> 6  # row t is zero left of its pivot
        x = np.bitwise_count(np.bitwise_xor.reduce(planes[:, w:] & arr[t, w:wa], axis=1)) & 1
        x[:nbits] ^= rhs_bits[t]
        planes[:, w] |= x.astype(np.uint64) << np.uint64(piv[t] & 63)
    x_act = _ints(_bits(planes, len(active)).T)

    # Put the kernel in echelon form by highest column, scanning down from the
    # last column: those highest columns are the ones a column-order
    # elimination skips (for random cores, the last len(free)), and each
    # basis entry says the solution is zero at one of them.  Solving those
    # for the free columns' values z clears the solution there.
    solver = dict(solved)
    active_of = {c: a for a, c in enumerate(active)}
    skipped: set[int] = set()
    basis: dict[int, int] = {}
    hi, span = n_cols, len(free)
    while len(basis) < len(free):
        lo = max(0, hi - span)
        here = [c for c in range(lo, hi) if c in solver]
        x_here = dict(zip(here, _xor_products([act[solver[c]] for c in here], x_act, width)))
        for c in range(hi - 1, lo - 1, -1):
            if len(basis) == len(free):
                break
            y = x_act[active_of[c]] if c in active_of else x_here[c] ^ vals[solver[c]]
            while y >> nbits:
                top = (y >> nbits).bit_length() - 1
                if top not in basis:
                    basis[top] = y
                    skipped.add(c)
                    break
                y ^= basis[top]
        hi, span = lo, 2 * span
    pivots = [c for c in range(n_cols) if c not in skipped]
    if rhs is None:
        return [core_cols[c] for c in pivots], None
    low_bits = (1 << nbits) - 1
    z = []
    for f in range(len(free)):
        w, rest = basis[f] & low_bits, (basis[f] >> nbits) ^ (1 << f)
        while rest:
            low = rest & -rest
            w ^= z[low.bit_length() - 1]
            rest ^= low
        z.append(w)
    kernel = _xor_products([x >> nbits for x in x_act], z, nbits)
    x_act = [(x & low_bits) ^ k for x, k in zip(x_act, kernel)]
    entry = dict(zip(active, x_act))
    x_solved = _xor_products([act[i] for _, i in solved], x_act, nbits)
    entry.update((c, vals[i] ^ x) for (c, i), x in zip(solved, x_solved))
    return [core_cols[c] for c in pivots], [entry[c] for c in pivots]


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
    then solves the residual core, lazily and then densely.  Exactly the rows that a full
    Gaussian elimination could solve are solved here; the returned table is
    zero outside the pivot columns, one pivot per row.
    """
    if not probe_rows:
        return np.zeros(n_cols, dtype=np.uint64), []
    peel_order, core = peel(probe_rows, n_cols)
    table = [0] * n_cols
    pivot_cols: list[int] = []
    if core:
        vals = [int(values[i]) for i in core]
        solved = _solve_core(probe_rows, core, vals, max(vals).bit_length())
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

    Peels and eliminates exactly as :func:`solve_xor_system` does, with core
    row t's right-hand side ``1 << t`` in place of its value.
    """
    peel_order, core = peel(probe_rows, n_cols)
    core_pivots: list[int] = []
    core_rows = np.zeros((0, len(core)), dtype=bool)
    if core:
        solved = _solve_core(probe_rows, core, [1 << t for t in range(len(core))], len(core))
        if solved is None:
            return None
        core_pivots, entries = solved
        core_rows = _bits(_words(entries, words_for(len(core))), len(core)).view(bool)
    return XorReduction(probe_rows, n_cols, peel_order, core, core_pivots, core_rows)
