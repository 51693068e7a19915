"""GF(2) systems of XOR equations, one equation per probe set.

Rows are packed little-endian into numpy uint64 words: bit j of a row lives
in word j // 64 at bit position j % 64.

:func:`peel` first takes, again and again, a column hit by a single remaining
row; the rows that never peel form the core.  Columns are taken first in,
first out, one layer of that queue per numpy pass, and the peeled columns
are filled last, one layer per gather-XOR, last layer first.  One core
routine (:func:`_solve_core`) behind :func:`solve_xor_system`,
:func:`system_full_rank` and :func:`reduce_segments` then runs three stages,
carrying right-hand sides as Python ints (the values, ``1 << t`` for a
reduction, none for a rank):

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
was eliminated.

:func:`reduce_segments` takes many systems at once, stacked as segments of
rows over disjoint columns (the blocks and chunks of the blocked and
split-and-share builds).  First-in-first-out order survives restriction to
independent pieces, so one peel of the stack gives each segment the peel it
would have alone; each segment's core is then solved alone, so a singular
segment fails alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


@dataclass(frozen=True, eq=False)
class PeelOrder:
    """Peeled ``(row, column)`` pairs in peel order, grouped in layers.

    Layer ``L`` is ``rows[bounds[L]:bounds[L + 1]]``: the rows peeled off
    the columns that the previous layer's removal left with a single row.
    Rows of one layer never hold each other's peeled columns.
    """

    rows: np.ndarray
    cols: np.ndarray
    bounds: list[int]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(self.rows.tolist(), self.cols.tolist())

    def restricted(self, keep: np.ndarray) -> PeelOrder:
        """The pairs where ``keep`` (one bool per pair) holds, layers kept, empty ones dropped."""
        kept = np.concatenate(([0], np.cumsum(keep)))[self.bounds]
        bounds = [0] + [int(b) for a, b in zip(kept, kept[1:]) if b > a]
        return PeelOrder(self.rows[keep], self.cols[keep], bounds)


def _flat(probe_rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows as one flat column array with each row's start and length."""
    if isinstance(probe_rows, np.ndarray):
        n, k = probe_rows.shape
        return probe_rows.ravel(), np.arange(0, n * k, k), np.full(n, k)
    lens = np.fromiter(map(len, probe_rows), dtype=np.int64, count=len(probe_rows))
    flat = np.fromiter(chain.from_iterable(probe_rows), dtype=np.int64, count=int(lens.sum()))
    return flat, np.cumsum(lens) - lens, lens


def _gather(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat positions of the rows with these starts and lengths, row after row."""
    before = np.cumsum(lens) - lens
    return np.repeat(starts - before, lens) + np.arange(int(lens.sum()))


def peel(
    probe_rows: Sequence[Sequence[int]] | np.ndarray, n_cols: int
) -> tuple[PeelOrder, list[int]]:
    """Peel forced assignments: ``(row, column)`` pairs in peel order, then the core.

    A column hit by a single remaining row fixes that row's equation; removing
    the row may leave further such columns.  The rows that never peel form
    the core, which only dense elimination can solve.  Columns are taken
    first in, first out, one layer of that queue per numpy pass.

    Within a layer a row is peeled by the first queued column (in queue
    order) whose single row it is.  The next layer is the columns whose
    degree then reaches 1, in the order a column-at-a-time queue pass
    decrements them: each at its last entry among the layer's rows.
    """
    flat, starts, lens = _flat(probe_rows)
    n = len(lens)
    deg = np.bincount(flat, minlength=n_cols)
    cxor = np.zeros(n_cols, dtype=np.int64)  # XOR of the remaining rows on each column
    np.bitwise_xor.at(cxor, flat, np.repeat(np.arange(n), lens))
    unset = len(flat) + 1  # above any queue position
    first = np.full(n, unset)  # scratch, per row: its first live column's queue position
    last = np.full(n_cols, -1)  # scratch, per column: its last entry in the layer
    frontier = np.flatnonzero(deg == 1)
    rows, cols, bounds = [flat[:0]], [flat[:0]], [0]
    while frontier.size:
        live = frontier[deg[frontier] == 1]
        owner = cxor[live]
        at = np.arange(len(live))
        np.minimum.at(first, owner, at)
        taken = first[owner] == at
        first[owner] = unset
        layer = owner[taken]
        if not layer.size:
            break
        rows.append(layer)
        cols.append(live[taken])
        bounds.append(bounds[-1] + len(layer))
        entries = _gather(starts[layer], lens[layer])  # in queue-pass order
        ecols = flat[entries]
        at = np.arange(len(ecols))
        np.maximum.at(last, ecols, at)
        ends = last[ecols] == at
        last[ecols] = -1
        np.subtract.at(deg, ecols, 1)
        np.bitwise_xor.at(cxor, ecols, np.repeat(layer, lens[layer]))
        frontier = ecols[ends & (deg[ecols] == 1)]
    order = PeelOrder(np.concatenate(rows), np.concatenate(cols), bounds)
    peeled = np.zeros(n, dtype=bool)
    peeled[order.rows] = True
    return order, np.flatnonzero(~peeled).tolist()


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
    core: Sequence[Sequence[int]], rhs: list[int] | None, nbits: int
) -> tuple[list[int], list[int] | None] | None:
    """The core's pivot columns and its solved entries, or None when its rows are dependent.

    ``rhs`` holds one right-hand side per core row below ``1 << nbits``: the
    values, or ``1 << t`` for the identity block of a reduction.  None checks
    the rank only, and the entries are None.
    """
    core_cols = sorted({j for row in core for j in row})
    n_cols = len(core_cols)
    if n_cols < len(core):  # fewer columns than rows: never full rank
        return None
    col_of = {j: t for t, j in enumerate(core_cols)}
    vals = [0] * len(core) if rhs is None else list(rhs)
    solved, dense, active, act = _lazy_eliminate(
        [[col_of[j] for j in row] for row in core], n_cols, vals
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


def _core_rows(probe_rows, core) -> list[Sequence[int]]:
    """The core's rows, as Python sequences of ints."""
    if isinstance(probe_rows, np.ndarray):
        return probe_rows[core].tolist()
    return [probe_rows[i] for i in core]


def _back_substitute(probe_rows, values, peel_order: PeelOrder, table: np.ndarray) -> np.ndarray:
    """Fill the peeled columns of ``table`` once its core columns are set.

    One peeling layer per gather-XOR, last layer first: a layer's rows read
    only columns of later layers and the core.
    """
    flat, starts, lens = _flat(probe_rows)
    values = np.asarray(values, dtype=np.uint64)
    bounds = peel_order.bounds
    for lo, hi in zip(reversed(bounds[:-1]), reversed(bounds[1:])):
        rows = peel_order.rows[lo:hi]
        entries = table[flat[_gather(starts[rows], lens[rows])]]
        acc = np.bitwise_xor.reduceat(entries, np.cumsum(lens[rows]) - lens[rows])
        table[peel_order.cols[lo:hi]] = values[rows] ^ acc
    return table


def solve_xor_system(
    probe_rows: Sequence[Sequence[int]] | np.ndarray,
    values: Sequence[int],
    n_cols: int,
) -> tuple[np.ndarray, list[int]] | None:
    """Solve one XOR equation per probe set, or None when rows are dependent.

    Peels forced assignments first (columns hit by a single remaining row),
    then solves the residual core, lazily and then densely.  Exactly the rows that a full
    Gaussian elimination could solve are solved here; the returned table is
    zero outside the pivot columns, one pivot per row.  The probe sets may
    be an (n, k) int array.
    """
    table = np.zeros(n_cols, dtype=np.uint64)
    if not len(probe_rows):
        return table, []
    peel_order, core = peel(probe_rows, n_cols)
    pivot_cols: list[int] = []
    if core:
        vals = [int(values[i]) for i in core]
        solved = _solve_core(_core_rows(probe_rows, core), vals, max(vals).bit_length())
        if solved is None:
            return None
        pivot_cols, entries = solved
        table[pivot_cols] = np.array(entries, dtype=np.uint64)
    pivot_cols += peel_order.cols[::-1].tolist()
    return _back_substitute(probe_rows, values, peel_order, table), pivot_cols


def system_full_rank(probe_rows: Sequence[Sequence[int]], n_cols: int) -> list[int] | None:
    """Pivot columns when the system has full row rank, else None.

    Same peel + dense-core route as the solver, without carrying values.
    """
    if not len(probe_rows):
        return []
    peel_order, core = peel(probe_rows, n_cols)
    pivot_cols = peel_order.cols.tolist()
    if core:
        solved = _solve_core(_core_rows(probe_rows, core), None, 0)
        if solved is None:
            return None
        pivot_cols.extend(solved[0])
    return pivot_cols


@dataclass(frozen=True, eq=False)
class XorReduction:
    """Segments of a probe system (see :func:`reduce_segments`) reduced once,
    to be solved for values given later.

    ``failed`` lists the segments whose rows are dependent; they are left
    out of :meth:`solve`, so their columns stay zero.  Core pivot
    column ``core_pivots[t]`` is the XOR of the values of the rows
    ``core_terms[core_starts[t]:core_starts[t + 1]]``: a row of the inverse
    of its segment's core restricted to its pivot columns.  So :meth:`solve`
    repeats neither the peel nor the dense elimination.
    """

    probe_rows: Sequence[Sequence[int]] | np.ndarray
    n_cols: int
    failed: list[int]
    peel_order: PeelOrder  # of the segments that solve
    core_pivots: np.ndarray
    core_terms: np.ndarray
    core_starts: np.ndarray

    def solve(self, values: Sequence[int]) -> np.ndarray:
        """Each solving segment's table from ``solve_xor_system``, zero on failed segments."""
        values = np.asarray(values, dtype=np.uint64)
        table = np.zeros(self.n_cols, dtype=np.uint64)
        if len(self.core_pivots):
            terms = values[self.core_terms]
            table[self.core_pivots] = np.bitwise_xor.reduceat(terms, self.core_starts)
        return _back_substitute(self.probe_rows, values, self.peel_order, table)


def reduce_segments(
    probe_rows: Sequence[Sequence[int]] | np.ndarray, n_cols: int, bounds: Sequence[int]
) -> XorReduction:
    """Reduce the segments ``bounds[s]:bounds[s + 1]`` of the rows for later solves.

    The segments must share no column.  One peel covers them all; each
    segment's core is then eliminated alone, exactly as
    :func:`solve_xor_system` would, with core row t's right-hand side
    ``1 << t`` in place of its value.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    peel_order, core = peel(probe_rows, n_cols)
    core = np.array(core, dtype=np.int64)
    cuts = np.searchsorted(core, bounds)  # segment s's core rows: core[cuts[s]:cuts[s + 1]]
    failed: list[int] = []
    pivots: list[int] = []
    terms, counts = [core[:0]], [core[:0]]
    for s in np.flatnonzero(np.diff(cuts)).tolist():
        rows = core[cuts[s] : cuts[s + 1]]
        c = len(rows)
        solved = _solve_core(_core_rows(probe_rows, rows), [1 << t for t in range(c)], c)
        if solved is None:
            failed.append(s)
            continue
        marks = _bits(_words(solved[1], words_for(c)), c)
        pivots += solved[0]
        terms.append(rows[np.nonzero(marks)[1]])
        counts.append(marks.sum(axis=1, dtype=np.int64))
    if failed:
        seg_of = np.searchsorted(bounds, peel_order.rows, side="right") - 1
        peel_order = peel_order.restricted(~np.isin(seg_of, failed))
    counts_all = np.concatenate(counts)
    return XorReduction(
        probe_rows, n_cols, failed, peel_order, np.array(pivots, dtype=np.int64),
        np.concatenate(terms), np.cumsum(counts_all) - counts_all,
    )

