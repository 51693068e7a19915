import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_rank, random_weight_k_entries
from xorfunc import gf2
from xorfunc.gf2 import (
    eliminate,
    pack_probe_rows,
    reduce_segments,
    solve_xor_system,
    system_full_rank,
)


def probe_rows_of(entries):
    """Probe sets (set columns per row) of explicit 0/1 rows."""
    return [tuple(j for j, v in enumerate(row) if v) for row in entries]


def full_rank(rows, n_cols):
    return system_full_rank(rows, n_cols) is not None


def xor_of(table, row):
    acc = 0
    for j in row:
        acc ^= int(table[j])
    return acc


def reduce_xor_system(rows, n_cols):
    """The reduction of the rows as one segment, or None when they are dependent."""
    reduction = reduce_segments(rows, n_cols, [0, len(rows)])
    return None if reduction.failed else reduction


def core_terms(reduction):
    """For each core pivot, the rows whose values XOR to its entry."""
    return np.split(reduction.core_terms, reduction.core_starts[1:])


def queue_peel(rows, n_cols):
    """Peel one column at a time from a first-in-first-out queue: the reference.

    Returns the peeled rows and columns in peel order, the layer bounds
    (a layer ends when the queue holds just the columns the layer freed)
    and the core.
    """
    deg = [0] * n_cols
    cxor = [0] * n_cols
    for i, row in enumerate(rows):
        for j in row:
            deg[j] += 1
            cxor[j] ^= i
    queue = deque(j for j in range(n_cols) if deg[j] == 1)
    peeled_rows: list[int] = []
    peeled_cols: list[int] = []
    bounds = [0]
    layer_end = len(queue)  # pops until the queue holds just the next layer
    peeled = [False] * len(rows)
    while queue:
        j = queue.popleft()
        layer_end -= 1
        if deg[j] == 1:
            i = cxor[j]
            peeled[i] = True
            peeled_rows.append(i)
            peeled_cols.append(j)
            for j2 in rows[i]:
                deg[j2] -= 1
                cxor[j2] ^= i
                if deg[j2] == 1:
                    queue.append(j2)
        if not layer_end:
            if len(peeled_rows) > bounds[-1]:
                bounds.append(len(peeled_rows))
            layer_end = len(queue)
    core = [i for i, done in enumerate(peeled) if not done]
    return peeled_rows, peeled_cols, bounds, core


def queue_solve(rows, values, n_cols):
    """:func:`solve_xor_system` through the queue peel and a column-at-a-time
    back-substitution, last peeled first: the reference.  None when rows are dependent."""
    peeled_rows, peeled_cols, _, core = queue_peel(rows, n_cols)
    table = [0] * n_cols
    pivots: list[int] = []
    if core:
        vals = [values[i] for i in core]
        solved = gf2._solve_core([rows[i] for i in core], vals, max(vals).bit_length())
        if solved is None:
            return None
        pivots, entries = solved
        for j, v in zip(pivots, entries):
            table[j] = v
    for i, j in zip(reversed(peeled_rows), reversed(peeled_cols)):
        acc = values[i]
        for j2 in rows[i]:
            if j2 != j:
                acc ^= table[j2]
        table[j] = acc
    return table, pivots + peeled_cols[::-1]


def test_rank_identity():
    assert system_full_rank([(0,), (1,), (2,)], 3) == [0, 1, 2]


def test_rank_duplicate_rows():
    assert system_full_rank([(0, 2), (0, 2)], 3) is None


def test_rank_random_weight3_matches_naive_oracle():
    rng = random.Random(7)
    entries = random_weight_k_entries(rng, 100, 120, 3)
    assert full_rank(probe_rows_of(entries), 120) == (naive_rank(entries) == 100)


def test_rank_fuzz_against_naive_oracle():
    rng = random.Random(11)
    for trial in range(1000):
        if trial % 33 == 0:
            n_rows = rng.randint(40, 64)
            n_cols = rng.randint(40, 64)
        else:
            n_rows = rng.randint(1, 20)
            n_cols = rng.randint(1, 20)
        entries = [
            [1 if rng.random() < 0.35 else 0 for _ in range(n_cols)] for _ in range(n_rows)
        ]
        assert full_rank(probe_rows_of(entries), n_cols) == (naive_rank(entries) == n_rows)


def test_rank_invariant_under_row_ops():
    rng = random.Random(13)
    entries = random_weight_k_entries(rng, 30, 40, 3)
    rows = [sum(1 << j for j, v in enumerate(row) if v) for row in entries]
    base = naive_rank(entries)
    for _ in range(50):
        i, j = rng.randrange(30), rng.randrange(30)
        if i != j:
            rows[i] ^= rows[j]  # xor one row into another
        a, b = rng.randrange(30), rng.randrange(30)
        rows[a], rows[b] = rows[b], rows[a]
    mixed = [tuple(j for j in range(40) if row >> j & 1) for row in rows]
    assert full_rank(mixed, 40) == (base == 30)


def test_pseudoinverse_identity():
    reduction = reduce_xor_system([(0,), (1,), (2,), (3,)], 4)
    assert reduction.solve([5, 6, 7, 8]).tolist() == [5, 6, 7, 8]


def test_pseudoinverse_postcondition_direct_multiply():
    rows = [(0, 1), (1, 2), (0, 1, 2)]  # no column is hit once: all three form the core
    reduction = reduce_xor_system(rows, 3)
    assert sorted(reduction.core_pivots.tolist()) == [0, 1, 2]
    # the rows marked for pivot t XOR to the unit vector of column core_pivots[t]
    for t, marked in enumerate(core_terms(reduction)):
        acc = 0
        for c in marked:
            acc ^= sum(1 << j for j in rows[c])
        assert acc == 1 << int(reduction.core_pivots[t])


def test_pseudoinverse_zero_row_is_singular():
    assert reduce_xor_system([(0, 2), ()], 3) is None


def test_pseudoinverse_random_instances_pivot_columns_exact():
    rng = random.Random(17)
    built = 0
    while built < 20:
        rows = [tuple(rng.sample(range(35), 3)) for _ in range(25)]
        reduction = reduce_xor_system(rows, 35)
        if reduction is None:
            continue
        built += 1
        pivots = reduction.core_pivots.tolist()
        assert len(set(pivots)) == len(pivots) == len(gf2.peel(rows, 35)[1])
        for t, marked in enumerate(core_terms(reduction)):
            acc = 0
            for c in marked:
                acc ^= sum(1 << j for j in rows[c])
            assert [acc >> b & 1 for b in pivots] == [int(s == t) for s in range(len(pivots))]


def test_solve_sparse_identity():
    table, pivots = solve_xor_system([(i,) for i in range(5)], [1, 2, 3, 4, 5], 5)
    assert table.tolist() == [1, 2, 3, 4, 5]
    assert sorted(pivots) == [0, 1, 2, 3, 4]


def test_solve_sparse_random_full_rank_instance():
    rng = random.Random(23)
    while True:
        rows = [tuple(rng.sample(range(60), 3)) for _ in range(50)]
        if full_rank(rows, 60):
            break
    values = [rng.randrange(256) for _ in range(50)]
    table, pivots = solve_xor_system(rows, values, 60)
    assert len(table) == 60
    assert [xor_of(table, row) for row in rows] == values
    non_pivot = set(range(60)) - set(pivots)
    assert all(table[j] == 0 for j in non_pivot)


def test_solve_sparse_zero_rhs_gives_zero_solution():
    table, _ = solve_xor_system([(0, 1), (1, 2)], [0, 0], 3)
    assert not table.any()


def test_solve_roundtrip_across_widths():
    rng = random.Random(29)
    for r in (1, 8, 16, 32, 64):
        while True:
            rows = [tuple(rng.sample(range(40), 3)) for _ in range(30)]
            if full_rank(rows, 40):
                break
        for _ in range(100):
            values = [rng.getrandbits(r) for _ in range(30)]
            table, _ = solve_xor_system(rows, values, 40)
            assert [xor_of(table, row) for row in rows] == values


def test_solve_xor_system_solution_and_pivots():
    rng = random.Random(37)
    rows = [tuple(rng.sample(range(80), 3)) for _ in range(60)]
    values = [rng.randrange(256) for _ in range(60)]
    solved = solve_xor_system(rows, values, 80)
    if solved is None:
        pytest.skip("rare singular draw")
    table, pivots = solved
    assert len(pivots) == 60 and len(set(pivots)) == 60
    non_pivot = set(range(80)) - set(pivots)
    assert all(table[j] == 0 for j in non_pivot)
    for row, v in zip(rows, values):
        acc = 0
        for j in row:
            acc ^= int(table[j])
        assert acc == v


def test_solve_xor_system_singular_returns_none():
    rows = [(0, 1, 2), (0, 1, 2)]
    assert solve_xor_system(rows, [1, 2], 5) is None
    assert system_full_rank(rows, 5) is None


def test_system_full_rank_agrees_with_bitmatrix_rank():
    rng = random.Random(41)
    for _ in range(200):
        n_rows = rng.randint(1, 25)
        n_cols = rng.randint(max(3, n_rows - 3), 40)
        k = rng.randint(1, min(3, n_cols))
        rows = [tuple(rng.sample(range(n_cols), k)) for _ in range(n_rows)]
        entries = [[1 if j in row else 0 for j in range(n_cols)] for row in rows]
        full = naive_rank(entries) == n_rows
        assert (system_full_rank(rows, n_cols) is not None) == full


def test_reduction_solves_like_solve_xor_system():
    rng = random.Random(43)
    cores = 0
    for _ in range(150):
        n_cols = rng.randint(3, 100)
        n_rows = rng.randint(0, n_cols)
        rows = [tuple(rng.sample(range(n_cols), 3)) for _ in range(n_rows)]
        reduction = reduce_xor_system(rows, n_cols)
        assert (reduction is None) == (system_full_rank(rows, n_cols) is None)
        if reduction is None:
            continue
        cores += bool(len(reduction.core_pivots))
        for bits in (1, 64):
            values = [rng.getrandbits(bits) for _ in range(n_rows)]
            table, _ = solve_xor_system(rows, values, n_cols)
            assert reduction.solve(values).tolist() == table.tolist()
    assert cores > 0  # the dense-core route was taken


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_rank_bounds_property(rows):
    sets = [tuple(j for j in range(20) if row >> j & 1) for row in rows]
    pivots = system_full_rank(sets, 20)
    if pivots is not None:
        assert len(pivots) == len(set(pivots)) == len(rows) <= 20
    # duplicating every row never leaves full rank
    assert system_full_rank(sets + sets, 20) is None


def _oracle(rows, n_cols):
    """Exhaustive search: for every column vector x, the bitmask of rows it satisfies."""
    masks = [sum(1 << j for j in row) for row in rows]
    images = {}
    for x in range(1 << n_cols):
        image = sum(((m & x).bit_count() & 1) << i for i, m in enumerate(masks))
        images.setdefault(image, []).append(x)
    return images


def _check_against_oracle(rows, n_cols, values, r, table, pivots):
    images = _oracle(rows, n_cols)
    assert len(pivots) == len(set(pivots)) == len(rows)
    support = sum(1 << j for j in pivots)
    for b in range(r):
        # bit b of the table is the one solution of bit b of the values
        # among the column vectors that are zero off the pivots
        target = sum((v >> b & 1) << i for i, v in enumerate(values))
        on_pivots = [x for x in images[target] if not x & ~support]
        assert on_pivots == [sum((int(table[j]) >> b & 1) << j for j in range(n_cols))]


def test_small_systems_match_exhaustive_search():
    rng = random.Random(47)
    seen = {"dependent": 0, "empty core": 0, "core": 0}
    for trial in range(600):
        n_rows = rng.randint(1, 9)  # one more row may be added below
        n_cols = rng.randint(1, 12)
        low = 1
        if trial % 2:  # heavy rows over few columns rarely peel: a dense core
            n_cols = rng.randint(n_rows, min(12, n_rows + 3))
            low = 3
        rows = [tuple(rng.sample(range(n_cols), rng.randint(min(low, n_cols), min(4, n_cols))))
                for _ in range(n_rows)]
        if trial % 10 == 0:
            rows.append(rows[0])  # a repeated row
        if trial % 10 == 1 and len(rows) > 1 and 1 <= len(set(rows[0]) ^ set(rows[1])) <= 4:
            rows.append(tuple(set(rows[0]) ^ set(rows[1])))  # the sum of two rows
        r = rng.choice((1, 3, 8))
        values = [rng.getrandbits(r) for _ in rows]
        independent = len(_oracle(rows, n_cols)) == 1 << len(rows)

        solved = solve_xor_system(rows, values, n_cols)
        reduction = reduce_xor_system(rows, n_cols)
        assert (system_full_rank(rows, n_cols) is not None) == independent
        assert (solved is not None) == independent
        assert (reduction is not None) == independent
        if not independent:
            seen["dependent"] += 1
            continue
        seen["core" if len(reduction.core_pivots) else "empty core"] += 1
        table, pivots = solved
        assert [xor_of(table, row) for row in rows] == values
        assert all(table[j] == 0 for j in set(range(n_cols)) - set(pivots))
        _check_against_oracle(rows, n_cols, values, r, table, pivots)
        assert reduction.solve(values).tolist() == table.tolist()
    assert min(seen.values()) >= 20, seen


def _solve_on_columns(rows, values, cols):
    """Gauss-Jordan on int bitsets, restricted to ``cols``: the unique solution there."""
    pos = {j: t for t, j in enumerate(cols)}
    width = len(cols)
    eqs = [sum(1 << pos[j] for j in row if j in pos) | v << width for row, v in zip(rows, values)]
    for t in range(width):
        p = next(i for i in range(t, len(eqs)) if eqs[i] >> t & 1)
        eqs[t], eqs[p] = eqs[p], eqs[t]
        for i in range(len(eqs)):
            if i != t and eqs[i] >> t & 1:
                eqs[i] ^= eqs[t]
    return {j: eqs[pos[j]] >> width for j in cols}


def test_dense_core_is_the_unique_solution_on_its_pivots():
    n, k, delta = 2000, 4, 0.035
    m = math.ceil((1 + delta) * n)
    rng = random.Random(53)
    for _ in range(20):
        rows = [tuple(rng.sample(range(m), k)) for _ in range(n)]
        values = [rng.getrandbits(8) for _ in range(n)]
        solved = solve_xor_system(rows, values, m)
        if solved is not None:
            break
    table, pivots = solved
    reduction = reduce_xor_system(rows, m)
    assert len(reduction.core_pivots) > n // 2  # most rows stay in the dense core
    assert [xor_of(table, row) for row in rows] == values
    assert len(set(pivots)) == n
    assert not table[sorted(set(range(m)) - set(pivots))].any()
    expected = _solve_on_columns(rows, values, sorted(pivots))
    assert all(int(table[j]) == v for j, v in expected.items())
    assert reduction.solve(values).tolist() == table.tolist()


def test_eliminate_is_forward_only_and_rides_the_row_operations():
    rng = random.Random(59)
    n_rows, n_cols = 40, 70
    rows = [tuple(rng.sample(range(n_cols), 3)) for _ in range(n_rows)]
    packed = pack_probe_rows(rows, n_cols)
    identity = pack_probe_rows([[i] for i in range(n_rows)], n_rows)
    arr = np.hstack([packed, identity])
    pivots = eliminate(arr, n_cols)
    masks = [sum(1 << j for j in row) for row in rows]
    width = 64 * packed.shape[1]
    values = [int.from_bytes(row.tobytes(), "little") for row in arr]
    echelon = [v & ((1 << width) - 1) for v in values]
    for t, c in enumerate(pivots):  # zero left of its pivot, and the pivot cleared below
        assert echelon[t] & ((2 << c) - 1) == 1 << c
        assert not any(e >> c & 1 for e in echelon[t + 1 :])
    assert not any(echelon[len(pivots) :])
    for e, v in zip(echelon, values):  # the ridden words record the row operations
        combined = 0
        for i in range(n_rows):
            if v >> (width + i) & 1:
                combined ^= masks[i]
        assert combined == e
    assert len(pivots) == naive_rank([[int(j in row) for j in range(n_cols)] for row in rows])


def test_rank_solve_and_reduction_share_pivots():
    rng = random.Random(61)
    for _ in range(50):
        n_cols = rng.randint(10, 80)
        rows = [tuple(rng.sample(range(n_cols), 3)) for _ in range(rng.randint(1, n_cols))]
        pivots = system_full_rank(rows, n_cols)
        if pivots is None:
            continue
        values = [rng.getrandbits(16) for _ in rows]
        _, solve_pivots = solve_xor_system(rows, values, n_cols)
        reduction = reduce_xor_system(rows, n_cols)
        peeled = [j for _, j in reduction.peel_order]
        core_pivots = reduction.core_pivots.tolist()
        assert sorted(pivots) == sorted(solve_pivots) == sorted(peeled + core_pivots)


def _pivot_columns(rows, n_cols):
    """Pivots of a column-order elimination on int bitsets, or None when rows are dependent.

    Rows are reduced by their lowest set column; the lowest columns of the
    resulting echelon basis are the columns a column-order elimination takes.
    """
    basis = {}
    for row in rows:
        r = sum(1 << j for j in row)
        while r:
            low = (r & -r).bit_length() - 1
            if low not in basis:
                basis[low] = r
                break
            r ^= basis[low]
        else:
            return None
    return sorted(basis)


def _random_system(k, delta, n, seed):
    m = math.ceil((1 + delta) * n)
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.sample(range(m), k)) for _ in range(n)]
        if _pivot_columns(rows, m) is not None:
            return rows, m


@pytest.mark.parametrize("k,delta", [(3, 0.10), (4, 0.035), (5, 0.02)])
@pytest.mark.parametrize("bits", [0, 8, 64])
def test_core_solution_is_zero_off_the_column_order_pivots(k, delta, bits):
    rows, m = _random_system(k, delta, 1000, 67 + k)
    rng = random.Random(bits)
    values = [rng.getrandbits(bits) for _ in rows]
    peel_order, core = gf2.peel(rows, m)  # peeled columns, then the core's in column order
    pivots = sorted([j for _, j in peel_order] + _pivot_columns([rows[i] for i in core], m))
    expected = _solve_on_columns(rows, values, pivots)

    assert sorted(system_full_rank(rows, m)) == pivots
    table, solve_pivots = solve_xor_system(rows, values, m)
    assert sorted(solve_pivots) == pivots
    assert table.tolist() == [expected.get(j, 0) for j in range(m)]
    reduction = reduce_xor_system(rows, m)
    assert len(core) > len(rows) // 2  # the lazy and dense stages both ran
    assert reduction.solve(values).tolist() == table.tolist()


def test_duplicated_core_row_is_dependent_everywhere():
    rows, m = _random_system(4, 0.035, 1000, 71)
    rows = rows + [rows[500]]
    values = list(range(len(rows)))
    assert system_full_rank(rows, m) is None
    assert solve_xor_system(rows, values, m) is None
    assert reduce_xor_system(rows, m) is None


def test_lazy_core_leaves_a_small_dense_system(monkeypatch):
    n, k, delta = 2000, 4, 0.035
    m = math.ceil((1 + delta) * n)
    rng = random.Random(53)
    handed = []

    def counting(arr, n_cols):
        handed.append(arr.shape[0])
        return eliminate(arr, n_cols)

    monkeypatch.setattr(gf2, "eliminate", counting)
    for _ in range(20):
        rows = [tuple(rng.sample(range(m), k)) for _ in range(n)]
        values = [rng.getrandbits(8) for _ in range(n)]
        handed.clear()
        if solve_xor_system(rows, values, m) is not None:
            break
    _, core = gf2.peel(rows, m)
    assert len(core) > n // 2
    assert sum(handed) <= 0.2 * len(core)


def _k_sets(k, n, m, seed):
    """n random sets of k distinct columns in [m], as an (n, k) int array."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, (n, k))
    while True:
        repeated = (np.diff(np.sort(rows, axis=1), axis=1) == 0).any(axis=1)
        if not repeated.any():
            return rows
        rows[repeated] = rng.integers(0, m, (int(repeated.sum()), k))


# table widths m / n per (k, has_core): from n = 1000 on, without a core every
# row peels; with one, most rows stay in a core that still has full rank
WIDTH = {
    (3, False): 1.35, (4, False): 1.40, (5, False): 1.55,
    (3, True): 1.10, (4, True): 1.04, (5, True): 1.03,
}


@pytest.mark.parametrize("n", [20, 200, 1000, 5000, 50000])
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("has_core", [False, True], ids=["peels", "core"])
def test_layered_peel_matches_the_queue(n, k, has_core):
    m = math.ceil(WIDTH[k, has_core] * n)
    rows = _k_sets(k, n, m, seed=n + k)
    queue_rows, queue_cols, queue_bounds, queue_core = queue_peel(rows.tolist(), m)
    if n >= 1000:
        assert (len(queue_core) > n // 4) == has_core
    for given in (rows, rows.tolist()):
        order, core = gf2.peel(given, m)
        assert core == queue_core
        assert order.rows.tolist() == queue_rows
        assert order.cols.tolist() == queue_cols
        assert order.bounds == queue_bounds
    assert list(order) == list(zip(order.rows.tolist(), order.cols.tolist()))
    pivot = np.zeros(m, dtype=bool)
    for lo, hi in zip(order.bounds, order.bounds[1:]):  # a row holds one pivot of its layer
        pivot[order.cols[lo:hi]] = True
        assert (pivot[rows[order.rows[lo:hi]]].sum(axis=1) == 1).all()
        pivot[order.cols[lo:hi]] = False


@pytest.mark.parametrize("n,k,has_core", [
    (20, 5, False), (200, 4, False), (2000, 3, False), (20000, 4, False), (50000, 5, False),
    (20, 4, True), (200, 3, True), (1500, 3, True), (3000, 4, True), (3000, 5, True),
])
def test_layered_solver_matches_the_queue(n, k, has_core):
    m = math.ceil(WIDTH[k, has_core] * n)
    rows = _k_sets(k, n, m, seed=7 * n + k)
    values = np.random.default_rng(n).integers(0, 1 << 63, n).tolist()
    expected = queue_solve(rows.tolist(), values, m)
    _, peeled_cols, _, core = queue_peel(rows.tolist(), m)
    for given in (rows, rows.tolist()):
        solved = solve_xor_system(given, values, m)
        reduction = reduce_xor_system(given, m)
        full_rank = system_full_rank(given, m)
        assert (solved is None) == (reduction is None) == (full_rank is None) == (expected is None)
        if expected is None:
            continue
        assert (solved[0].tolist(), solved[1]) == expected
        assert full_rank == peeled_cols + expected[1][: len(core)]
        assert reduction.solve(values).tolist() == expected[0]
    assert (expected is None) == ((n, k) == (20, 4))  # one small system is dependent
    if expected is not None:
        table, pivots = expected
        assert all(xor_of(table, row) == v for row, v in zip(rows.tolist(), values))
        assert sorted(pivots) == sorted(set(pivots)) and len(pivots) == n


@st.composite
def segment_layouts(draw):
    """Segments of random rows over their own few columns, one of them singular.

    Segments may be empty, hold one row, hold more rows than columns, or
    hold rows with no columns.
    """
    segments = []
    for _ in range(draw(st.integers(0, 5))):
        n_cols = draw(st.integers(0, 8))
        row = st.lists(st.integers(0, max(0, n_cols - 1)), max_size=min(4, n_cols), unique=True)
        segments.append((draw(st.lists(row.map(tuple), max_size=10)), n_cols))
    singular = ([(0, 1), (1, 2), (0, 2), (2, 3)], 4)  # the first three sum to zero
    segments.insert(draw(st.integers(0, len(segments))), singular)
    return segments


@given(segment_layouts(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_segments_solve_as_if_alone(segments, rng):
    rows, bounds, offsets = [], [0], [0]
    for seg_rows, n_cols in segments:
        rows += [tuple(offsets[-1] + j for j in row) for row in seg_rows]
        bounds.append(len(rows))
        offsets.append(offsets[-1] + n_cols)
    values = [rng.getrandbits(64) for _ in rows]
    reduction = reduce_segments(rows, offsets[-1], bounds)
    table = reduction.solve(values)
    for s, (seg_rows, n_cols) in enumerate(segments):
        alone = queue_solve(seg_rows, values[bounds[s] : bounds[s + 1]], n_cols)
        assert (s in reduction.failed) == (alone is None)
        expected = [0] * n_cols if alone is None else alone[0]
        assert table[offsets[s] : offsets[s + 1]].tolist() == expected
    assert reduction.failed  # the singular segment fails, and fails alone


def test_singular_segment_leaves_its_neighbours_solved():
    # the middle segment's first three rows sum to zero; its last row still peels
    rows = [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (5, 6), (7, 8), (8, 9)]
    values = [1, 2, 3, 4, 5, 6, 7, 8]
    reduction = reduce_segments(rows, 10, [0, 2, 6, 8])
    assert reduction.failed == [1]
    table = reduction.solve(values)
    first = queue_solve([(0, 1), (1, 2)], values[:2], 3)[0]
    last = queue_solve([(0, 1), (1, 2)], values[6:], 3)[0]
    assert table.tolist() == first + [0, 0, 0, 0] + last
    assert [xor_of(table, rows[i]) for i in (0, 1, 6, 7)] == [1, 2, 7, 8]
