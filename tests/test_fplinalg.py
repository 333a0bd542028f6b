import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdescent import fplinalg
from pdescent.fplinalg import (
    first_seen_labels,
    kernel_basis,
    rref,
    sparse_kernel,
    sparse_rank,
    sparse_rows,
)
from pdescent.tower import SeriesSpec

from oracles import (
    brute_support,
    brute_support_sum,
    contains_subspace,
    enumerate_span,
    in_rowspan,
    mod_rank,
    mod_rref,
    random_subspace_rows,
    row_steps,
    subspace_support,
    support_size_by_enumeration,
)


def test_validate_prime():
    for p in (2, 3, 5, 7, 65521):
        assert fplinalg.validate_prime(p) == p
    assert fplinalg.validate_prime(np.int64(3)) == 3
    # a non-integral p is rejected, not truncated to a prime
    for bad in (0, 1, -2, 4, 9, 65536, 2.9, 2.5, 3.0, "3"):
        with pytest.raises(ValueError):
            fplinalg.validate_prime(bad)
    with pytest.raises(ValueError):
        SeriesSpec(kind="derived", p=2.5, depth=1)


def test_rref_idempotent_and_rank_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 7))
        m = rng.integers(0, p, size=(rows, cols))
        ech, rank = rref(m, p)
        assert rank == mod_rank(m.tolist(), p)
        ech2, rank2 = rref(ech, p)
        assert rank2 == rank
        assert np.array_equal(ech2, ech)


@st.composite
def matrices_mod_p(draw):
    """(matrix, p): dense or sparse entries, some rows and columns zeroed."""
    p = draw(st.sampled_from((2, 3, 5, 65521)))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    cells = rows * cols
    entries = st.integers(-p, 2 * p - 1)  # rref reduces mod p itself
    m = np.zeros(cells, dtype=np.int64)
    if draw(st.booleans()):
        m[:] = draw(st.lists(entries, min_size=cells, max_size=cells))
    else:  # density at most 0.1
        nonzero = draw(st.lists(st.integers(0, cells - 1), max_size=cells // 10, unique=True))
        for i in nonzero:
            m[i] = draw(st.integers(1, p - 1))
    m = m.reshape(rows, cols)
    m[sorted(draw(st.sets(st.integers(0, rows - 1), max_size=rows))), :] = 0
    m[:, sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols)))] = 0
    return m, p


@settings(max_examples=250, deadline=None, database=None)
@given(matrices_mod_p())
def test_rref_and_kernel_match_textbook_elimination(case):
    m, p = case
    before = m.copy()
    ech, r = rref(m, p)
    want, want_rank = mod_rref(m.tolist(), p)
    assert r == want_rank
    assert ech.tolist() == want
    assert np.array_equal(m, before)
    # the kernel basis is the unique reduced echelon basis of the kernel
    ker = kernel_basis(m, p)
    assert len(ker) == m.shape[1] - r
    assert np.all((m @ ker.T) % p == 0)
    assert ker.tolist() == mod_rref(ker.tolist(), p)[0]
    assert np.array_equal(m, before)


@st.composite
def wide_matrices_mod_p(draw):
    """(matrix, p): 1-4 rows, >= 1000 columns, a block of zero leading columns."""
    p = draw(st.sampled_from((2, 3, 5, 65521)))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1000, 1500))
    lead = draw(st.integers(0, cols - 1))
    m = np.zeros((rows, cols), dtype=np.int64)
    cells = st.tuples(st.integers(0, rows - 1), st.integers(lead, cols - 1), st.integers(1, p - 1))
    for r, c, v in draw(st.lists(cells, max_size=24)):
        m[r, c] = v
    if draw(st.booleans()):  # a dependent row
        m[-1] = (m[0] * draw(st.integers(0, p - 1)) + m[rows // 2]) % p
    return m, p


@settings(max_examples=60, deadline=None, database=None)
@given(wide_matrices_mod_p())
def test_rref_matches_textbook_elimination_on_wide_matrices(case):
    # the pivot search scans column windows; zero runs of any length must
    # give the same echelon form as the column-by-column textbook scan
    m, p = case
    before = m.copy()
    ech, r = rref(m, p)
    want, want_rank = mod_rref(m.tolist(), p)
    assert r == want_rank
    assert ech.tolist() == want
    assert np.array_equal(m, before)
    ker = kernel_basis(m, p)
    assert len(ker) == m.shape[1] - r
    assert not np.any((m @ ker.T) % p)
    # reduced echelon: increasing leading columns, each a unit column of ker
    leads = np.argmax(ker != 0, axis=1)
    assert np.all(np.diff(leads) > 0)
    assert np.array_equal(ker[:, leads], np.eye(len(ker), dtype=np.int64))


@st.composite
def matrices_mod_2(draw):
    """A matrix for the packed p = 2 path, with entries outside 0..1.

    Widths sit on both sides of the byte and 64-bit word edges and past
    1024; shapes include 0 rows and 0 columns; rows are dense, sparse or
    zero, with duplicated and dependent rows mixed in.
    """
    rows = draw(st.integers(0, 10))
    cols = draw(st.sampled_from((0, 1, 7, 8, 9, 63, 64, 65)) | st.integers(1025, 1100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.01, 0.5, 1.0)))
    m = rng.integers(-2, 4, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    if rows >= 3 and draw(st.booleans()):
        m[1] = m[0]  # a duplicate row, then a dependent one
        m[2] = m[0] + 3 * m[rows - 1]
    return m


@settings(max_examples=150, deadline=None, database=None)
@given(matrices_mod_2(), st.integers(0, 2**32 - 1))
def test_packed_f2_path_matches_textbook_elimination(m, seed):
    rng = np.random.default_rng(seed)
    rows, cols = m.shape
    before = m.copy()
    ech, r = rref(m, 2)
    want, want_rank = mod_rref(m.tolist(), 2)
    assert ech.dtype == np.int64 and ech.shape == m.shape
    assert r == want_rank and ech.tolist() == want
    assert fplinalg.rank(m, 2) == mod_rank(m.tolist(), 2)
    # reduced echelon: the kernel basis has cols - r rows, increasing
    # leading columns, unit columns there, and m kills every row
    ker = kernel_basis(m, 2)
    assert ker.dtype == np.int64 and ker.shape == (cols - r, cols)
    assert not np.any((m @ ker.T) % 2)
    if len(ker):
        leads = np.argmax(ker != 0, axis=1)
        assert np.all(np.diff(leads) > 0)
        assert np.array_equal(ker[:, leads], np.eye(len(ker), dtype=np.int64))
    # solve: a consistent right-hand side and a random one
    for b in ((m @ rng.integers(0, 2, size=cols)) % 2, rng.integers(0, 2, size=rows)):
        x = fplinalg.solve(m, b, 2)
        consistent = mod_rank(np.hstack([m, b.reshape(-1, 1)]).tolist(), 2) == want_rank
        assert (x is not None) == consistent
        if x is not None:
            assert x.dtype == np.int64 and np.array_equal((m @ x) % 2, b % 2)
    assert np.array_equal(m, before)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.sampled_from((np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64)),
    st.integers(0, 8),
    st.integers(0, 20),
    st.integers(0, 2**32 - 1),
)
def test_f2_rank_reads_the_low_bit_of_any_integer_dtype(dtype, rows, cols, seed):
    # p = 2 casts to uint8 before the low bit: the cast must keep the
    # parity of negative entries and of entries past 255
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    m = rng.integers(info.min, info.max, size=(rows, cols), dtype=dtype, endpoint=True)
    want, want_rank = mod_rref([[int(x) for x in row] for row in m.tolist()], 2)
    assert fplinalg.rank(m, 2) == want_rank
    ech, r = rref(m, 2)
    assert ech.dtype == np.int64 and r == want_rank and ech.tolist() == want


def test_in_rowspan_of_an_empty_basis():
    assert not in_rowspan([1, 0, 0], [], 2)
    assert in_rowspan([0, 0, 0], [], 2)
    assert not in_rowspan([0, 2, 0], np.zeros((0, 3), dtype=np.int64), 3)
    assert in_rowspan([0, 3, 0], [], 3)


@st.composite
def sparse_steps_mod_p(draw):
    """(rows, dense, p): sparse rows as (column, value) pair lists and the matrix they spell.

    A row can repeat a column, with values that cancel or not, hold a
    value that is a nonzero multiple of p, or hold nothing at all.
    """
    p = draw(st.sampled_from((2, 3, 5, 65521)))
    cols = draw(st.integers(1, 16))
    entry = st.tuples(st.integers(0, cols - 1), st.integers(-2 * p, 2 * p))
    rows, dense = [], []
    for _ in range(draw(st.integers(0, 12))):
        pairs = draw(st.lists(entry, max_size=6))
        for c, v in draw(st.lists(entry, max_size=2)):
            pairs += [(c, v), (c, -v)]  # a repeated column that cancels
        line = [0] * cols
        for c, v in pairs:
            line[c] += v
        rows.append(pairs)
        dense.append(line)
    return rows, dense, p


def _rows(rows, p):
    """The sparse_rows triple of rows given as dicts or (column, value) pair lists."""
    return sparse_rows(*row_steps(rows), p)


def _frozen(arrays):
    return [a.copy() for a in arrays]


def _unchanged(arrays, before) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(arrays, before))


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_steps_mod_p(), st.randoms(use_true_random=False))
def test_sparse_rank_matches_textbook_elimination(case, rnd):
    rows, dense, p = case
    steps = row_steps(rows)
    steps_before = _frozen(steps[:3])
    triple = sparse_rows(*steps, p)
    assert _unchanged(steps[:3], steps_before)
    before = _frozen(triple)
    r = sparse_rank(triple, p)
    assert _unchanged(triple, before)
    assert r == mod_rank(dense, p)
    # rank is invariant under relabelling columns and reordering rows;
    # labels need not be contiguous or non-negative
    cols = len(dense[0]) if dense else 1
    relabel = dict(zip(range(cols), rnd.sample(range(-10 * cols, 10 * cols, 10), cols)))
    moved = [[(relabel[c], v) for c, v in row] for row in rows]
    rnd.shuffle(moved)
    assert sparse_rank(_rows(moved, p), p) == r
    # first-appearance labels, as in the cocycle-basis cross-check, change
    # the pivots but not the rank that `sparse_kernel` finds on the raw rows
    ptr, raw, vals = triple
    row_of = np.repeat(np.arange(len(rows)), np.diff(ptr))
    relabelled = sparse_rows(row_of, first_seen_labels(raw), vals, len(rows), p)
    assert sparse_rank(relabelled, p) == sparse_kernel(triple, cols, p)[0] == r


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 40), max_size=30))
def test_first_seen_labels_number_columns_by_first_appearance(cols):
    labels = first_seen_labels(np.array(cols, dtype=np.int64))
    distinct = list(dict.fromkeys(cols))  # in first-appearance order
    assert labels.dtype == np.int64
    assert labels.tolist() == [distinct.index(c) for c in cols]
    assert sorted(set(labels.tolist())) == list(range(len(distinct)))


def test_first_seen_labels_examples():
    assert first_seen_labels([]).tolist() == []
    assert first_seen_labels([7, 3, 7, 0, 3, 9]).tolist() == [0, 1, 0, 2, 1, 3]
    with pytest.raises(ValueError, match="nonnegative"):
        first_seen_labels([2, -1])
    with pytest.raises(ValueError, match="not integers"):
        first_seen_labels([0.5, 1.0])


def _dense_kernel(dense, ncols, p):
    m = np.array(dense, dtype=np.int64).reshape(len(dense), ncols)
    if m.shape[0] == 0 or ncols == 0:  # no constraints: the identity
        return np.eye(ncols, dtype=np.int64)
    return kernel_basis(m, p)


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_steps_mod_p(), st.randoms(use_true_random=False))
def test_sparse_kernel_rows_are_the_dense_kernel_basis(case, rnd):
    rows, dense, p = case
    ncols = len(dense[0]) if dense else rnd.randint(0, 8)
    triple = _rows(rows, p)
    before = _frozen(triple)
    rank, free, row = sparse_kernel(triple, ncols, p)
    assert _unchanged(triple, before)
    want = _dense_kernel(dense, ncols, p)
    assert rank == mod_rank(dense, p)
    assert len(free) == len(want) == ncols - rank
    assert [int(np.flatnonzero(w)[0]) for w in want] == free.tolist()
    # rows on demand, in any order, and by negative index
    order = list(range(len(want)))
    rnd.shuffle(order)
    for i in order:
        got = row(i)
        assert got.dtype == np.int64 and got.tolist() == want[i].tolist()
        assert row(i - len(want)).tolist() == want[i].tolist()
    assert _unchanged(triple, before)


@settings(max_examples=200, deadline=None, database=None)
@given(sparse_steps_mod_p())
def test_sparse_rows_spell_the_summed_matrix(case):
    rows, dense, p = case
    ptr, cols, vals = _rows(rows, p)
    assert ptr.dtype == cols.dtype == vals.dtype == np.int64
    assert len(ptr) == len(rows) + 1 and ptr[0] == 0 and ptr[-1] == len(cols) == len(vals)
    for i, line in enumerate(dense):
        got = cols[ptr[i] : ptr[i + 1]].tolist()
        assert got == sorted(set(got))  # ascending, one entry per column
        assert got == [c for c, x in enumerate(line) if x % p]
        assert vals[ptr[i] : ptr[i + 1]].tolist() == [x % p for x in line if x % p]


def _fill_in_rows(rng, p, nrows, ncols):
    """Rows of three entries that all share the last column, plus two random ones.

    Every row after the first meets the pivot of that column and takes on
    its entries, and then those of the pivots it meets next, so stored
    rows grow longer than any input row.
    """
    rows = []
    for _ in range(nrows):
        cols = rng.choice(ncols - 1, size=2, replace=False).tolist() + [ncols - 1]
        rows.append({c: int(rng.integers(1, p)) for c in cols})
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_kernel_rows_annihilate_rows_with_long_fill_in(p):
    rng = np.random.default_rng(p)
    grown = 0
    for _ in range(20):
        ncols = int(rng.integers(8, 30))
        rows = _fill_in_rows(rng, p, int(rng.integers(4, ncols)), ncols)
        triple = _rows(rows, p)
        pivots, _ = fplinalg._eliminate(triple, p)
        # fill-in past every input row's three entries
        grown += max(1 + len(row if p == 2 else row[0]) for row in pivots.values()) > 3
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        rank, free, row = sparse_kernel(triple, ncols, p)
        assert rank == sparse_rank(triple, p) == mod_rank(dense, p) == ncols - len(free)
        kernel = np.array([row(i) for i in range(len(free))], dtype=np.int64).reshape(-1, ncols)
        assert not np.any(np.array(dense, dtype=np.int64) @ kernel.T % p)
        assert mod_rank(kernel.tolist(), p) == len(free)
    assert grown >= 15


def test_sparse_rows_examples():
    def spelled(rows, p):
        ptr, cols, vals = _rows(rows, p)
        return ptr.tolist(), cols.tolist(), vals.tolist()

    assert spelled([], 3) == ([0], [], [])
    # an empty row, a row that sums to zero, and entries that are 0 mod p
    assert spelled([{}, [(4, 2), (4, -2)], {1: 6, 2: -9}], 3) == ([0, 0, 0, 0], [], [])
    # columns ascend within each row, repeats add up, negative labels sort first
    assert spelled([[(7, 1), (-3, 2), (7, 1)], [], {0: 65522}], 65521) == (
        [0, 2, 2, 3], [-3, 7, 0], [2, 2, 1]
    )
    # steps of the same row need not be adjacent
    assert sparse_rows([1, 0, 1], [5, 5, 2], [1, 1, 1], 2, 5)[0].tolist() == [0, 1, 3]
    with pytest.raises(ValueError, match="overflow"):
        sparse_rows([0, 1], [0, 2**62], [1, 1], 2, 3)
    with pytest.raises(ValueError, match="out of range"):
        sparse_rows([0, 2], [0, 1], [1, 1], 2, 3)
    with pytest.raises(ValueError, match="one length"):
        sparse_rows([0], [0, 1], [1, 1], 1, 3)


def test_sparse_kernel_examples():
    rank, free, row = sparse_kernel(_rows([], 5), 0, 5)
    assert (rank, free.tolist()) == (0, [])
    rank, free, row = sparse_kernel(_rows([{}, {}], 2), 3, 2)
    assert (rank, free.tolist(), [row(i).tolist() for i in range(3)]) == (
        0, [0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    # x0 + x1 + x2 = 0 and x1 - x2 = 0 at p = 3: the kernel is (1, 1, 1)
    rank, free, row = sparse_kernel(_rows([{0: 1, 1: 1, 2: 1}, {1: 4, 2: -1}], 3), 3, 3)
    assert (rank, free.tolist(), row(0).tolist()) == (2, [0], [1, 1, 1])
    # entries that are multiples of p vanish, and a dependent row adds no rank
    rows = _rows([{1: 65521}, {0: 2, 1: 0}, {0: -2}], 65521)
    rank, free, row = sparse_kernel(rows, 2, 65521)
    assert (rank, free.tolist(), row(0).tolist()) == (1, [1], [0, 1])


def test_sparse_rank_examples():
    assert sparse_rank(_rows([], 3), 3) == 0
    assert sparse_rank(_rows([{}, {0: 3, 1: -6}], 3), 3) == 0
    assert sparse_rank(_rows([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 2), 2) == 2
    assert sparse_rank(_rows([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3), 3) == 3
    assert sparse_rank(_rows([{5: 65520}, {5: -1, 9: 65521}], 65521), 65521) == 1


def test_kernel_basis_is_kernel_and_dimension_formula():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 7))
        m = rng.integers(0, p, size=(rows, cols))
        ker = kernel_basis(m, p)
        assert ker.shape[1] == cols
        assert np.all((m @ ker.T) % p == 0)
        assert len(ker) + fplinalg.rank(m, p) == cols
        # kernel rows are independent
        if len(ker):
            assert mod_rank(ker.tolist(), p) == len(ker)


def _textbook_kernel(m, p):
    """The reduced echelon kernel basis: free-column vectors, echelonised again."""
    rows, cols = m.shape
    reduced, r = mod_rref(m.tolist(), p) if rows else ([], 0)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced[:r]]
    vecs = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = -row[f] % p
        vecs.append(v)
    return mod_rref(vecs, p)[0] if vecs else []


@st.composite
def kernel_matrices(draw):
    """(matrix, p): random, wide, empty (no rows, no columns or all zero) or full row rank."""
    p = draw(st.sampled_from((2, 3, 5, 65521)))
    kind = draw(st.sampled_from(("random", "wide", "empty", "full")))
    rows, cols = {
        "random": (draw(st.integers(1, 6)), draw(st.integers(1, 8))),
        "wide": (draw(st.integers(1, 4)), draw(st.integers(20, 70))),
        "empty": draw(st.sampled_from(((0, 5), (3, 0), (0, 0), (2, 6)))),
        "full": (draw(st.integers(1, 5)), draw(st.integers(5, 12))),
    }[kind]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
    if kind == "empty":
        m[:] = 0
    if kind == "full":  # an identity on random columns makes the rows independent
        m[:, rng.permutation(cols)[:rows]] = np.eye(rows, dtype=np.int64)
    return m, p


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_matrices())
def test_kernel_basis_is_the_textbook_reduced_echelon_kernel(case):
    m, p = case
    before = m.copy()
    ker = kernel_basis(m, p)
    assert (m == before).all()
    assert ker.dtype == np.int64 and ker.shape == (len(ker), m.shape[1])
    assert ker.tolist() == _textbook_kernel(m, p)


def test_kernel_is_complete_by_enumeration():
    # every vector annihilated by m lies in the span of kernel_basis
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        cols = int(rng.integers(1, 5))
        m = rng.integers(0, p, size=(2, cols))
        ker = kernel_basis(m, p)
        brute = [
            vec
            for vec in itertools.product(range(p), repeat=cols)
            if all(sum(a * b for a, b in zip(row, vec)) % p == 0 for row in m)
        ]
        assert len(brute) == p ** len(ker)


def test_solve_finds_consistent_solutions():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 6))
        m = rng.integers(0, p, size=(rows, cols))
        x = rng.integers(0, p, size=cols)
        b = (m @ x) % p
        sol = fplinalg.solve(m, b, p)
        assert sol is not None
        assert np.array_equal((m @ sol) % p, b)
    # (x0, x0) = (1, 1) is consistent, (x0, x0) = (1, 0) is not
    m = np.array([[1, 0], [1, 0]])
    assert fplinalg.solve(m, np.array([1, 1]), 2) is not None
    assert fplinalg.solve(m, np.array([1, 0]), 2) is None


def test_subspace_support_examples():
    # span{(1,1,0),(0,1,1)} in F_2^3 covers all three coordinates
    assert subspace_support([[1, 1, 0], [0, 1, 1]], 2) == {0, 1, 2}
    assert subspace_support(np.zeros((0, 4), dtype=np.int64), 2) == set()
    assert subspace_support([[0, 2, 0, 1]], 3) == {1, 3}
    # entries are read mod p
    assert subspace_support([[0, 2, 0, 1]], 2) == {3}


def test_support_matches_brute_force_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        dim = int(rng.integers(1, 4))
        ambient = int(rng.integers(dim, 8))
        rows = random_subspace_rows(rng, p, dim, ambient)
        assert subspace_support(rows, p) == brute_support(rows, p)


def test_support_sum_identity_against_oracle():
    # sum of member supports = |supp(W)| * (p-1) * p^(dim-1)
    rng = np.random.default_rng(29)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        dim = int(rng.integers(1, 4))
        ambient = int(rng.integers(dim, 7))
        rows = random_subspace_rows(rng, p, dim, ambient)
        value = support_size_by_enumeration(rows, p)
        assert value == len(subspace_support(rows, p))
        # a dependent row changes no support: (p-1) p^(d-1) counts every spanning set
        assert support_size_by_enumeration(rows + [rows[0]], p) == value
        assert brute_support_sum(rows, p) == value * (p - 1) * p ** (dim - 1)


def test_support_sum_oracle_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        support_size_by_enumeration(np.eye(8, dtype=np.int64), 2, cap=100)


def test_subspace_membership_and_intersection():
    rng = np.random.default_rng(31)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        ambient = int(rng.integers(2, 7))
        a = rng.integers(0, p, size=(2, ambient))
        b = rng.integers(0, p, size=(2, ambient))
        # the intersection by enumeration: the elements of span(a) in span(b)
        meet = [v for v in set(enumerate_span(a.tolist(), p)) if in_rowspan(v, b, p)]
        for row in meet:
            assert in_rowspan(row, a, p)
        meet = np.array(meet, dtype=np.int64).reshape(-1, ambient)
        assert contains_subspace(a, meet, p) and contains_subspace(b, meet, p)
        assert contains_subspace(a, b, p) == all(in_rowspan(row, a, p) for row in b)
        # dim(A) + dim(B) = dim(A+B) + dim(A cap B)
        ra = fplinalg.rank(a, p)
        rb = fplinalg.rank(b, p)
        rsum = fplinalg.rank(np.vstack([a, b]), p)
        assert ra + rb == rsum + fplinalg.rank(meet, p)

