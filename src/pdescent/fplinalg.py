"""Exact linear algebra over the prime field F_p.

Vectors and matrices are numpy integer arrays with entries reduced to
0..p-1; all elimination is exact (no floating point anywhere).  Subspaces
are kept in reduced row echelon form so that equal subspaces have equal
basis matrices, which downstream code relies on for reproducibility.
Elimination touches only the rows a pivot can change, so its cost scales
with the nonzeros of the pivot columns rather than with the matrix size.
`sparse_kernel` and `sparse_rank` eliminate sparse rows, held as the
(ptr, cols, vals) arrays that `sparse_rows` builds, without building a
matrix at all: the first gives the reduced echelon kernel basis one row
at a time, the second the rank only.  Both lead each row with its largest
column; `first_seen_labels` numbers columns so that a row's newest column
is its largest.  A row being reduced is a {column: value} dict at odd p
and a set of columns at p = 2, where adding a row is a symmetric
difference.

At p = 2, `rref` and `rank` read the low bit of each entry into a uint8
matrix, pack each row into one Python int, column 0 the most significant
bit, and eliminate by XOR (the word-per-row-chunk method of M4RI).  A row
update then costs cols/64 machine words instead of cols int64
multiply-and-reduce steps, and no row pays numpy's per-call overhead;
the unpacked echelon form is the same array the int64 path gives,
because reduced echelon form is unique.  Odd p takes the int64 path.
"""

from __future__ import annotations

import bisect
import numbers

import numpy as np

__all__ = [
    "validate_prime",
    "rref",
    "rank",
    "sparse_rows",
    "first_seen_labels",
    "sparse_rank",
    "sparse_kernel",
    "kernel_basis",
    "solve",
]

MAX_PRIME = 2**16


def validate_prime(p) -> int:
    """Check that p is an integer (2.5 is rejected, not truncated), 2 <= p <= 2**16 and prime."""
    if not isinstance(p, numbers.Integral):
        raise ValueError(f"modulus {p!r} is not an integer")
    p = int(p)
    if p < 2 or p > MAX_PRIME:
        raise ValueError(f"modulus {p} out of range [2, {MAX_PRIME}]")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
        d += 1
    return p


def _integers(values) -> np.ndarray:
    """values as int64; a non-integer entry is rejected, not truncated (empty input passes)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"entries of dtype {a.dtype} are not integers")
    return a.astype(np.int64, copy=False)


def _as_matrix(m, p):
    """m as a matrix of residues mod p: int64, or uint8 at p = 2.

    A residue mod 2 is the low bit, which the cast to uint8 keeps, so the
    p = 2 matrix takes an eighth of the bytes and no division.
    """
    a = _integers(m)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError("expected a 1- or 2-dimensional array")
    return a.astype(np.uint8) & 1 if p == 2 else a % p


def _f2_echelon(a) -> dict[int, int]:
    """An echelon basis of the row space of a 0/1 matrix, as packed rows.

    Each row becomes one int: in a row of n columns, column j is bit
    8 * ceil(n / 8) - 1 - j, so column 0 is the most significant and a
    row's leading column is read off its bit length.  Each row is reduced
    by XOR against the stored row with its leading bit until it vanishes
    or leads with a bit no stored row has, where it is stored under its
    bit length.  The number of stored rows is the rank.
    """
    basis = {}
    if a.size == 0:
        return basis
    nbytes = (a.shape[1] + 7) // 8
    data = np.packbits(a, axis=1).tobytes()
    for i in range(0, len(data), nbytes):
        x = int.from_bytes(data[i : i + nbytes], "big")
        while x:
            k = x.bit_length()
            b = basis.get(k)
            if b is None:
                basis[k] = x
                break
            x ^= b
    return basis


def _rref_f2(a) -> tuple[np.ndarray, int]:
    """`rref` at p = 2 on packed rows; a is reduced mod 2 and not modified.

    After `_f2_echelon`, back substitution takes the pivot rows rightmost
    first and adds to each the reduced rows of the pivot bits it holds, so
    the rows it adds carry no pivot bit but their own.  Each row reduction
    and each pivot bit cleared costs one XOR of cols/64 words.
    """
    basis = _f2_echelon(a)
    keys = sorted(basis)
    mask = 0
    for k in keys:
        x = basis[k]
        hits = x & mask
        while hits:
            h = hits.bit_length()
            x ^= basis[h]
            hits ^= 1 << (h - 1)
        basis[k] = x
        mask |= 1 << (k - 1)
    r = len(keys)
    out = np.zeros(a.shape, dtype=np.int64)
    if r:
        nbytes = (a.shape[1] + 7) // 8
        data = b"".join(basis[k].to_bytes(nbytes, "big") for k in reversed(keys))
        packed = np.frombuffer(data, dtype=np.uint8).reshape(r, nbytes)
        out[:r] = np.unpackbits(packed, axis=1, count=a.shape[1])
    return out, r


def rref(m, p) -> tuple[np.ndarray, int]:
    """Reduced row echelon form over F_p; returns (echelon matrix, rank).

    The echelon matrix has the input's shape and dtype int64: the rank
    rows in pivot order, then zero rows.  At p = 2 the rows are packed
    into ints and eliminated by XOR (`_rref_f2`); the result is the same
    array, since reduced echelon form is unique.

    At odd p, deterministic: columns are processed left to right and the first
    nonzero entry below the current row is the pivot.  The next pivot
    column is found by scanning the remaining block below the current row
    in column windows that double in width, so a run of zero columns costs
    a few vectorised scans rather than one call per column.  Each pivot
    updates only the rows with a nonzero entry in its column, and only from
    that column rightwards (the pivot row is zero to its left); the other
    rows would be unchanged by the elimination.  A pivot therefore costs
    the rows it touches times the columns it spans, so the total follows
    the nonzeros of the pivot columns.  The input is not modified.
    """
    p = validate_prime(p)
    a = _as_matrix(m, p)
    if p == 2:
        return _rref_f2(a)
    rows, cols = a.shape
    r = c = 0
    while r < rows and c < cols:
        width = 1
        while not (hits := np.flatnonzero(a[r:, c : c + width].any(axis=0))).size:
            c += width
            width *= 2
            if c >= cols:
                return a, r
        c += int(hits[0])
        piv = r + int(np.argmax(a[r:, c] != 0))
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[r, c:])) % p
        r += 1
        c += 1
    return a, r


def rank(m, p) -> int:
    """Rank over F_p.  At p = 2 it counts the pivots of `_f2_echelon` on
    packed rows, with no back substitution and no unpacking."""
    p = validate_prime(p)
    if p == 2:
        return len(_f2_echelon(_as_matrix(m, 2)))
    return rref(m, p)[1]


def sparse_rows(row_of_step, cols, vals, nrows: int, p):
    """Sparse rows over F_p from steps: (ptr, cols, vals) int64 arrays.

    Step i adds vals[i] at column cols[i] of row row_of_step[i], for rows
    0..nrows-1.  Entries are summed exactly per (row, column) and reduced
    mod p, and those that vanish are dropped.  The entries of row i are
    cols[ptr[i]:ptr[i + 1]], ascending, with their values in vals; a row
    may be empty.  Columns may be any int64 labels, negative ones too.
    One sort of the keys row * width + column, width being the column
    span, orders every entry; a span too wide for int64 keys is rejected,
    never wrapped.
    """
    rows = np.asarray(row_of_step, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64) % p
    if rows.ndim != 1 or not rows.shape == cols.shape == vals.shape:
        raise ValueError("step arrays are not one-dimensional arrays of one length")
    if not cols.size:
        return np.zeros(nrows + 1, dtype=np.int64), cols, vals
    if rows.min() < 0 or rows.max() >= nrows:
        raise ValueError("step row out of range")
    lo = int(cols.min())
    width = int(cols.max()) - lo + 1
    if nrows * width >= 2**63:
        raise ValueError(f"{nrows} rows over a column span of {width} overflow int64 keys")
    key = rows * width + (cols - lo)
    # steps mostly arrive row by row, runs that a stable (merge) sort exploits
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = np.flatnonzero(first)
    # each term is below p <= 2**16, so the int64 sums are exact
    sums = np.add.reduceat(vals[order], first) % p
    nonzero = sums != 0
    keep = first[nonzero]
    ptr = np.searchsorted(key[keep], np.arange(nrows + 1) * width)
    return ptr, cols[order[keep]], sums[nonzero]


def first_seen_labels(cols) -> np.ndarray:
    """Labels 0, 1, 2, ... of the distinct values of cols, by first appearance.

    cols are nonnegative integers, and out[i] is the label of cols[i].
    Over sparse rows laid out row after row, a row's newest column, the
    one the fewest earlier rows share, then has the largest label, so the
    sparse eliminations lead with it and their pivot rows stay short.  One
    pass, no sort: each column's first position is the one written last
    when positions are written back to front.
    """
    cols = _integers(cols)
    n = len(cols)
    if n and cols.min() < 0:
        raise ValueError("column labels must be nonnegative")
    at = np.empty(int(cols.max()) + 1 if n else 0, dtype=np.int64)
    at[cols[::-1]] = np.arange(n - 1, -1, -1)
    first = at[cols] == np.arange(n)
    at[cols[first]] = np.arange(np.count_nonzero(first))
    return at[cols]


def _eliminate(rows, p) -> tuple[dict, dict]:
    """Sparse elimination of `sparse_rows` rows, one stored row per pivot.

    A row's lead is its largest column, its last entry.  A row whose lead
    has no stored row is stored as it is, by its slices of the column and
    value lists.  Only a row that meets a stored pivot is copied, as a
    {column: value} dict of Python ints (exact for every p <= 2**16), and
    reduced against the stored row of its lead column until it vanishes
    or reaches a lead column without one, where it is stored.  Returns
    (pivots, scale): pivots[c] is the row stored for column c without its
    lead entry.  At odd p it is a pair of sequences (columns, values), and
    scale[c] the inverse of the lead entry where it is not 1, so the pivot
    row scaled to lead with 1 is e_c + scale.get(c, 1) * pivots[c].  At
    p = 2 every value is 1, so `_eliminate_f2` runs instead: pivots[c] is
    its columns alone and scale is empty.  Rows with few nonzeros that
    overlap in few columns stay short, so the cost follows the fill-in,
    not |rows| x |columns|.  The input is not modified.
    """
    if p == 2:
        return _eliminate_f2(rows[0].tolist(), rows[1].tolist()), {}
    ptr, cols, vals = (a.tolist() for a in rows)
    pivots = {}
    scale = {}
    for lo, hi in zip(ptr, ptr[1:]):
        if lo == hi:
            continue
        c, f = cols[hi - 1], vals[hi - 1]
        r = None
        while (pivot := pivots.get(c)) is not None:
            if r is None:
                r = dict(zip(cols[lo : hi - 1], vals[lo : hi - 1]))
            if c in scale:
                f = f * scale[c] % p
            for k, v in zip(*pivot):
                x = (r.get(k, 0) - f * v) % p
                if x:
                    r[k] = x
                else:
                    del r[k]
            if not r:
                break
            c = max(r)
            f = r.pop(c)
        else:
            if f != 1:
                scale[c] = pow(f, -1, p)
            if r is None:
                pivots[c] = (cols[lo : hi - 1], vals[lo : hi - 1])
            else:
                pivots[c] = (r.keys(), r.values())
    return pivots, scale


def _eliminate_f2(ptr, cols) -> dict:
    """`_eliminate` at p = 2, where a row is its set of columns.

    A copied row is a Python set, and adding a stored row is a symmetric
    difference, with no values to multiply or reduce.
    """
    pivots = {}
    for lo, hi in zip(ptr, ptr[1:]):
        if lo == hi:
            continue
        c = cols[hi - 1]
        r = None
        while (pivot := pivots.get(c)) is not None:
            if r is None:
                r = set(cols[lo : hi - 1])
            r.symmetric_difference_update(pivot)
            if not r:
                break
            c = max(r)
            r.remove(c)
        else:
            pivots[c] = cols[lo : hi - 1] if r is None else r
    return pivots


def sparse_rank(rows, p) -> int:
    """Rank over F_p of sparse rows, a (ptr, cols, vals) triple of `sparse_rows`.

    The elimination of `sparse_kernel`, each row led by its largest
    column, without the kernel's free-column table.
    """
    return len(_eliminate(rows, p)[0])


def sparse_kernel(rows, ncols: int, p):
    """The reduced echelon kernel basis of sparse rows, one row on demand.

    rows are a (ptr, cols, vals) triple of `sparse_rows` over columns
    0..ncols-1.  Returns (rank, free, row): free lists the kernel's leading
    columns in increasing order, and row(i) is the i-th row of the reduced
    echelon basis of {x : row . x = 0 for every row}, the row
    `kernel_basis` gives for the same matrix.

    Each row pivots on its largest column.  The pivot columns T are then
    the trailing columns of the row space, and the leading columns of its
    orthogonal complement are exactly the columns outside T (pivot sets of
    a space and its complement are complementary under reversed column
    order).  Kernel row i is therefore e_free[i] plus values on the pivot
    columns past free[i], found by forward substitution: pivot row t has
    its other entries left of t, so x[t] follows from values already set.
    """
    pivots, scale = _eliminate(rows, p)
    is_free = np.ones(ncols, dtype=bool)
    is_free[list(pivots)] = False
    free = np.flatnonzero(is_free)
    order = sorted(pivots)

    def row(i) -> np.ndarray:
        f = int(free[i])
        x = [0] * ncols
        x[f] = 1
        later = order[bisect.bisect_right(order, f) :]
        if p == 2:
            for t in later:
                x[t] = sum(x[k] for k in pivots[t]) & 1
        else:
            for t in later:
                x[t] = -scale.get(t, 1) * sum(v * x[k] for k, v in zip(*pivots[t])) % p
        return np.array(x, dtype=np.int64)

    return len(pivots), free, row


def _pivot_columns(echelon, r) -> np.ndarray:
    """Column of the leading entry of each of the first r (nonzero) rows."""
    if r == 0:
        return np.zeros(0, dtype=np.intp)
    return np.argmax(echelon[:r] != 0, axis=1)


def kernel_basis(m, p) -> np.ndarray:
    """Reduced echelon basis of {x : m @ x = 0 over F_p}, one row per basis vector.

    Written directly from the rref R of m with its columns reversed: free
    column f of R gives the kernel row with 1 at column n-1-f and -R[j, f]
    at n-1-P_j for each pivot P_j.  Its other entries lie right of n-1-f
    and on pivot columns, where no other row leads, so taken by decreasing
    f these rows are already the reduced echelon form.
    """
    a = _as_matrix(m, p)
    cols = a.shape[1]
    e, r = rref(a[:, ::-1], p)
    pivots = _pivot_columns(e, r)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)[::-1]
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), cols - 1 - free] = 1
    basis[:, cols - 1 - pivots] = (-e[:r, free].T) % p
    return basis


def solve(m, b, p):
    """A particular solution x of m @ x = b over F_p (free variables 0), or None."""
    a = _as_matrix(m, p)
    rows, cols = a.shape
    rhs = _integers(b).reshape(rows, 1) % p
    e, r = rref(np.hstack([a, rhs]), p)
    pivots = _pivot_columns(e, r)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = e[:r, cols]
    return x

