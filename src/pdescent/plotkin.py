"""Support-shrinking subspace reduction over F_p.

Averaging member supports over all hyperplanes of a v-dimensional subspace
shows some hyperplane W satisfies
|supp(W)| <= (p^v - p)/(p^v - 1) * |supp(V)|,
and iterating down to dimension w gives the chain bound
(p^v - p^(v-w))/(p^v - 1), itself at most the uniform bound
(p^(w+1) - p)/(p^(w+1) - 1).  For w = 1 this is the classical Plotkin
bound on the minimum distance of a linear code.

The reduction never works on the |E|-wide basis between steps.  A
v-dimensional subspace has at most p^v - 1 distinct nonzero basis
columns, so the basis B, the reduced echelon form of the input rows,
is grouped once into the matrix C of its distinct columns with their
multiplicities.  Each step keeps the current subspace as T B, with T a
transform in reduced echelon form, and cuts it on the images T C, one
numpy product per step; the reduced basis is written once, as T B on
the support columns.  Since B is in reduced echelon form, so is T B,
which is the basis a per-step re-echelon of the |E|-wide hyperplane
would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, InvariantError
from .fplinalg import rank, rref, validate_prime

__all__ = [
    "chain_factor",
    "uniform_factor",
    "ReductionResult",
    "reduce_to_dimension",
]

def chain_factor(p: int, v: int, w: int) -> Fraction:
    """Support decay guaranteed when reducing from dimension v to w >= 1."""
    return Fraction(p**v - p ** (v - w), p**v - 1)


def uniform_factor(p: int, w: int) -> Fraction:
    """Dimension-free decay factor for a reduction to dimension w."""
    return Fraction(p ** (w + 1) - p, p ** (w + 1) - 1)


def _groups(cols) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): cols[:, order] has its columns in ascending
    lexicographic order, and each run of equal columns begins at an index
    in starts."""
    order = np.lexsort(cols[::-1])
    ordered = cols[:, order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=new[1:])
    return order, np.flatnonzero(new)


def _distinct_columns(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(support, columns, counts) of a basis matrix of residues.

    support indexes its nonzero columns; the matrix columns holds each
    distinct nonzero column once, in order of first appearance, and
    counts[k] is how many support columns equal columns[:, k].
    """
    support = np.flatnonzero(basis.any(axis=0))
    cols = basis[:, support]
    order, starts = _groups(cols)
    first = np.minimum.reduceat(order, starts)
    counts = np.diff(starts, append=len(order))
    keep = np.argsort(first)
    return support, cols[:, first[keep]], counts[keep]


def _column_classes(images, counts, p) -> tuple[np.ndarray, np.ndarray]:
    """(functionals, sizes): the projective classes of the nonzero columns
    of images, one column of functionals each, and their total counts.

    A coordinate stays in the support of the hyperplane ker(f) unless its
    basis column is proportional to f, so grouping columns by projective
    class makes every hyperplane support a subtraction.  Each column is
    scaled to lead with 1 by lead**(p - 2), the inverse of its leading
    entry (Fermat), taken by repeated squaring.  The classes come in
    ascending lexicographic order.
    """
    nonzero = images.any(axis=0)
    cols, counts = images[:, nonzero], counts[nonzero]
    x = cols[np.argmax(cols != 0, axis=0), np.arange(cols.shape[1])]
    inverse, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            inverse = inverse * x % p
        x, e = x * x % p, e >> 1
    scaled = cols * inverse % p
    order, starts = _groups(scaled)
    return scaled[:, order[starts]], np.add.reduceat(counts[order], starts)


def _cut(T, f, p) -> np.ndarray:
    """The reduced echelon transform of the hyperplane ker(f) of span(T B).

    With l the last nonzero coefficient of f, ker(f) has the basis
    e_i - (f_i / f_l) e_l (i != l), so its transform has the rows
    T_i - (f_i / f_l) T_l.  For T in reduced echelon form these are too:
    rows past l are unchanged, and a row before l keeps its pivot and
    gains entries only where T_l is nonzero, which is past that pivot and
    in no pivot column of another remaining row.
    """
    f = np.asarray(f, dtype=np.int64) % p
    last = int(np.flatnonzero(f)[-1])
    g = f * pow(int(f[last]), -1, p) % p
    return ((T - np.outer(g, T[last])) % p)[np.arange(len(T)) != last]


@dataclass(frozen=True)
class ReductionResult:
    basis: np.ndarray
    input_dim: int
    support_size: int
    chain_bound: Fraction
    uniform_bound: Fraction


def reduce_to_dimension(rows, p, w: int) -> ReductionResult:
    """Greedy best-hyperplane cuts of span(rows) from its dimension v down to w (1 <= w < v).

    The rows are put in reduced echelon form B once; the rank v is the
    result's input_dim.  Each step takes the largest projective class of
    the current images T C, lexicographically first on ties, whose
    functional f cuts out the minimum-support hyperplane; its support is
    the current one minus that class's count.  Every step checks the
    averaging bound and recounts the support from the new images; at the
    end the basis T B (read-only, w x n) is checked to lie in span(rows)
    (one rank on the support columns), its nonzero columns are recounted,
    and the chain bound, hence the uniform bound, is checked against
    |supp(span(rows))|.  Entries are residues below p <= 2**16, so every
    int64 product here is exact.
    """
    p = validate_prime(p)  # a Python int, so p**d below stays exact
    e, v = rref(rows, p)
    if not 1 <= w < v:
        raise DimensionError(
            f"target dimension {w} must be at least 1 and below the input dimension {v}"
        )
    B = e[:v]
    support, columns, counts = _distinct_columns(B)
    start = size = len(support)
    T = np.eye(v, dtype=np.int64)
    images = columns
    while len(T) > w:
        d = len(T)
        classes, sizes = _column_classes(images, counts, p)
        k = int(np.argmax(sizes))
        best = size - int(sizes[k])
        if best * (p**d - 1) > (p**d - p) * size:
            raise InvariantError("the largest column class misses the averaging bound")
        T = _cut(T, classes[:, k], p)
        images = T @ columns % p
        size = int(counts[images.any(axis=0)].sum())
        if size != best:
            raise InvariantError("hyperplane support differs from its column-class count")
    basis = np.zeros((w, B.shape[1]), dtype=np.int64)
    basis[:, support] = T @ B[:, support] % p
    if rank(np.vstack([B[:, support], basis[:, support]]), p) != v:
        raise InvariantError("reduced subspace is not inside the input subspace")
    if np.count_nonzero(basis.any(axis=0)) != size:
        raise InvariantError("reduced basis support differs from its column count")
    chain = chain_factor(p, v, w) * start
    if size > chain:
        raise InvariantError("chain bound must hold for the reduced subspace")
    basis.flags.writeable = False
    return ReductionResult(basis, v, size, chain, uniform_factor(p, w) * start)
