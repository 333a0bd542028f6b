"""Support-shrinking subspace reduction over F_p.

Averaging member supports over all hyperplanes of a v-dimensional subspace
shows some hyperplane W satisfies
|supp(W)| <= (p^v - p)/(p^v - 1) * |supp(V)|,
and iterating down to dimension w gives the chain bound
(p^v - p^(v-w))/(p^v - 1), itself at most the uniform bound
(p^(w+1) - p)/(p^(w+1) - 1).  For w = 1 this is the classical Plotkin
bound on the minimum distance of a linear code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, InvariantError
from .fplinalg import FpSubspace, _integers, kernel_basis, subspace_support

__all__ = [
    "chain_factor",
    "uniform_factor",
    "hyperplane_subspace",
    "HyperplaneResult",
    "best_hyperplane",
    "ReductionResult",
    "reduce_to_dimension",
]

def chain_factor(p: int, v: int, w: int) -> Fraction:
    """Support decay guaranteed when reducing from dimension v to w >= 1."""
    return Fraction(p**v - p ** (v - w), p**v - 1)


def uniform_factor(p: int, w: int) -> Fraction:
    """Dimension-free decay factor for a reduction to dimension w."""
    return Fraction(p ** (w + 1) - p, p ** (w + 1) - 1)


def hyperplane_subspace(V: FpSubspace, f) -> FpSubspace:
    """The hyperplane of V cut out by a nonzero functional on its basis coordinates.

    Its basis is the rows of `kernel_basis(f)`, a basis of ker(f), mapped
    through V's basis.
    """
    f = _integers(f) % V.p
    if f.shape != (V.dim,) or not f.any():
        raise DimensionError(f"need a nonzero functional with {V.dim} coefficients")
    return FpSubspace.from_rows(kernel_basis(f, V.p) @ V.basis % V.p, V.p, V.ambient_dim)


def _column_classes(V: FpSubspace) -> dict[tuple[int, ...], int]:
    """Projective class of each nonzero basis column, as functional tuples.

    A coordinate stays in the support of the hyperplane ker(f) unless its
    basis column is proportional to f, so grouping columns by projective
    class makes every hyperplane support a dictionary lookup.  Each column
    is scaled to lead with 1 (one inverse per distinct leading value) and
    the scaled columns are counted as tuples of Python ints, exact for any
    p and dimension.  Classes come in ascending lexicographic order of
    their tuples.
    """
    p = V.p
    basis = V.basis % p
    cols = basis[:, basis.any(axis=0)]
    if cols.shape[1] == 0:
        return {}
    lead = cols[np.argmax(cols != 0, axis=0), np.arange(cols.shape[1])]
    values, which = np.unique(lead, return_inverse=True)
    inverses = np.array([pow(int(x), -1, p) for x in values], dtype=np.int64)
    scaled = cols * inverses[which] % p
    return dict(sorted(Counter(map(tuple, scaled.T.tolist())).items()))


@dataclass(frozen=True)
class HyperplaneResult:
    subspace: FpSubspace
    support_size: int
    certified: bool
    mode: str


def best_hyperplane(V: FpSubspace) -> HyperplaneResult:
    """The minimum-support hyperplane of V (dim >= 2), read off the column classes.

    The hyperplane ker(f) keeps every support coordinate whose column is not
    proportional to f, so the best hyperplane is the functional of the
    largest column class, with support |supp(V)| minus that class's count.
    Ties break to the lexicographically first functional, which is the
    first largest key in `_column_classes`' ascending order.  This costs
    one grouping of the O(v |supp(V)|) column entries, not a scan of the
    (p^v - 1)/(p - 1) hyperplanes, so every dimension is searched exactly
    and the averaging bound always holds: the result is always certified.
    """
    p, v = V.p, V.dim
    if v < 2:
        raise DimensionError("hyperplane reduction needs dimension at least 2")
    total = len(subspace_support(V))
    classes = _column_classes(V)
    best_f = max(classes, key=classes.get)
    best_size = total - classes[best_f]
    if best_size * (p**v - 1) > (p**v - p) * total:
        raise InvariantError("the largest column class misses the averaging bound")
    sub = hyperplane_subspace(V, best_f)
    if len(subspace_support(sub)) != best_size:
        raise InvariantError("hyperplane support differs from its column-class count")
    return HyperplaneResult(subspace=sub, support_size=best_size, certified=True, mode="exact")


@dataclass(frozen=True)
class ReductionResult:
    subspace: FpSubspace
    support_size: int
    chain_bound: Fraction
    uniform_bound: Fraction
    certified: bool
    mode: str


def reduce_to_dimension(V: FpSubspace, w: int) -> ReductionResult:
    """Iterate hyperplane reduction from dim v down to dim w (1 <= w < v).

    The result subspace sits inside V, and its support is at most the chain
    bound (and hence the uniform bound) times |supp(V)|; both are checked
    on every call.
    """
    v = V.dim
    if not 1 <= w < v:
        raise DimensionError(
            f"target dimension {w} must be at least 1 and below the input dimension {v}"
        )
    cur = V
    while cur.dim > w:
        cur = best_hyperplane(cur).subspace
    if not V.contains_subspace(cur):
        raise InvariantError("reduced subspace is not inside the input subspace")
    start_support = len(subspace_support(V))
    chain = chain_factor(V.p, v, w) * start_support
    uniform = uniform_factor(V.p, w) * start_support
    size = len(subspace_support(cur))
    if size > chain:
        raise InvariantError("chain bound must hold for the reduced subspace")
    return ReductionResult(
        subspace=cur,
        support_size=size,
        chain_bound=chain,
        uniform_bound=uniform,
        certified=True,
        mode="exact",
    )
