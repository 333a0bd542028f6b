"""Finite covers of 2-complexes driven by cocycle data.

An elementary abelian p-cover is built from n independent mod-p classes:
the deck group is (Z/p)^n, a vertex lift (v, a) connects along edge e to
(term(e), a + shift(e)) where shift(e) lists the tree-vanishing classes' values.
Cyclic covers use a single integer cocycle reduced mod the cover order.

A deck label is the integer mixed-radix rank of a deck group element,
last factor fastest.  Cell t of the total complex projects to base cell
t // degree and sits at rank t % degree.  The basepoint of the total
complex is the rank-zero lift of the base basepoint; moving the basepoint
only shifts vertex value tables by a constant and never changes supports.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import fplinalg
from .complexes import Cochain, EdgePath, TwoComplex, tree_potential
from .errors import (
    CocycleConditionError,
    DisconnectedCoverError,
    InvariantError,
    UndefinedVertexValueError,
)

__all__ = [
    "CoveringMap",
    "build_abelian_p_cover",
    "build_cyclic_cover",
    "loop_evaluations",
    "vertex_values",
]


def _strides(moduli) -> np.ndarray:
    """Place values of the mixed-radix deck ranks, last factor fastest."""
    return np.array([math.prod(moduli[k + 1 :]) for k in range(len(moduli))], dtype=np.int64)


def _offsets(edges, signs, starts, shifts):
    """Each step's deck offset from the start of its path, and each path's total.

    A lift's deck digits are its start digits plus the signed shifts of
    the steps taken so far, so one prefix sum over the steps gives every
    offset, one row per step, and every path's total, one row per path.
    Sums are in the dtype of shifts (E x n): int64 residues for covers,
    Python ints (object) for weights, which stay exact however large.
    """
    lengths = np.diff(starts, append=len(edges))
    taken = np.zeros((len(edges) + 1, shifts.shape[1]), dtype=shifts.dtype)
    np.cumsum(signs[:, None] * shifts[edges], axis=0, out=taken[1:])
    opened = taken[starts]
    # a forward step's lift leaves from the digits before it, a backward one's from those after
    leave = np.where(signs[:, None] == 1, taken[:-1], taken[1:]) - np.repeat(opened, lengths, axis=0)
    return leave, taken[starts + lengths] - opened


def _lift(edges, signs, starts, leave, moduli, digits):
    """Lift base paths, laid out as CellArrays faces, from rows of start digits.

    leave are the step offsets of `_offsets`: a step lifted from digits d
    leaves from d plus its offset.  digits holds one start per row (count
    x n), as rows of `CoveringMap.digits`.  Returns the lifts in the same
    layout, the lift of path i from digits[r] being path i * len(digits) + r.
    """
    strides, count, degree = _strides(moduli), len(digits), math.prod(moduli)
    lengths = np.diff(starts, append=len(edges))
    path = np.repeat(np.arange(len(starts)), lengths)
    lifted = edges[:, None] * degree + (leave[:, None, :] + digits) % moduli @ strides
    lift_starts = count * starts[:, None] + lengths[:, None] * np.arange(count)
    at = lift_starts[path] + (np.arange(len(edges)) - starts[path])[:, None]
    lift_edges = np.empty(lifted.size, dtype=np.int64)
    lift_signs = np.empty(lifted.size, dtype=np.int64)
    lift_edges[at], lift_signs[at] = lifted, signs[:, None]
    return lift_edges, lift_signs, lift_starts.ravel()


class CoveringMap:
    """A finite regular cover of a 2-complex.

    deck_moduli gives the cyclic factors of the deck group.  Deck labels
    are integer mixed-radix ranks in [0, degree); digits is the read-only
    degree x n table whose row r holds the digits of rank r, digit k
    ranging over Z/deck_moduli[k].  Cell t of the total complex, of any
    dimension, projects to base cell t // degree.  A lift of base edge e
    adds shifts[e] to the digits of its start.  For covers built from mod-p
    classes, p is their modulus and the columns of shifts are the defining
    classes' representatives vanishing on the base's spanning tree; p is
    None for cyclic covers.
    """

    def __init__(self, base, total, deck_moduli, shifts, digits, p=None):
        self.base: TwoComplex = base
        self.total: TwoComplex = total
        self.deck_moduli = tuple(int(m) for m in deck_moduli)
        self.degree = math.prod(self.deck_moduli)
        self.shifts = shifts  # (base edges) x len(deck_moduli)
        self.digits = digits  # degree x len(deck_moduli)
        self.p = p

    def lift_vertex(self, v: int, label_rank: int = 0) -> int:
        if not 0 <= label_rank < self.degree:
            raise ValueError(f"deck rank {label_rank} is outside [0, {self.degree})")
        return v * self.degree + label_rank

    def lift_path(self, path: EdgePath, label_rank: int = 0) -> EdgePath:
        """The lift of a base path starting at the given deck rank."""
        lifted_start = self.lift_vertex(path.start, label_rank)
        steps = np.array(path.steps, dtype=np.int64).reshape(-1, 2)
        edges, signs = steps.T
        start = np.zeros(1, dtype=np.int64)
        leave, _ = _offsets(edges, signs, start, self.shifts)
        start_digits = self.digits[[label_rank]]
        edges, signs, _ = _lift(edges, signs, start, leave, self.deck_moduli, start_digits)
        return EdgePath(start=lifted_start, steps=tuple(zip(edges.tolist(), signs.tolist())))

    def pullback(self, c: Cochain) -> Cochain:
        """The pulled-back cochain: each edge lift takes the base value."""
        if c.complex is not self.base:
            raise ValueError("cochain does not live on the base of this cover")
        return Cochain(self.total, c.p, np.repeat(c.values, self.degree))


def _lift_faces(K: TwoComplex, shifts, moduli, digits):
    """Every face of K lifted from every deck rank, as CellArrays faces.

    The lift of face j from rank r is face j * degree + r.  Each lift must
    close, i.e. the shifts must sum to zero around every face mod moduli;
    otherwise CocycleConditionError names the first face whose lift does not.
    """
    a = K.arrays
    leave, total = _offsets(a.face_edges, a.face_signs, a.face_starts, shifts)
    bad = np.flatnonzero((total % moduli).any(axis=1))
    if len(bad):
        raise CocycleConditionError(f"face {bad[0]} attaching path does not close in the cover")
    return _lift(a.face_edges, a.face_signs, a.face_starts, leave, moduli, digits)


def _build_shift_cover(K: TwoComplex, shifts, moduli, p=None) -> CoveringMap:
    """The cover whose edge e lifts shift deck digits by shifts[e] (E x n, mod moduli).

    With p, the shifts are n mod-p classes vanishing on K's spanning tree
    (their non-tree values are their coordinates), independent in H^1.
    """
    moduli = tuple(int(m) for m in moduli)
    degree = math.prod(moduli)
    strides = _strides(moduli)
    ranks = np.arange(degree, dtype=np.int64)
    digits = ranks[:, None] // strides % moduli  # degree x n
    digits.flags.writeable = False
    a = K.arrays
    init = (a.init[:, None] * degree + ranks).ravel()
    term = (a.term[:, None] * degree + (digits + shifts[:, None, :]) % moduli @ strides).ravel()
    faces = _lift_faces(K, shifts, moduli, digits)
    if p is not None:
        coords = shifts.T[:, K.arrays.non_tree]
        if fplinalg.rank(coords, p) < len(moduli):
            raise DisconnectedCoverError(
                "classes are dependent in cohomology; the cover would be disconnected",
                certificate=fplinalg.kernel_basis(coords.T, p)[0],
            )
    try:
        total = TwoComplex.from_arrays(
            K.num_vertices * degree, init, term, *faces, basepoint=K.basepoint * degree
        )
    except ValueError as exc:
        raise DisconnectedCoverError(str(exc)) from exc
    # a degree-n cover multiplies every cell count, hence chi, by n
    if total.euler_characteristic != degree * K.euler_characteristic:
        raise InvariantError("cover Euler characteristic is not degree times the base's")
    return CoveringMap(K, total, moduli, shifts, digits, p)


def build_abelian_p_cover(K: TwoComplex, classes, p: int) -> CoveringMap:
    """The connected (Z/p)^n cover defined by n independent cocycle classes.

    classes is an n x |E| integer matrix of residues mod p, one cocycle on
    K per row, such as a slice of `h1_cocycle_basis(K, p)`.  The shifts are
    each class less the coboundary of its `tree_potential`, which vanishes
    on K's spanning tree.  Raises CocycleConditionError, naming the face,
    if some class does not sum to 0 mod p around a face (a face lift would
    not close), and then DisconnectedCoverError (with a dependency
    certificate) if the classes are linearly dependent in H^1.
    """
    p = fplinalg.validate_prime(p)
    classes = fplinalg._integers(classes)
    if classes.ndim != 2 or classes.shape[1] != K.num_edges:
        raise ValueError("classes must be a matrix with one column per edge of K")
    if not len(classes):
        raise ValueError("need at least one class")
    if np.any((classes < 0) | (classes >= p)):
        raise ValueError(f"class entries are not residues mod p = {p}")
    # coboundaries sum to 0 around faces, so a non-cocycle still fails at the same face
    a, pot = K.arrays, tree_potential(K, classes, p)
    shifts = np.ascontiguousarray(((classes + pot[:, a.init] - pot[:, a.term]) % p).T)  # E x n
    return _build_shift_cover(K, shifts, (p,) * len(classes), p)


def _cyclic_weights(K: TwoComplex, weights, order=None) -> np.ndarray:
    """Check weights for the cyclic covers of K and return them as int64.

    The weights need one integer per edge (an integral type: 1.5 or 1.0 is
    rejected, not truncated), each within int64, and must sum
    to zero around every face over the integers (summed exactly, so a sum
    of 2**64 is not mistaken for 0).  With an order, the gcd of the loop
    evaluations and the order must be 1, so the Z/order cover is
    connected.  Without one, that gcd must be 1 on its own, so every
    cyclic cover is; this is checked before the face sums.
    """
    exact = np.asarray(weights, dtype=object)  # Python ints, whatever their size
    if exact.shape != (K.num_edges,):
        raise ValueError("weight vector length does not match edge count")
    for x in exact.tolist():
        if not isinstance(x, numbers.Integral):
            raise ValueError(f"weight {x} is not an integer")
        if not -(2**63) <= x < 2**63:
            raise ValueError(f"weight {x} does not fit in a 64-bit integer")
    w = exact.astype(np.int64)
    evals = loop_evaluations(K, w)
    if order is None:
        g = math.gcd(*evals)
        if g == 0:
            raise ValueError("weights induce the zero homomorphism")
        if g != 1:
            raise ValueError(f"weights generate {g}Z, not all of Z")
    a = K.arrays
    steps = exact[a.face_edges] * a.face_signs
    sums = np.add.reduceat(steps, a.face_starts).tolist() if K.num_faces else []
    for j, s in enumerate(sums):
        if s:
            raise CocycleConditionError(f"weights evaluate to {s} on the boundary of face {j}")
    if order is not None:
        g = math.gcd(order, *evals)
        if g != 1:
            raise DisconnectedCoverError(
                f"weights generate {g}Z/{order}Z, not all of Z/{order}Z",
                certificate=g,
            )
    return w


def build_cyclic_cover(K: TwoComplex, weights, order: int) -> CoveringMap:
    """The connected Z/order cover defined by an integer cocycle of weights.

    The weights must vanish on every face boundary over the integers, and
    the induced map onto Z/order must be surjective (the gcd of the loop
    evaluations and the order is 1).
    """
    order = int(order)
    if order < 1:
        raise ValueError("cover order must be at least 1")
    w = _cyclic_weights(K, weights, order)
    return _build_shift_cover(K, w.reshape(-1, 1) % order, (order,))


def loop_evaluations(K: TwoComplex, weights) -> list[int]:
    """Integer evaluations of edge weights on the fundamental loops of K."""
    w = fplinalg._integers(weights)
    return [
        sum(d * int(w[e]) for e, d in K.fundamental_loop(e0).steps)
        for e0 in K.non_tree_edges
    ]


def vertex_values(cov: CoveringMap, rows, p: int) -> np.ndarray:
    """Values of pulled-back base cocycles integrated from the basepoint lift.

    rows holds one value per base edge along its last axis, one row or a
    stack, as in `tree_potential`.  A row's table is well defined exactly
    when it is a cocycle whose class vanishes on loops of the total complex;
    otherwise UndefinedVertexValueError names the first such row and a
    witness loop.  Each residue class then contains |V(total)|/p vertices
    when the class is nontrivial on the deck group.
    """
    rows = fplinalg._integers(rows)
    if rows.shape[-1:] != (cov.base.num_edges,):
        raise ValueError("rows do not live on the base of this cover")
    total = cov.total
    pulled = np.repeat(rows, cov.degree, axis=-1)
    values = tree_potential(total, pulled, p)
    # tree edges are consistent by construction; any failure names a loop
    a = total.arrays
    mismatch = (values[..., a.init] + pulled - values[..., a.term]) % p
    bad = np.flatnonzero(mismatch)
    if len(bad):
        row, e = divmod(int(bad[0]), total.num_edges)
        raise UndefinedVertexValueError(
            f"class {row} does not vanish on loops of the total complex; "
            f"witness loop through edge {e} evaluates to {int(mismatch.flat[bad[0]])}",
            witness_loop=total.fundamental_loop(e),
        )
    return values
