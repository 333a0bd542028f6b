"""Finite covers of 2-complexes driven by cocycle data.

An elementary abelian p-cover is built from n independent mod-p classes:
the deck group is (Z/p)^n, a vertex lift (v, a) connects along edge e to
(term(e), a + shift(e)) where shift(e) lists the defining cocycle values.
Cyclic covers use a single integer cocycle reduced mod the cover order.

A deck label is the integer mixed-radix rank of a deck group element,
last factor fastest.  Cell t of the total complex projects to base cell
t // degree and sits at rank t % degree.  The basepoint of the total
complex is the rank-zero lift of the base basepoint; moving the basepoint
only shifts vertex value tables by a constant and never changes supports.
"""

from __future__ import annotations

import math

import numpy as np

from . import fplinalg
from .complexes import Cochain, EdgePath, TwoComplex, class_coordinates, face_sums, tree_potential
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


def _lift(steps, forward, backward, ranks):
    """Lift a base path's (edge, direction) steps from an array of start ranks.

    Returns the lifted edges, one row per step and one column per start,
    and the ranks the lifts end at.
    """
    degree = forward.shape[1]
    cur = np.asarray(ranks, dtype=np.int64)
    lifted = np.empty((len(steps), len(cur)), dtype=np.int64)
    for i, (e, d) in enumerate(steps):
        if d == 1:
            lifted[i] = e * degree + cur
            cur = forward[e, cur]
        else:
            cur = backward[e, cur]
            lifted[i] = e * degree + cur
    return lifted, cur


class CoveringMap:
    """A finite regular cover of a 2-complex, with projection bookkeeping.

    deck_moduli gives the cyclic factors of the deck group.  Deck labels
    are integer mixed-radix ranks in [0, degree); deck_label(v) gives the
    digits of v's rank, digit k ranging over Z/deck_moduli[k].  The lift
    of base edge e at rank r ends at rank forward[e, r], and backward[e]
    inverts forward[e].  For covers built from mod-p classes, `classes`
    retains the defining cocycles.
    """

    def __init__(self, base, total, deck_moduli, forward, backward, classes=None):
        self.base: TwoComplex = base
        self.total: TwoComplex = total
        self.deck_moduli = tuple(int(m) for m in deck_moduli)
        self.degree = math.prod(self.deck_moduli)
        self.forward = forward  # (base edges) x degree
        self.backward = backward
        self.classes = None if classes is None else tuple(classes)
        self.edge_projection = np.arange(total.num_edges, dtype=np.int64) // self.degree
        self.face_projection = np.arange(total.num_faces, dtype=np.int64) // self.degree

    def deck_label(self, total_vertex: int) -> tuple[int, ...]:
        r = total_vertex % self.degree
        return tuple((r // _strides(self.deck_moduli) % self.deck_moduli).tolist())

    def vertex_projection(self, total_vertex: int) -> int:
        return total_vertex // self.degree

    def lift_vertex(self, v: int, label_rank: int = 0) -> int:
        return v * self.degree + label_rank

    def lift_path(self, path: EdgePath, label_rank: int = 0) -> EdgePath:
        """The lift of a base path starting at the given deck rank."""
        lifted, _ = _lift(path.steps, self.forward, self.backward, [label_rank])
        steps = zip(lifted[:, 0].tolist(), (d for _, d in path.steps))
        return EdgePath(start=self.lift_vertex(path.start, label_rank), steps=tuple(steps))

    def pullback(self, c: Cochain) -> Cochain:
        """The pulled-back cochain: each edge lift takes the base value."""
        if c.complex is not self.base:
            raise ValueError("cochain does not live on the base of this cover")
        return Cochain(self.total, c.p, np.repeat(c.values, self.degree))

    def deck_orbit_representatives(self) -> list[int]:
        """One face of the total complex per deck orbit: the zero-label lift."""
        return [f * self.degree for f in range(self.base.num_faces)]


def _build_shift_cover(K: TwoComplex, shifts, moduli, classes=None) -> CoveringMap:
    """The cover whose edge e lifts shift deck digits by shifts[e] (E x n, mod moduli)."""
    moduli = tuple(int(m) for m in moduli)
    degree = math.prod(moduli)
    strides = _strides(moduli)
    ranks = np.arange(degree, dtype=np.int64)
    digits = ranks[:, None] // strides % moduli  # degree x n
    forward = (digits + shifts[:, None, :]) % moduli @ strides  # E x degree
    backward = (digits - shifts[:, None, :]) % moduli @ strides
    init = (K.arrays.init[:, None] * degree + ranks).ravel()
    term = (K.arrays.term[:, None] * degree + forward).ravel()
    faces = []
    for j, f in enumerate(K.faces):
        lifted, end = _lift(f, forward, backward, ranks)
        if np.any(end != ranks):
            raise CocycleConditionError(f"face {j} attaching path does not close in the cover")
        dirs = [d for _, d in f]
        faces.extend(tuple(zip(col, dirs)) for col in lifted.T.tolist())
    try:
        total = TwoComplex(
            num_vertices=K.num_vertices * degree,
            edges=zip(init.tolist(), term.tolist()),
            faces=faces,
            basepoint=K.basepoint * degree,
        )
    except ValueError as exc:
        raise DisconnectedCoverError(str(exc)) from exc
    # a degree-n cover multiplies every cell count, hence chi, by n
    if total.euler_characteristic != degree * K.euler_characteristic:
        raise InvariantError("cover Euler characteristic is not degree times the base's")
    return CoveringMap(K, total, moduli, forward, backward, classes=classes)


def build_abelian_p_cover(K: TwoComplex, classes, p: int) -> CoveringMap:
    """The connected (Z/p)^n cover defined by n independent cocycle classes.

    Raises CocycleConditionError if some class is not a cocycle, and
    DisconnectedCoverError (with a dependency certificate) if the classes
    are linearly dependent in H^1.
    """
    p = fplinalg.validate_prime(p)
    classes = tuple(classes)
    if not classes:
        raise ValueError("need at least one class")
    for c in classes:
        if c.complex is not K:
            raise ValueError("class does not live on the given complex")
        if c.p != p:
            raise ValueError("class modulus does not match p")
        if not c.is_cocycle():
            raise CocycleConditionError("defining class is not a cocycle")
    coords = np.array([class_coordinates(c) for c in classes], dtype=np.int64)
    if fplinalg.rank(coords, p) < len(classes):
        combo = fplinalg.kernel_basis(coords.T, p)[0]
        raise DisconnectedCoverError(
            "classes are dependent in cohomology; the cover would be disconnected",
            certificate=combo,
        )
    n = len(classes)
    shifts = np.stack([c.values for c in classes], axis=1) % p  # E x n
    return _build_shift_cover(K, shifts, (p,) * n, classes=classes)


def build_cyclic_cover(K: TwoComplex, weights, order: int) -> CoveringMap:
    """The connected Z/order cover defined by an integer cocycle of weights.

    The weights must vanish on every face boundary over the integers, and
    the induced map onto Z/order must be surjective (the gcd of the loop
    evaluations and the order is 1).
    """
    order = int(order)
    if order < 1:
        raise ValueError("cover order must be at least 1")
    w = np.asarray(weights, dtype=np.int64)
    if w.shape != (K.num_edges,):
        raise ValueError("weight vector length does not match edge count")
    sums = face_sums(K, w)
    bad = np.flatnonzero(sums)
    if len(bad):
        j = int(bad[0])
        raise CocycleConditionError(
            f"weights evaluate to {int(sums[j])} on the boundary of face {j}"
        )
    evals = loop_evaluations(K, w)
    g = math.gcd(order, *[abs(x) for x in evals]) if evals else order
    if g != 1:
        raise DisconnectedCoverError(
            f"weights generate {g}Z/{order}Z, not all of Z/{order}Z",
            certificate=g,
        )
    shifts = (w.reshape(-1, 1)) % order
    return _build_shift_cover(K, shifts, (order,))


def loop_evaluations(K: TwoComplex, weights) -> list[int]:
    """Integer evaluations of edge weights on the fundamental loops of K."""
    w = np.asarray(weights, dtype=np.int64)
    return [
        sum(d * int(w[e]) for e, d in K.fundamental_loop(e0).steps)
        for e0 in K.non_tree_edges
    ]


def vertex_values(cov: CoveringMap, c: Cochain) -> np.ndarray:
    """Values of a pulled-back base cocycle integrated from the basepoint lift.

    Well defined exactly when the class of c vanishes on loops of the total
    complex; otherwise UndefinedVertexValueError reports a witness loop.
    Each residue class then contains |V(total)|/p vertices when the class is
    nontrivial on the deck group.
    """
    if c.complex is not cov.base:
        raise ValueError("cochain does not live on the base of this cover")
    if not c.is_cocycle():
        raise CocycleConditionError("cochain is not a cocycle")
    p = c.p
    total = cov.total
    pulled = c.values[cov.edge_projection]
    values = tree_potential(total, pulled, p)
    # tree edges are consistent by construction; any failure names a loop
    a = total.arrays
    mismatch = (values[a.init] + pulled - values[a.term]) % p
    bad = np.flatnonzero(mismatch)
    if len(bad):
        e = int(bad[0])
        raise UndefinedVertexValueError(
            "class does not vanish on loops of the total complex; "
            f"witness loop through edge {e} evaluates to {int(mismatch[e])}",
            witness_loop=total.fundamental_loop(e),
        )
    return values
