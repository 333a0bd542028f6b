"""Finite covers of 2-complexes driven by cocycle data.

An elementary abelian p-cover is built from n independent mod-p classes:
the deck group is (Z/p)^n, a vertex lift (v, a) connects along edge e to
(term(e), a + shift(e)) where shift(e) lists the defining cocycle values.
Cyclic covers use a single integer cocycle reduced mod the cover order.

Cells of the total complex are indexed lexicographically by
(base cell index, deck label), so cell t projects to t // degree and sits
at deck label t % degree.  The basepoint of the total complex is the lift
of the base basepoint with deck label zero; moving the basepoint only
shifts vertex value tables by a constant and never changes supports.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import fplinalg
from .complexes import Cochain, EdgePath, TwoComplex, class_coordinates, tree_potential
from .errors import (
    CocycleConditionError,
    DisconnectedCoverError,
    UndefinedVertexValueError,
)

__all__ = [
    "CoveringMap",
    "build_abelian_p_cover",
    "build_cyclic_cover",
    "vertex_values",
]


class CoveringMap:
    """A finite regular cover of a 2-complex, with projection bookkeeping.

    deck_moduli gives the cyclic factors of the deck group; deck labels are
    tuples with label[k] ranging over Z/deck_moduli[k].  For covers built
    from mod-p classes, `classes` retains the defining cocycles.
    """

    def __init__(self, base, total, deck_moduli, shifts, classes=None):
        self.base: TwoComplex = base
        self.total: TwoComplex = total
        self.deck_moduli = tuple(int(m) for m in deck_moduli)
        self.degree = math.prod(self.deck_moduli)
        self.shifts = shifts  # (base edges) x len(deck_moduli), reduced mod moduli
        self.classes = None if classes is None else tuple(classes)
        self.deck_labels = [label for label in product(*(range(m) for m in self.deck_moduli))]
        self._label_rank = {label: i for i, label in enumerate(self.deck_labels)}
        self.edge_projection = np.arange(total.num_edges, dtype=np.int64) // self.degree
        self.face_projection = np.arange(total.num_faces, dtype=np.int64) // self.degree
        self.vertex_fiber = [
            list(range(v * self.degree, (v + 1) * self.degree))
            for v in range(base.num_vertices)
        ]

    def label_rank(self, label) -> int:
        return self._label_rank[tuple(label)]

    def deck_label(self, total_vertex: int):
        return self.deck_labels[total_vertex % self.degree]

    def vertex_projection(self, total_vertex: int) -> int:
        return total_vertex // self.degree

    def lift_vertex(self, v: int, label_rank: int = 0) -> int:
        return v * self.degree + label_rank

    def _shift_label(self, label, e, direction):
        s = self.shifts[e]
        return tuple(
            (label[k] + direction * int(s[k])) % m for k, m in enumerate(self.deck_moduli)
        )

    def lift_path(self, path: EdgePath, label_rank: int = 0) -> EdgePath:
        """The lift of a base path starting at the given deck label."""
        label = self.deck_labels[label_rank]
        cur = label
        steps = []
        for e, d in path.steps:
            if d == 1:
                steps.append((e * self.degree + self._label_rank[cur], 1))
                cur = self._shift_label(cur, e, 1)
            else:
                cur = self._shift_label(cur, e, -1)
                steps.append((e * self.degree + self._label_rank[cur], -1))
        return EdgePath(start=path.start * self.degree + label_rank, steps=tuple(steps))

    def pullback(self, c: Cochain) -> Cochain:
        """The pulled-back cochain: each edge lift takes the base value."""
        if c.complex is not self.base:
            raise ValueError("cochain does not live on the base of this cover")
        return Cochain(self.total, c.p, np.repeat(c.values, self.degree))

    def deck_orbit_representatives(self) -> list[int]:
        """One face of the total complex per deck orbit: the zero-label lift."""
        return [f * self.degree for f in range(self.base.num_faces)]


def _build_shift_cover(K: TwoComplex, shifts, moduli, classes=None) -> CoveringMap:
    moduli = tuple(int(m) for m in moduli)
    degree = math.prod(moduli)
    labels = [label for label in product(*(range(m) for m in moduli))]
    label_rank = {label: i for i, label in enumerate(labels)}

    def shifted(label, e, direction):
        s = shifts[e]
        return tuple((label[k] + direction * int(s[k])) % m for k, m in enumerate(moduli))

    edges = []
    for e, (u, v) in enumerate(K.edges):
        for a in labels:
            b = shifted(a, e, 1)
            edges.append((u * degree + label_rank[a], v * degree + label_rank[b]))
    faces = []
    for f in K.faces:
        for a in labels:
            cur = a
            steps = []
            for e, d in f:
                if d == 1:
                    steps.append((e * degree + label_rank[cur], 1))
                    cur = shifted(cur, e, 1)
                else:
                    cur = shifted(cur, e, -1)
                    steps.append((e * degree + label_rank[cur], -1))
            assert cur == a, "face attaching path failed to close in the cover"
            faces.append(tuple(steps))
    try:
        total = TwoComplex(
            num_vertices=K.num_vertices * degree,
            edges=edges,
            faces=faces,
            basepoint=K.basepoint * degree,
        )
    except ValueError as exc:
        raise DisconnectedCoverError(str(exc)) from exc
    return CoveringMap(base=K, total=total, deck_moduli=moduli, shifts=shifts, classes=classes)


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
    cov = _build_shift_cover(K, shifts, (p,) * n, classes=classes)
    assert cov.total.euler_characteristic == cov.degree * K.euler_characteristic
    return cov


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
    for j in range(K.num_faces):
        total = sum(d * int(w[e]) for e, d in K.faces[j])
        if total != 0:
            raise CocycleConditionError(
                f"weights evaluate to {total} on the boundary of face {j}"
            )
    evals = [
        sum(d * int(w[e]) for e, d in K.fundamental_loop(e0).steps)
        for e0 in K.non_tree_edges
    ]
    g = math.gcd(order, *[abs(x) for x in evals]) if evals else order
    if g != 1:
        raise DisconnectedCoverError(
            f"weights generate {g}Z/{order}Z, not all of Z/{order}Z",
            certificate=g,
        )
    shifts = (w.reshape(-1, 1)) % order
    cov = _build_shift_cover(K, shifts, (order,))
    assert cov.total.euler_characteristic == order * K.euler_characteristic
    return cov


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
